import math

import numpy as np
import pytest

from sievesum import _dfs, multfun, primes, verify
from sievesum.errors import RangeError

import oracles


class TestGeneratePrimes:
    def test_small(self):
        assert primes.generate_primes(10).primes.tolist() == [2, 3, 5, 7]

    def test_empty(self):
        assert primes.generate_primes(1).primes.tolist() == []
        assert primes.generate_primes(0).primes.tolist() == []

    def test_table_invariants(self):
        t = primes.generate_primes(1000)
        ps = t.primes
        assert ps[0] == 2
        assert np.all(np.diff(ps) > 0)
        assert ps[-1] <= t.limit

    def test_count_to_1e6(self):
        # frozen from an independent trial-division count
        assert len(primes.generate_primes(10**6).primes) == 78498

    def test_count_small_against_trial_division(self):
        assert len(primes.generate_primes(2000).primes) == oracles.trial_division_prime_count(2000)

    def test_shared_table_growth(self):
        t1 = primes.shared_table(100)
        assert t1.primes[-1] <= 100
        t2 = primes.shared_table(10**5)
        assert t2.primes[-1] <= 10**5
        assert len(t2.primes) == 9592

    def test_grown_table_equals_fresh_sieve(self, monkeypatch):
        monkeypatch.setattr(primes, "_cached_table", None)
        for limit in (100, 70_000, 140_001, 300_007, 10**6 + 1, 3 * 10**6):
            table = primes.shared_table(limit)
            assert table.limit >= limit
            assert np.array_equal(table.primes, primes.generate_primes(table.limit).primes)

    def test_logs_are_views_with_the_bits_of_a_fresh_log(self, monkeypatch):
        monkeypatch.setattr(primes, "_cached_table", None)
        for limit in (1000, 70_000, 300_007):
            table = primes.shared_table(limit)
            want = np.log(table.primes.astype(np.float64))
            assert table.logp.tobytes() == want.tobytes()
            assert np.shares_memory(table.logp, primes._cached_table.logp)


def entries(x, z, q):
    """(level, n, g, log n) of every entry _dfs.frontier lists for the sum
    over n <= x with factors below z and coprime to q, g(p) = 1/p; each
    entry's largest prime factor is checked against trial division."""
    spec = multfun.builtin_spec("one_over_n")
    nmax, ps, gp, logp = multfun._filtered_arrays(spec, x, q, z)
    out = []
    for level, n, g, l, top in _dfs.frontier(ps, gp, logp, nmax):
        for v, gv, lv, tv in zip(n.tolist(), g.tolist(), l.tolist(), top.tolist()):
            assert tv == max(oracles.factorize(v), default=1)
            out.append((level, v, gv, lv))
    return out


def collect(x, z, q):
    return [e[1] for e in entries(x, z, q)]


class TestEnumeration:
    def test_example_full(self):
        assert sorted(collect(10, 11, 1)) == [1, 2, 3, 5, 6, 7, 10]

    def test_example_smooth(self):
        assert sorted(collect(10, 3, 1)) == [1, 2]

    def test_example_coprime(self):
        assert sorted(collect(10, 11, 6)) == [1, 5, 7]

    def test_levels_hold_omega(self):
        levels = {}
        for level, n, _, _ in entries(10, 11, 1):
            levels.setdefault(level, []).append(n)
        assert {k: sorted(v) for k, v in levels.items()} == {0: [1], 1: [2, 3, 5, 7], 2: [6, 10]}
        for level, n, _, _ in entries(3000, math.inf, 1):
            assert len(oracles.factorize(n)) == level

    def test_small_chunks_list_each_n_once(self, monkeypatch):
        want = sorted(entries(3000, 100, 6))
        monkeypatch.setattr(_dfs, "CHUNK", 3)
        got = entries(3000, 100, 6)
        assert sorted(got) == want
        assert len({e[1] for e in got}) == len(got)

    def test_factored_invariants(self):
        _, ps, _, logp = multfun._filtered_arrays(multfun.builtin_spec("one_over_n"), 300, 7, 20)
        log_at = dict(zip(ps.tolist(), logp.tolist()))
        for _, n, g, l in entries(300, 20, 7):
            fac = oracles.factorize(n)
            assert all(e == 1 for e in fac.values())
            assert all(p < 20 for p in fac)
            assert n % 7 != 0
            # built factor by factor in increasing prime order
            g_want, l_want = 1.0, 0.0
            for p in sorted(fac):
                g_want *= 1.0 / p
                l_want += log_at[p]
            assert (g, l) == (g_want, l_want)

    @pytest.mark.parametrize("x", [1, 10, 100, 1234, 10**4])
    def test_count_matches_mobius_oracle(self, x):
        got = len(collect(x, x + 1, 1))
        assert got == oracles.squarefree_count(x)

    def test_monotone_in_z(self):
        assert set(collect(500, 5, 1)) <= set(collect(500, 23, 1))

    def test_monotone_in_q_support(self):
        assert set(collect(500, 100, 30)) <= set(collect(500, 100, 6))

    def test_deterministic(self):
        assert entries(2000, 50, 3) == entries(2000, 50, 3)

    def test_overflow_rejected(self):
        with pytest.raises(RangeError):
            collect(2**62 + 1, 10, 1)

    def test_x_below_one_visits_nothing(self):
        assert collect(0.5, 10, 1) == []

    def test_z_may_exceed_x(self):
        assert sorted(collect(6, 10**9, 1)) == [1, 2, 3, 5, 6]


class TestFactorSupport:
    def test_one(self):
        assert primes.factor_support(1) == []

    def test_small(self):
        assert primes.factor_support(12) == [2, 3]
        assert primes.factor_support(30) == [2, 3, 5]

    def test_prime_power(self):
        assert primes.factor_support(2**40) == [2]

    def test_large_semiprime(self):
        p, q = 1_000_003, 1_000_033
        assert primes.factor_support(p * q) == [p, q]

    def test_large_prime(self):
        p = (1 << 61) - 1
        assert primes.factor_support(p) == [p]

    def test_mixed(self):
        n = 2 * 3 * 104729 * 1_000_003
        assert primes.factor_support(n) == [2, 3, 104729, 1_000_003]


def _bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


class TestTableGrowth:
    """Sums, Euler products and Buchstab defects, alone and in a group that
    slices one prime selection, read the same bits from a fresh prime table
    and from one grown far past what they use."""

    SPECS = [
        multfun.builtin_spec("one_over_phi"),
        multfun.builtin_spec("nu_minus1_over_phi", offsets=(0, 4, 6)),
        multfun.builtin_spec("signed_mu_times", base="k_over_p", k=3),
    ]

    @staticmethod
    def results(spec, q):
        out = []
        for x, m, z in ((5000.5, 2, 300.0), (20000, 1, math.inf), (1, 0, 2.0)):
            r = multfun.m_sum_smooth(spec, x, m, q, z, exact=False)
            out.append((_bits([r.value]), r.terms))
        for order in (0, 2, 3):
            coeffs, bounds, sign = multfun.euler_log_taylor(spec, q, order)
            out.append((_bits(coeffs), _bits(bounds), sign))
        out.append(_bits([verify.buchstab_defect(spec, 3000.5, 1, q, 40.0)]))
        group = [(3000.5, 1, 40.0), (800, 2, 2.0), (1500, 0, 1500.0), (97.5, 3, 9.25)]
        out.append(_bits(verify.buchstab_defects(spec, q, group)))
        return out

    @pytest.mark.parametrize("q", [1, 30, 77])
    def test_fresh_and_grown_tables_agree(self, monkeypatch, q):
        monkeypatch.setattr(primes, "_cached_table", None)
        fresh = [self.results(spec, q) for spec in self.SPECS]
        primes.shared_table(1 << 22)
        assert [self.results(spec, q) for spec in self.SPECS] == fresh

    def test_sum_evaluates_g_on_its_own_primes(self, monkeypatch):
        monkeypatch.setattr(primes, "_cached_table", None)
        primes.shared_table(1 << 22)
        spec = multfun.builtin_spec("one_over_n")
        seen = []
        values = multfun.MultFuncSpec.values_on
        monkeypatch.setattr(multfun.MultFuncSpec, "values_on",
                            lambda self, ps: seen.append(len(ps)) or values(self, ps))
        multfun.m_sum(spec, 1000, 1, 1)
        assert 0 < sum(seen) <= 168  # pi(1000) = 168
