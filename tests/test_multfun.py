import math
from fractions import Fraction

import numpy as np
import pytest

from sievesum import _dfs, multfun, primes
from sievesum.errors import RangeError, ToleranceError
from sievesum.multfun import builtin_spec, m_sum, m_sum_smooth, singular_series

import oracles


def _at(spec, p):
    """g(p) through values_on."""
    return float(spec.values_on(np.array([p], dtype=np.int64))[0])


class TestBuiltinSpecs:
    def test_one_over_n_at_5(self):
        assert _at(builtin_spec("one_over_n"), 5) == 1 / 5

    def test_nu_over_p_pair_at_2(self):
        spec = builtin_spec("nu_over_p", offsets=(0, 2))
        assert _at(spec, 2) == 1 / 2
        assert spec.value_exact(2) == Fraction(1, 2)

    def test_nu_minus1_over_phi_at_5(self):
        spec = builtin_spec("nu_minus1_over_phi", offsets=(0, 2))
        assert _at(spec, 5) == 1 / 4

    def test_dimensions(self):
        assert builtin_spec("one_over_n").dimension_k == 1
        assert builtin_spec("one_over_phi").dimension_k == 1
        assert builtin_spec("two_omega_over_n").dimension_k == 2
        assert builtin_spec("k_over_p", k=7).dimension_k == 7
        assert builtin_spec("nu_over_p", offsets=(0, 2, 6)).dimension_k == 3
        assert builtin_spec("nu_minus1_over_phi", offsets=(0, 2, 6)).dimension_k == 2

    def test_signed_wrapper(self):
        spec = builtin_spec("signed_mu_times", base="one_over_n")
        assert _at(spec, 7) == -1 / 7
        assert spec.dimension_k == -1
        assert spec.value_exact(7) == Fraction(-1, 7)

    def test_signed_of_spec_instance(self):
        base = builtin_spec("k_over_p", k=2)
        spec = builtin_spec("signed_mu_times", base=base)
        assert _at(spec, 3) == -2 / 3
        assert spec.dimension_k == -2

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            builtin_spec("mystery")

    def test_vector_matches_scalar(self):
        for spec in (
            builtin_spec("one_over_phi"),
            builtin_spec("nu_over_p", offsets=(0, 4, 6)),
            builtin_spec("nu_minus1_over_phi", offsets=(0, 4, 6)),
        ):
            ps = np.array([2, 3, 5, 7, 11, 97], dtype=np.int64)
            vec = spec.values_on(ps)
            for p, v in zip(ps.tolist(), vec):
                assert v == float(spec.value_exact(p))


class TestBuiltinsUnchanged:
    """Every builtin is g(p) = a(p) / (p - c); its constants and its values
    on the primes up to 1e5 are pinned here against independent per-spec
    formulas."""

    # (name, kwargs): (dimension_k, c, cutoff, 2|k|c), c, and a(p) as a
    # plain function of p
    CASES = {
        ("one_over_n", ()): ((1, 0, 1, 0.0), 0, lambda p: 1),
        ("one_over_phi", ()): ((1, 1, 1, 2.0), 1, lambda p: 1),
        ("two_omega_over_n", ()): ((2, 0, 1, 0.0), 0, lambda p: 2),
        ("k_over_p", (("k", 3),)): ((3, 0, 1, 0.0), 0, lambda p: 3),
        ("nu_over_p", (("offsets", (0, 2, 6)),)):
            ((3, 0, 6, 0.0), 0, lambda p: len({0, 2 % p, 6 % p})),
        ("nu_minus1_over_phi", (("offsets", (0, 4, 6)),)):
            ((2, 1, 6, 4.0), 1, lambda p: len({0, 4 % p, 6 % p}) - 1),
        ("signed_mu_times", (("base", "k_over_p"), ("k", 3))): ((-3, 0, 1, 0.0), 0, lambda p: -3),
    }

    @pytest.fixture(params=sorted(CASES, key=str), ids=lambda key: key[0])
    def case(self, request):
        name, kwargs = request.param
        return (builtin_spec(name, **dict(kwargs)), *self.CASES[request.param])

    def test_declared_constants(self, case):
        spec, consts, _, _ = case
        got = (spec.dimension_k, spec.c, spec.cutoff, 2.0 * abs(spec.dimension_k) * spec.c)
        assert got == consts
        assert [type(v) for v in got] == [int, int, int, float]

    def test_values_bit_for_bit(self, case):
        spec, _, c, a = case
        ps = primes.shared_table(100_000).primes
        want = np.array([float(a(int(p))) for p in ps]) / (ps.astype(np.float64) - c)
        assert spec.values_on(ps).tobytes() == want.tobytes()
        exact = [spec.value_exact(p) for p in ps.tolist()]
        assert np.array([float(v) for v in exact]).tobytes() == want.tobytes()
        assert exact == [Fraction(a(p), p - c) for p in ps.tolist()]

    def test_duplicate_offsets_rejected(self):
        # nu(p) counts distinct residues, so a repeated offset has no dimension
        with pytest.raises(ValueError, match="distinct"):
            builtin_spec("nu_over_p", offsets=(0, 0, 2))


class TestSpecForm:
    """The guarantees of the one data form (k, c, cutoff, low)."""

    @pytest.fixture(params=sorted(TestBuiltinsUnchanged.CASES, key=str), ids=lambda key: key[0])
    def spec(self, request):
        name, kwargs = request.param
        return builtin_spec(name, **dict(kwargs))

    def test_tail_bound_holds(self, spec):
        # past the cutoff g(p) = k/(p - c) is within 2|k|c p^-2 of k/p, for g and its mu twist
        ps = primes.shared_table(100_000).primes
        ps = ps[ps > spec.cutoff]
        pf = ps.astype(np.float64)
        for s in (spec, spec.negated()):
            dev = np.abs(s.values_on(ps) - s.dimension_k / pf)
            assert np.all(dev <= 2.0 * abs(s.dimension_k) * s.c * pf**-2.0 + 1e-15 / pf)

    def test_double_negation_is_identity(self, spec):
        ps = primes.shared_table(10_000).primes
        twice = spec.negated().negated()
        assert twice.values_on(ps).tobytes() == spec.values_on(ps).tobytes()
        assert (twice.dimension_k, twice.c, twice.cutoff, twice.low) == (
            spec.dimension_k, spec.c, spec.cutoff, spec.low)

    @pytest.mark.parametrize("offsets", [(0,), (0, 2, 6), (-7, 0, 4, 30), (0, 2, 6, 8, 12, 18, 20)])
    def test_low_lists_every_prime_where_nu_differs(self, offsets):
        for name, c in (("nu_over_p", 0), ("nu_minus1_over_phi", 1)):
            spec = builtin_spec(name, offsets=offsets)
            nus = [(p, len({h % p for h in offsets})) for p in primes.shared_table(200).primes.tolist()]
            assert spec.low == tuple((p, nu - c) for p, nu in nus if nu != len(offsets))

    def test_wide_tuple_needs_no_sieve_to_its_diameter(self):
        # the low primes are those of the one difference 2e9 = 2^10 5^9
        spec = builtin_spec("nu_over_p", offsets=(0, 2_000_000_000))
        assert (spec.cutoff, spec.low) == (2_000_000_000, ((2, 1), (5, 1)))
        assert m_sum(spec, 100, 0, 1).terms == 61

    def test_permuted_offsets_equal(self):
        a = builtin_spec("nu_over_p", offsets=(0, 2, 6))
        b = builtin_spec("nu_over_p", offsets=(6, 0, 2))
        assert a == b and hash(a) == hash(b)

    @pytest.mark.parametrize("args, message", [
        ((1, 2), "c must be 0 or 1"),
        ((1, 0, 6, ((7, 2),)), "exceeds the cutoff"),
        ((2.5, 0), "dimension_k must be an integer"),
    ])
    def test_bad_fields_rejected(self, args, message):
        with pytest.raises(RangeError, match=message):
            multfun.MultFuncSpec("custom", *args)


class TestMSum:
    def test_hand_sum_exact(self):
        r = m_sum(builtin_spec("one_over_n"), 10, 0, 1, exact=True)
        assert r.exact_value == Fraction(171, 70)
        assert abs(r.value - 171 / 70) < 1e-12
        assert r.terms == 7

    def test_x_one(self):
        r = m_sum(builtin_spec("two_omega_over_n"), 1, 0, 1, exact=True)
        assert r.value == 1.0
        assert r.exact_value == 1
        assert r.terms == 1

    def test_coprime_subset(self):
        r = m_sum(builtin_spec("one_over_n"), 10, 0, 6, exact=True)
        assert r.exact_value == Fraction(47, 35)

    def test_smooth_example(self):
        r = m_sum_smooth(builtin_spec("one_over_n"), 10, 0, 1, 3, exact=True)
        assert r.exact_value == Fraction(3, 2)

    def test_smooth_vacuous(self):
        spec = builtin_spec("one_over_phi")
        a = m_sum_smooth(spec, 200, 1, 1, 10**6)
        b = m_sum(spec, 200, 1, 1)
        assert a.value == b.value
        assert a.terms == b.terms

    def test_brute_force_smooth_m1(self):
        spec = builtin_spec("one_over_n")
        got = m_sum_smooth(spec, 100, 1, 1, 10).value
        want = oracles.brute_weighted_sum(lambda p: 1 / p, 100, 1, 1, 10)
        assert abs(got - want) < 1e-12 * (1 + abs(want))

    @pytest.mark.parametrize("name,m,q,z", [
        ("one_over_n", 0, 1, math.inf),
        ("one_over_phi", 2, 3, math.inf),
        ("two_omega_over_n", 1, 10, 50),
        ("k_over_p", 3, 2, 20),
    ])
    def test_brute_force_small(self, name, m, q, z):
        spec = builtin_spec(name, k=3) if name == "k_over_p" else builtin_spec(name)
        got = _sum(spec, 317, m, q, z)
        want = oracles.brute_weighted_sum(lambda p: float(spec.value_exact(p)), 317, m, q, z)
        assert abs(got - want) < 1e-11 * (1 + abs(want))

    def test_exact_matches_float_at_1e4(self):
        for name in ("one_over_n", "one_over_phi", "two_omega_over_n"):
            r = m_sum(builtin_spec(name), 10**4, 0, 1, exact=True)
            assert r.exact_value is not None
            assert abs(r.value - float(r.exact_value)) <= 1e-12 * abs(r.value)

    def test_exact_matches_float_at_1e5(self):
        r = m_sum(builtin_spec("one_over_n"), 10**5, 0, 1, exact=True)
        assert abs(r.value - float(r.exact_value)) <= 1e-12 * abs(r.value)

    def test_exact_matches_brute_rational(self):
        spec = builtin_spec("one_over_phi")
        got = m_sum_smooth(spec, 150, 0, 5, 40, exact=True).exact_value
        want = oracles.brute_weighted_sum_exact(lambda p: Fraction(1, p - 1), 150, 5, 40)
        assert got == want

    def test_exact_request_on_m1_rejected(self):
        with pytest.raises(RangeError):
            m_sum(builtin_spec("one_over_n"), 10, 1, 1, exact=True)

    def test_exact_request_beyond_cap_rejected(self):
        with pytest.raises(RangeError):
            m_sum(builtin_spec("one_over_n"), 2 * 10**5, 0, 1, exact=True)

    def test_monotone_in_z_and_x(self):
        spec = builtin_spec("one_over_n")
        v1 = m_sum_smooth(spec, 1000, 1, 1, 5).value
        v2 = m_sum_smooth(spec, 1000, 1, 1, 50).value
        v3 = m_sum_smooth(spec, 2000, 1, 1, 50).value
        assert v1 <= v2 <= v3

    def test_nonincreasing_in_q_support(self):
        spec = builtin_spec("one_over_n")
        v30 = m_sum_smooth(spec, 1000, 1, 30, 1000).value
        v6 = m_sum_smooth(spec, 1000, 1, 6, 1000).value
        v1 = m_sum_smooth(spec, 1000, 1, 1, 1000).value
        assert v30 <= v6 <= v1

    def test_deterministic_repeat(self):
        spec = builtin_spec("two_omega_over_n")
        a = m_sum(spec, 54321, 2, 7).value
        b = m_sum(spec, 54321, 2, 7).value
        assert a == b

    def test_x_below_one_rejected(self):
        with pytest.raises(RangeError):
            m_sum(builtin_spec("one_over_n"), 0.5, 0, 1)

    def test_overflow_rejected(self):
        with pytest.raises(RangeError):
            m_sum(builtin_spec("one_over_n"), 2.0**63, 0, 1)

    def test_nan_z_rejected(self):
        with pytest.raises(RangeError):
            m_sum_smooth(builtin_spec("one_over_n"), 100, 1, 1, math.nan)

    def test_negative_infinite_z_is_below_every_prime(self):
        r = m_sum_smooth(builtin_spec("one_over_n"), 100, 1, 1, -math.inf)
        assert (r.value, r.terms) == (math.log(100), 1)


class TestOrderIndependence:
    """m_sum is the correctly rounded sum of its per-term floats, so neither
    the enumeration order nor the chunking can move a bit."""

    @pytest.mark.parametrize("name,x,q,z", [
        ("one_over_n", 3000, 1, math.inf),
        ("one_over_phi", 2500.5, 6, math.inf),
        ("two_omega_over_n", 2000, 1, 30),
        ("nu_minus1_over_phi", 1800, 77, 200),
        ("signed_mu_times", 3000, 1, math.inf),
    ])
    def test_matches_fsum_of_oracle_terms(self, name, x, q, z):
        if name == "nu_minus1_over_phi":
            spec = builtin_spec(name, offsets=(0, 4, 6))
        elif name == "signed_mu_times":
            spec = builtin_spec(name, base="one_over_n")
        else:
            spec = builtin_spec(name)
        # the same per-prime floats as the sum, from an independent enumeration
        _, ps, gp, logp = multfun._filtered_arrays(spec, x, q, z)
        at = {p: (g, lg) for p, g, lg in zip(ps.tolist(), gp.tolist(), logp.tolist())}
        for m in range(4):
            terms = oracles.weighted_terms(at, x, m)
            r = m_sum_smooth(spec, x, m, q, z)
            assert r.value == math.fsum(terms)
            assert r.terms == len(terms)

    def test_chunk_size_leaves_bits(self, monkeypatch):
        spec = builtin_spec("one_over_phi")
        want = [m_sum_smooth(spec, 20000, m, 6, 500) for m in (0, 3)]
        for chunk in (1, 2, 7, 1000):
            monkeypatch.setattr(_dfs, "CHUNK", chunk)
            got = [m_sum_smooth(spec, 20000, m, 6, 500) for m in (0, 3)]
            assert [(r.value, r.terms) for r in got] == [(r.value, r.terms) for r in want]

    @pytest.mark.parametrize("x", [1, 2, 10, 1234, 10**5])
    def test_terms_match_squarefree_count(self, x):
        assert m_sum(builtin_spec("one_over_n"), x, 1, 1).terms == oracles.squarefree_count(x)


SMOOTH_EACH_SPECS = [
    ("one_over_n", {}),
    ("one_over_phi", {}),
    ("two_omega_over_n", {}),
    ("k_over_p", {"k": 3}),
    ("nu_over_p", {"offsets": (0, 2, 6)}),
    ("nu_minus1_over_phi", {"offsets": (0, 4, 6)}),
    ("signed_mu_times", {"base": "one_over_n"}),
]


class TestSmoothEach:
    """m_sum_smooth_each enumerates once for all the primes of a Buchstab
    sum; each of its sums is bit-equal to its own m_sum_smooth call."""

    @staticmethod
    def per_call(spec, x, m, q, z):
        table = primes.shared_table(int(x) + 1)
        ps = table.primes[table.primes.searchsorted(math.ceil(z)):]
        ps = ps[(ps < x) & (q % ps != 0)]
        want = [m_sum_smooth(spec, x / p, m, q, p, exact=False).value for p in ps.tolist()]
        return ps, want

    @pytest.mark.parametrize("name,kw", SMOOTH_EACH_SPECS)
    def test_bit_equal_to_per_call(self, name, kw):
        spec = builtin_spec(name, **kw)
        for q in (1, 6, 77):
            for x, z in ((600.0, 2.0), (600.5, 37.25), (431.0, 431.0), (431.5, 2.0)):
                for m in range(4):
                    ps, want = self.per_call(spec, x, m, q, z)
                    assert multfun.m_sum_smooth_each(spec, x, m, q, ps) == want

    def test_no_prime_in_range(self):
        spec = builtin_spec("one_over_phi")
        ps, want = self.per_call(spec, 24.5, 1, 1, 23.5)
        assert len(ps) == 0 and want == []
        assert multfun.m_sum_smooth_each(spec, 24.5, 1, 1, ps) == []

    def test_small_chunks_leave_bits(self, monkeypatch):
        spec = builtin_spec("nu_over_p", offsets=(0, 2, 6))
        monkeypatch.setattr(_dfs, "CHUNK", 3)
        for m in (0, 2):
            ps, want = self.per_call(spec, 900.5, m, 6, 2.0)
            assert multfun.m_sum_smooth_each(spec, 900.5, m, 6, ps) == want

    def test_rejects_bad_input(self):
        spec = builtin_spec("one_over_n")
        ps = np.array([2, 3, 5], dtype=np.int64)
        with pytest.raises(RangeError):
            multfun.m_sum_smooth_each(spec, 4.0, 1, 1, ps)
        with pytest.raises(RangeError):
            multfun.m_sum_smooth_each(spec, 10.0, -1, 1, ps)
        with pytest.raises(RangeError):
            multfun.m_sum_smooth_each(spec, 10.0, 1, 0, ps)


def _exact(t, size=None):
    """ExactSums' value of the float64 array t, added size entries at a time."""
    sums = _dfs.ExactSums(1)
    size = size or max(len(t), 1)
    for a in range(0, len(t), size):
        sums.add(0, t[a:a + size])
    return sums.values()[0]


class TestExactSums:
    """The bucketed exact sum returns the bits of math.fsum."""

    @pytest.mark.parametrize("seed", range(3))
    def test_exponents_across_the_float_range(self, seed):
        rng = np.random.default_rng(seed)
        for n in (1, 2, 37, 1000, 1 << 15):
            # subnormals up to 2^999, with no total past the float range
            t = np.ldexp(rng.uniform(-1, 1, n), rng.integers(-1080, 1000, n))
            assert _exact(t).hex() == math.fsum(t.tolist()).hex()

    def test_subnormals(self):
        rng = np.random.default_rng(4)
        t = np.ldexp(rng.uniform(-1, 1, 5000), rng.integers(-1100, -1015, 5000))
        assert np.count_nonzero(np.abs(t) < np.finfo(np.float64).tiny) > 1000
        assert _exact(t).hex() == math.fsum(t.tolist()).hex()
        for t in ([5e-324], [5e-324, 5e-324, -5e-324], [2.2250738585072014e-308, -5e-324]):
            assert _exact(np.array(t)).hex() == math.fsum(t).hex()

    def test_exact_cancellation_and_signed_zeros(self):
        rng = np.random.default_rng(5)
        t = np.ldexp(rng.uniform(-1, 1, 3000), rng.integers(-60, 60, 3000))
        both = np.concatenate([t, -t[::-1]])
        for case in (both, np.array([1.0, -1.0]), np.array([-0.0]), np.array([-0.0, -0.0]),
                     np.array([-0.0, 0.0]), np.array([-0.0, 1e-300, -1e-300]), np.zeros(0)):
            assert _exact(case).hex() == math.fsum(case.tolist()).hex()
        assert _exact(both).hex() == "0x0.0p+0"

    @pytest.mark.parametrize("size", [1, 2, 3, 7, 100, 4096, 1 << 13, 1 << 15])
    def test_chunk_sizes_leave_bits(self, size):
        rng = np.random.default_rng(size)
        t = np.ldexp(rng.uniform(-1, 1, 20000), rng.integers(-200, 200, 20000))
        assert _exact(t, size).hex() == math.fsum(t.tolist()).hex()

    def test_rows_are_separate(self):
        rng = np.random.default_rng(6)
        parts = [np.ldexp(rng.uniform(-1, 1, n), rng.integers(-40, 40, n)) for n in (5, 900, 20000)]
        sums = _dfs.ExactSums(4)
        for i, t in enumerate(parts * 2):
            sums.add(i % 3, t)
        want = [math.fsum(np.concatenate([t, t]).tolist()) for t in parts] + [0.0]
        assert [v.hex() for v in sums.values()] == [v.hex() for v in want]
        assert sums.terms == [2 * len(t) for t in parts] + [0]

    @pytest.mark.parametrize("fold", [1, 5, 1000])
    def test_small_fold_threshold_leaves_bits(self, monkeypatch, fold):
        monkeypatch.setattr(_dfs, "FOLD_TERMS", fold)
        rng = np.random.default_rng(fold)
        t = np.ldexp(rng.uniform(-1, 1, 30000), rng.integers(-1070, 990, 30000))
        for size in (3, 1 << 15):
            assert _exact(t, size).hex() == math.fsum(t.tolist()).hex()

    def test_not_finite(self):
        with np.errstate(invalid="ignore"):  # inf - inf in the split
            assert math.isnan(_exact(np.array([1.0, math.inf])))
            assert math.isnan(_exact(np.array([math.nan, 1.0])))
        # finite terms whose total is past the float range, where fsum raises
        assert _exact(np.array([1e308, 1e308])) == math.inf
        assert _exact(np.array([-1e308, -1e308, 1.0])) == -math.inf
        # only the total is rounded, so a partial sum may pass the float range
        assert _exact(np.array([1e308, 1e308, -1e308])) == 1e308


MSUMS_SPECS = [(name, kw) for name, kw in SMOOTH_EACH_SPECS if name != "signed_mu_times"]


class TestMSums:
    """One m_sums pass gives each query the bits and term count of its own call."""

    @pytest.mark.parametrize("name,kw", MSUMS_SPECS)
    def test_bit_equal_to_single_calls(self, name, kw):
        spec = builtin_spec(name, **kw)
        queries = [(2500.5, m, z) for z in (2.0, 30.0, math.inf) for m in range(4)]
        for q in (1, 6, 77):
            got = multfun.m_sums(spec, q, queries)
            for (x, m, z), r in zip(queries, got):
                want = m_sum(spec, x, m, q) if z == math.inf else m_sum_smooth(spec, x, m, q, z)
                assert (r.value.hex(), r.terms, r.exact_value) == (want.value.hex(), want.terms, None)

    def test_mixed_x_and_repeated_queries(self):
        spec = builtin_spec("nu_minus1_over_phi", offsets=(0, 4, 6))
        queries = [(2500.5, 1, math.inf), (1, 0, math.inf), (700, 2, 30.0), (2500.5, 1, math.inf),
                   (1999, 3, 1e9), (10, 0, -5.0), (2000.25, 0, 2000.25)]
        got = multfun.m_sums(spec, 6, queries)
        for (x, m, z), r in zip(queries, got):
            want = m_sum_smooth(spec, x, m, 6, z)
            assert (r.value.hex(), r.terms) == (want.value.hex(), want.terms)

    def test_no_queries(self):
        assert multfun.m_sums(builtin_spec("one_over_n"), 1, []) == []

    def test_bad_query_rejected(self):
        spec = builtin_spec("one_over_n")
        for query in ((0.5, 1, math.inf), (100, -1, math.inf), (100, 1, math.nan)):
            with pytest.raises(RangeError):
                multfun.m_sums(spec, 1, [(100, 0, math.inf), query])


class TestFloatRange:
    """A sum that is not finite in float64 raises RangeError naming x and m."""

    @pytest.mark.parametrize("spec,m", [("one_over_n", 271), ("signed_mu_times:one_over_n", 275)])
    def test_infinite_term(self, spec, m):
        from sievesum.cli import parse_spec

        with pytest.raises(RangeError, match=rf"x = 1e\+06, m = {m}\b"):
            m_sum(parse_spec(spec), 1e6, m, 1)

    def test_finite_terms_past_the_float_range(self):
        # the n = 1 and n = 2 terms are 7.9e307 and 1.5e308: each finite, their sum is not
        with pytest.raises(RangeError, match=r"x = 1e\+06, m = 270\b"):
            m_sum(builtin_spec("k_over_p", k=4_000_000), 1e6, 270, 1)

    def test_largest_finite_order(self):
        assert m_sum(builtin_spec("one_over_n"), 1e6, 270, 1).value == 7.92635925460632e307


def _sum(spec, x, m, q, z):
    if math.isfinite(z):
        return m_sum_smooth(spec, x, m, q, z).value
    return m_sum(spec, x, m, q).value


class TestSingularSeries:
    def test_zeta2(self):
        got = singular_series(builtin_spec("one_over_n"), 1, 1e-7)
        assert abs(got - 6 / math.pi**2) < 1e-6

    def test_q2_rearrangement(self):
        got = singular_series(builtin_spec("one_over_n"), 2, 1e-7)
        want = (2 / 3) * (6 / math.pi**2)
        assert abs(got - want) < 1e-6

    def test_modulus_with_a_prime_past_the_head(self):
        # p | q keeps only (1 - 1/p)^k, also for p = 1000003 past P0 = 1024
        got = singular_series(builtin_spec("one_over_n"), 2 * 1000003, 1e-12)
        want = (2 / 3) * (6 / math.pi**2) / (1 + 1 / 1000003)
        assert abs(got - want) < 1e-12

    def test_one_over_phi_is_one(self):
        # (1 + 1/(p-1))(1 - 1/p) = 1 for every p, so any truncation is exact
        got = singular_series(builtin_spec("one_over_phi"), 1, 1e-7)
        assert abs(got - 1.0) < 1e-6

    def test_twin_constant_a_variant(self):
        spec = builtin_spec("signed_mu_times", base="nu_over_p", offsets=(0, 2))
        got = singular_series(spec, 1, 1e-6)
        # 2 * C2 with C2 the twin prime constant
        assert abs(got - 1.3203236316937392) < 1e-5

    def test_a_variant_zero_factor(self):
        # 1 - g(2) = 0 for g(p) = 1/(p-1)
        got = singular_series(builtin_spec("signed_mu_times", base="one_over_phi"), 1, 1e-6)
        assert got == 0.0

    def test_nan_tolerance_rejected(self):
        with pytest.raises(RangeError):
            singular_series(builtin_spec("one_over_n"), 1, math.nan)

    def test_infinite_tolerance_rejected(self):
        # an infinite target once certified the first truncation point
        with pytest.raises(RangeError, match="tol must be a positive finite number"):
            singular_series(builtin_spec("one_over_n"), 1, math.inf)

    def test_tolerance_unreachable(self):
        # below the rounding allowance of the untruncated product
        with pytest.raises(ToleranceError) as err:
            singular_series(builtin_spec("one_over_n"), 1, 1e-17)
        assert 1e-17 < err.value.achieved < 1e-13

    def test_zeta2_to_1e_9(self):
        got = singular_series(builtin_spec("one_over_n"), 1, 1e-9)
        assert abs(got - 6 / math.pi**2) < 1e-9

    @pytest.mark.parametrize("name, kwargs, head", [
        ("one_over_phi", {}, 1024),
        ("k_over_p", {"k": 3}, 4096),
        ("nu_over_p", {"offsets": (0, 2, 6, 8, 12, 18, 20, 26, 30, 32)}, 16384),
        ("nu_over_p", {"offsets": (0, 5000)}, 8192),
    ])
    def test_one_product_summed_to_its_head_limit(self, monkeypatch, name, kwargs, head):
        # one order-0 call; primes are summed only up to P0, the smallest
        # power of two >= 1024, the cutoff and 1024 |k|
        spec = builtin_spec(name, **kwargs)
        assert multfun._head_limit(spec) == head
        monkeypatch.setattr(primes, "_cached_table", None)
        orders = []
        taylor = multfun.euler_log_taylor
        monkeypatch.setattr(multfun, "euler_log_taylor",
                            lambda *args: orders.append(args[2]) or taylor(*args))
        singular_series(spec, 1, 1e-8)
        singular_series(spec.negated(), 1, 1e-8)
        assert orders == [0, 0]
        assert primes._cached_table.limit == max(1 << 16, head)

    def test_one_over_phi_to_1e_14(self):
        # every factor (1 + 1/(p-1))(1 - 1/p) is exactly 1
        assert abs(singular_series(builtin_spec("one_over_phi"), 1, 1e-14) - 1.0) <= 1e-14

    def test_one_over_n_matches_log_zeta(self):
        # log G(s) = -log zeta(2 + 2s) for g(n) = 1/n
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        want = mpmath.taylor(lambda s: -mpmath.log(mpmath.zeta(2 + 2 * s)), 0, 12)
        coeffs, bounds, sign = multfun.euler_log_taylor(builtin_spec("one_over_n"), 1, 12)
        assert sign == 1.0
        for got, bound, exact in zip(coeffs, bounds, want):
            # c_12 = -341.3, whose ulp is 5.7e-14: the bound is read relative
            # to the coefficient past 1
            assert abs(got - float(exact)) <= bound <= 1e-13 * max(1.0, abs(float(exact)))

    def test_ten_tuple_matches_prime_zeta(self):
        # G(0) = prod_p (1 - nu(p)/p)(1 - 1/p)^-10; past p = 31, nu(p) = 10
        # and the log of the product is sum_r (10 - 10^r)/r (P(r) - sum_{p <= 31} p^-r);
        # P(r) - sum_{p <= 31} p^-r is about 37^-r, so it needs 1.6 r digits
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 80
        offsets = (0, 2, 6, 8, 12, 18, 20, 26, 30, 32)
        small = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
        want = mpmath.mpf(1)
        for p in small:
            nu = len({h % p for h in offsets})
            want *= (1 - mpmath.mpf(nu) / p) * (1 - mpmath.mpf(1) / p) ** -10
        log_tail = sum(
            (10 - mpmath.mpf(10) ** r) / r
            * (mpmath.primezeta(r) - sum(mpmath.mpf(p) ** -r for p in small))
            for r in range(2, 40)
        )
        want = float(want * mpmath.exp(log_tail))
        spec = builtin_spec("nu_over_p", offsets=offsets).negated()
        coeffs, bounds, sign = multfun.euler_log_taylor(spec, 1, 0)
        assert sign == 1.0
        assert abs(math.exp(coeffs[0]) - want) <= want * math.expm1(bounds[0]) <= 1e-8

    def test_negative_series_matches_prime_zeta(self):
        # G(0) = (2/3)^-3 prod_{p != 3} (1 - 3/p)(1 - 1/p)^-3, negative
        # through its p = 2 factor; past p = 7 the log of the product is
        # sum_r (3 - 3^r)/r (P(r) - sum_{p <= 7} p^-r), P the prime zeta
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        want = (mpmath.mpf(2) / 3) ** -3
        for p in (2, 5, 7):
            want *= (1 - mpmath.mpf(3) / p) * (1 - mpmath.mpf(1) / p) ** -3
        log_tail = sum(
            (3 - mpmath.mpf(3) ** r) / r
            * (mpmath.primezeta(r) - sum(mpmath.mpf(p) ** -r for p in (2, 3, 5, 7)))
            for r in range(2, 60)
        )
        want = float(want * mpmath.exp(log_tail))
        spec = builtin_spec("signed_mu_times", base="k_over_p", k=3)
        got = singular_series(spec, 3, 1e-7)
        assert want < -8.57
        assert abs(got - want) < 1e-7

    def test_self_consistent_across_tolerances(self):
        spec = builtin_spec("two_omega_over_n")
        a = singular_series(spec, 1, 1e-5)
        b = singular_series(spec, 1, 1e-7)
        assert abs(a - b) < 1e-5
