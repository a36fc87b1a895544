"""Tests for the convergence checks."""

import math

import numpy as np
import pytest

from sievesum import _dfs, dde, multfun, primes, verify
from sievesum.errors import RangeError, ToleranceError

SMALL_LADDER = (1e4, 1e5, 1e6)


class TestVerdict:
    def test_decreasing_passes(self):
        assert verify._verdict([4.0, 3.0, 2.0, 1.0])

    def test_single_violation_passes(self):
        assert verify._verdict([4.0, 3.0, 3.5, 1.0])

    def test_two_violations_fail(self):
        assert not verify._verdict([4.0, 5.0, 6.0, 1.0])

    def test_short_sequences_pass(self):
        assert verify._verdict([1.0])
        assert verify._verdict([])

    def test_nan_residual_fails(self):
        # NaN compares false, so it would never count as a rise
        assert not verify._verdict([4.0, 3.0, math.nan])
        assert not verify._verdict([math.nan])


class TestTheorem1:
    def test_one_over_n_converges(self):
        spec = multfun.builtin_spec("one_over_n")
        rep = verify.check_theorem1(spec, m=1, q=1, xs=SMALL_LADDER)
        assert rep.verdict
        assert all(0.0 < r < 1.0 for r in rep.residuals)
        assert rep.residuals[-1] < rep.residuals[0]

    def test_two_omega_m0(self):
        spec = multfun.builtin_spec("two_omega_over_n")
        rep = verify.check_theorem1(spec, m=0, q=1, xs=SMALL_LADDER)
        assert rep.verdict

    def test_modulus_changes_series(self):
        spec = multfun.builtin_spec("one_over_phi")
        r1 = verify.check_theorem1(spec, m=1, q=1, xs=(1e4, 1e5))
        r2 = verify.check_theorem1(spec, m=1, q=6, xs=(1e4, 1e5))
        assert r1.params["series"] != r2.params["series"]
        assert r2.verdict or r2.residuals[-1] < r2.residuals[0] * 1.5

    def test_rejects_nonpositive_dimension(self):
        base = multfun.builtin_spec("one_over_n")
        signed = multfun.builtin_spec("signed_mu_times", base=base)
        with pytest.raises(RangeError):
            verify.check_theorem1(signed, m=1, q=1, xs=(1e3,))

    @pytest.mark.parametrize("check", [verify.check_theorem1, verify.check_theorem2])
    @pytest.mark.parametrize("m,q", [(1.5, 1), (1, 1.5)])
    def test_fractional_order_or_modulus_rejected(self, check, m, q):
        spec = multfun.builtin_spec("one_over_n")
        with pytest.raises(RangeError):
            check(spec, m=m, q=q, xs=(1e3,))


class TestTheorem2:
    def test_one_over_n_u2(self):
        spec = multfun.builtin_spec("one_over_n")
        rep = verify.check_theorem2(spec, m=1, q=1, u=2.0, xs=SMALL_LADDER)
        assert rep.verdict
        assert 0.9 < rep.params["f(u)"] < 0.94
        assert rep.residuals[-1] < rep.residuals[0]

    def test_u1_equals_plain_at_z_x(self):
        # u = 1 restricts to p < x, which only drops n = x itself
        spec = multfun.builtin_spec("one_over_phi")
        rep = verify.check_theorem2(spec, m=1, q=1, u=1.0, xs=(1e4, 1e5))
        plain = verify.check_theorem1(spec, m=1, q=1, xs=(1e4, 1e5))
        assert abs(rep.measured[0] - plain.measured[0]) < 1e-9 * abs(plain.measured[0])

    def test_validation(self):
        spec = multfun.builtin_spec("one_over_n")
        with pytest.raises(RangeError):
            verify.check_theorem2(spec, m=1, q=1, u=0.0, xs=(1e3,))
        with pytest.raises(RangeError):
            verify.check_theorem2(spec, m=1, q=1, u=math.inf, xs=(1e3,))

    def test_tiny_u_restricts_nothing(self):
        # x^(1/u) overflows a float: z is taken as infinite, so the
        # smoothed sums are the plain ones
        spec = multfun.builtin_spec("one_over_n")
        rep = verify.check_theorem2(spec, m=1, q=1, u=1e-300, xs=(1e3, 1e4))
        plain = [multfun.m_sum(spec, x, 1, 1, exact=False).value for x in (1e3, 1e4)]
        assert list(rep.measured) == plain


class TestWeightLemma:
    def test_monomial_matches_power_sum_check(self):
        spec = multfun.builtin_spec("one_over_n")
        a = verify.check_weight_lemma(spec, [0.0, 0.0, 1.0], q=1, xs=(1e4, 1e5))
        b = verify.check_theorem1(spec, m=2, q=1, xs=(1e4, 1e5))
        lx = [np.log(x) for x in (1e4, 1e5)]
        for i in range(2):
            assert a.measured[i] == pytest.approx(b.measured[i] / lx[i] ** 2, rel=1e-12)
            assert a.predicted[i] == pytest.approx(b.predicted[i] / lx[i] ** 2, rel=1e-12)

    def test_general_polynomial(self):
        spec = multfun.builtin_spec("one_over_phi")
        rep = verify.check_weight_lemma(spec, [1.0, 2.0, 1.0], q=1, xs=SMALL_LADDER)
        assert rep.verdict
        assert rep.residuals[-1] < 0.5

    def test_one_truncation_for_all_powers(self, monkeypatch):
        orders = []
        taylor = multfun.euler_log_taylor

        def counted(spec, q, order):
            orders.append(order)
            return taylor(spec, q, order)

        monkeypatch.setattr(multfun, "euler_log_taylor", counted)
        spec = multfun.builtin_spec("one_over_n")
        rep = verify.check_weight_lemma(spec, [1.0, 1.0, 1.0], q=1, xs=(1e4, 1e5))
        assert orders == [3]
        assert rep.params["main_bound"] <= 1e-7

    def test_one_product_per_bench_check(self, monkeypatch):
        # theorem1, theorem2 and weight at m = 1, u = 2, coefficients 1, 1
        # on 1e4..1e6: one order-2 product each, certified near rounding,
        # with no prime table grown past what the sums at 1e6 need
        monkeypatch.setattr(primes, "_cached_table", None)
        orders = []
        taylor = multfun.euler_log_taylor
        monkeypatch.setattr(multfun, "euler_log_taylor",
                            lambda *args: orders.append(args[2]) or taylor(*args))
        spec = multfun.builtin_spec("one_over_n")
        xs = (1e4, 1e5, 1e6)
        reports = [
            verify.check_theorem1(spec, 1, 1, xs=xs, series_tol=1e-7),
            verify.check_theorem2(spec, 1, 1, u=2.0, xs=xs, series_tol=1e-7),
            verify.check_weight_lemma(spec, [1.0, 1.0], 1, xs=xs, series_tol=1e-7),
        ]
        assert orders == [2, 2, 2]
        assert all(rep.params["main_bound"] <= 1e-13 for rep in reports)
        assert all(rep.verdict for rep in reports)
        assert primes._cached_table.limit <= 1 << 20

    def test_needs_coeffs(self):
        spec = multfun.builtin_spec("one_over_n")
        with pytest.raises(RangeError):
            verify.check_weight_lemma(spec, [], q=1, xs=(1e3,))

    @pytest.mark.parametrize("coeffs", [[math.nan], [1.0, math.inf], [-math.inf, 1.0]])
    def test_rejects_non_finite_coeffs(self, coeffs):
        # a NaN weight would give NaN residuals
        spec = multfun.builtin_spec("one_over_n")
        with pytest.raises(RangeError):
            verify.check_weight_lemma(spec, coeffs, q=1, xs=(1e3,))


class TestMainTerm:
    def test_leading_coefficient_is_classical(self):
        for name, m in (("one_over_n", 1), ("two_omega_over_n", 0)):
            spec = multfun.builtin_spec(name)
            rep = verify.check_theorem1(spec, m=m, q=1, xs=(1e4,))
            k = spec.dimension_k
            lead = rep.params["series"] * math.factorial(m) / math.factorial(k + m)
            assert len(rep.params["main_coeffs"]) == k + m + 1
            assert rep.params["main_coeffs"][k + m] == pytest.approx(lead, rel=1e-12)

    def test_bound_within_tolerance(self):
        spec = multfun.builtin_spec("one_over_phi")
        rep = verify.check_theorem1(spec, m=1, q=6, xs=(1e4,), series_tol=1e-6)
        assert 0.0 < rep.params["main_bound"] <= 1e-6

    def test_full_main_term_closes_the_gap(self):
        # the leading term alone is about 25% off at 1e5
        spec = multfun.builtin_spec("one_over_n")
        plain = verify.check_theorem1(spec, m=1, q=1, xs=(1e5,))
        assert plain.residuals[0] < 1e-6
        smooth = verify.check_theorem2(spec, m=1, q=1, u=2.0, xs=(1e5,))
        assert smooth.residuals[0] < 1e-2

    def test_u1_prediction_equals_plain(self):
        spec = multfun.builtin_spec("one_over_n")
        smooth = verify.check_theorem2(spec, m=1, q=1, u=1.0, xs=(1e3,))
        plain = verify.check_theorem1(spec, m=1, q=1, xs=(1e3,))
        assert smooth.predicted == plain.predicted

    def test_vanishing_series_has_no_main_term(self):
        # 1 + g(2) = 0; past p = 2, g(p) = 1/p
        spec = multfun.MultFuncSpec("custom", 1, 0, 2, ((2, -2),))
        with pytest.raises(RangeError, match="the singular series vanishes"):
            verify.main_term(spec, 1, 1, (1e4,), 1e-6)

    def test_zero_series_tol_rejected(self):
        # the truncation step once divided by it
        spec = multfun.builtin_spec("one_over_n")
        with pytest.raises(RangeError, match="tol must be a positive finite number"):
            verify.check_theorem1(spec, m=1, q=1, xs=(1e4,), series_tol=0)

    def test_unreachable_tolerance_reports_bound(self):
        # a target below the rounding allowance of the untruncated product
        spec = multfun.builtin_spec("one_over_n")
        with pytest.raises(ToleranceError) as exc:
            verify.check_theorem1(spec, m=1, q=1, xs=(10.0,), series_tol=1e-17)
        assert 1e-17 < exc.value.achieved < 1e-12

    @pytest.mark.parametrize("check,k", [("theorem1", 40), ("weight", 40), ("theorem2", 200)])
    def test_stieltjes_cap_checked_before_any_work(self, monkeypatch, check, k):
        # k + m past the 32 tabulated constants once overflowed in the Euler
        # product at order k + m (k = 40) or in the f solves (k = 200)
        def refuse(*args):
            raise AssertionError("work done before the Stieltjes cap was checked")

        monkeypatch.setattr(multfun, "euler_log_taylor", refuse)
        monkeypatch.setattr(dde, "solve_f_exponent", refuse)
        spec = multfun.builtin_spec("k_over_p", k=k)
        calls = {
            "theorem1": lambda: verify.check_theorem1(spec, m=0, xs=(1e4,)),
            "weight": lambda: verify.check_weight_lemma(spec, [1.0, 1.0], xs=(1e4,)),
            "theorem2": lambda: verify.check_theorem2(spec, m=0, xs=(1e4,)),
        }
        with pytest.raises(RangeError, match="exceeds the 32 tabulated Stieltjes constants"):
            calls[check]()

    def test_series_tol_near_rounding(self):
        # the prime-cap schedule once stopped at 8.6e-9 here
        spec = multfun.builtin_spec("one_over_n")
        rep = verify.check_theorem1(spec, m=1, q=1, xs=(1e4,), series_tol=1e-13)
        assert rep.params["main_bound"] <= 1e-13


def _residue_oracle(mpmath, m, J):
    """m! Res_{s=0} zeta(1+s)/zeta(2+2s) e^(sL)/s^(m+1) as coefficients of L^l."""
    mpmath.mp.dps = 40

    def h(s):
        return (s * mpmath.zeta(1 + s) if s != 0 else mpmath.mpf(1)) / mpmath.zeta(2 + 2 * s)

    taylor = mpmath.taylor(h, 0, J)
    return [mpmath.factorial(m) / mpmath.factorial(l) * taylor[J - l] for l in range(J + 1)]


class TestResidueOracle:
    def test_stieltjes_constants(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 30
        for n, got in enumerate(verify.STIELTJES):
            assert got == pytest.approx(float(mpmath.stieltjes(n)), rel=2e-16, abs=0.0)

    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_one_over_n_matches_residue(self, m):
        # for g(n) = 1/n, F(s) = zeta(1+s) / zeta(2+2s)
        mpmath = pytest.importorskip("mpmath")
        spec = multfun.builtin_spec("one_over_n")
        main, bound = verify.main_term(spec, 1, m, (1e4,), 1e-6)
        want = _residue_oracle(mpmath, m, m + 1)
        assert bound <= 1e-6
        for got, err, exact in zip(main.coeffs, main.errors, want):
            assert abs(got - float(exact)) <= err
        lx = math.log(1e4)
        exact_value = float(sum(c * lx**j for j, c in enumerate(want)))
        assert main.value(lx) == pytest.approx(exact_value, rel=1e-6)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_exponent_zero_is_one_minus_k_log(self, k):
        sol = dde.solve_f_exponent(k, 0, 2.0)
        for u in np.linspace(1.0, 2.0, 11)[1:]:
            assert dde.eval_f(sol, u) == pytest.approx(1.0 - k * math.log(u), abs=1e-10)

    def test_exponent_solver_extends_solve_f(self):
        a = dde.solve_f(2, 1, 4.0)
        b = dde.solve_f_exponent(2, 3, 4.0)
        assert all(np.array_equal(x, y) for x, y in zip(a.coeffs, b.coeffs))
        assert (b.k, b.m) == (2, 1)
        with pytest.raises(RangeError):
            dde.solve_f_exponent(1, -1, 2.0)


BUILTINS = [
    multfun.builtin_spec("one_over_n"),
    multfun.builtin_spec("one_over_phi"),
    multfun.builtin_spec("two_omega_over_n"),
    multfun.builtin_spec("k_over_p", k=3),
    multfun.builtin_spec("nu_over_p", offsets=[0, 2, 6]),
    multfun.builtin_spec("nu_minus1_over_phi", offsets=[0, 4, 6]),
]


def _defect_loop(spec, x, m, q, z):
    """The recursion defect of one case on its own, its running totals
    taken in a Python loop: the reference for buchstab_defects."""
    x = float(x)
    lhs = multfun.m_sum_smooth(spec, x, m, q, z).value
    top = multfun.m_sum_smooth(spec, x, m, q, x).value
    ps, gs, _ = multfun.coprime_primes(spec, math.ceil(x) - 1, q)
    lo = int(ps.searchsorted(math.ceil(z)))
    ps, gs = ps[lo:], gs[lo:]
    scale, total = abs(lhs) + abs(top), top
    for gp, s in zip(gs.tolist(), multfun.m_sum_smooth_each(spec, x, m, q, ps)):
        term = gp * s
        total -= term
        scale += abs(term)
    return abs(lhs - total) / (scale + 1e-300)


class TestBuchstab:
    def test_exact_identity_small(self):
        spec = multfun.builtin_spec("one_over_n")
        assert verify.buchstab_defect(spec, 300.0, 1, 1, 7.0) < 1e-13

    def test_edge_z_equals_x(self):
        spec = multfun.builtin_spec("one_over_phi")
        assert verify.buchstab_defect(spec, 200.0, 0, 2, 200.0) < 1e-13

    def test_edge_z_two(self):
        spec = multfun.builtin_spec("two_omega_over_n")
        assert verify.buchstab_defect(spec, 150.0, 2, 1, 2.0) < 1e-13

    def test_invalid_z(self):
        spec = multfun.builtin_spec("one_over_n")
        with pytest.raises(RangeError):
            verify.buchstab_defect(spec, 100.0, 1, 1, 1.5)
        with pytest.raises(RangeError):
            verify.buchstab_defect(spec, 100.0, 1, 1, 101.0)

    def test_no_prime_between_z_and_x(self):
        spec = multfun.builtin_spec("k_over_p", k=3)
        assert verify.buchstab_defect(spec, 24.5, 2, 6, 23.5) == 0.0

    @pytest.mark.parametrize("q", [1, 6, 77])
    @pytest.mark.parametrize("spec", BUILTINS, ids=lambda spec: spec.name)
    def test_group_matches_the_case_loop(self, spec, q):
        # one group mixes integer and half-integer x, every m and z at 2,
        # inside (a prime, and not an integer) and at x
        cases = [(x, m, z) for x in (61.0, 97.5, 1201.0, 2500.5) for m in range(4)
                 for z in (2.0, 23.0, x / 3 + 0.25, x)]
        got = [d.hex() for d in verify.buchstab_defects(spec, q, cases)]
        assert got == [_defect_loop(spec, x, m, q, z).hex() for x, m, z in cases]
        assert got == [verify.buchstab_defect(spec, x, m, q, z).hex() for x, m, z in cases]

    def test_suite_matches_the_case_loop(self):
        cases = verify.buchstab_suite(seed=20240817, cases=500)
        # the first three cases of this seed's stream, in the order drawn
        assert [(c.spec_name, c.x, c.m, c.q, c.z) for c in cases[:3]] == [
            ("one_over_n", 2856.5, 2, 30, 2856.5),
            ("one_over_phi", 1159.0, 0, 77, 876.943458093678),
            ("two_omega_over_n", 830.5, 0, 1, 421.52516945509535),
        ]
        by_name = {spec.name: spec for spec in BUILTINS}
        want = [_defect_loop(by_name[c.spec_name], c.x, c.m, c.q, c.z).hex() for c in cases]
        assert [c.defect.hex() for c in cases] == want

    def test_suite_makes_one_m_sums_call_per_group(self, monkeypatch):
        calls = []
        m_sums = multfun.m_sums

        def counted(spec, q, queries):
            calls.append((spec.name, q))
            return m_sums(spec, q, queries)

        monkeypatch.setattr(multfun, "m_sums", counted)
        cases = verify.buchstab_suite(seed=20240817, cases=500)
        assert sorted(calls) == sorted({(c.spec_name, c.q) for c in cases})
        assert len(calls) <= 36

    def test_suite_deterministic_and_tight(self):
        a = verify.buchstab_suite(seed=99, cases=12)
        b = verify.buchstab_suite(seed=99, cases=12)
        assert [c.defect for c in a] == [c.defect for c in b]
        assert max(c.defect for c in a) < 1e-10
        names = {c.spec_name for c in a}
        assert len(names) >= 5


class TestFloatSumsOnly:
    """The checks read only .value, so no m = 0 sum takes the exact path."""

    @pytest.fixture(autouse=True)
    def no_exact_sums(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("exact m = 0 sum computed")

        monkeypatch.setattr(_dfs, "msum_exact_m0", refuse)

    def test_buchstab_defect(self):
        spec = multfun.builtin_spec("one_over_n")
        assert verify.buchstab_defect(spec, 1e5, 0, 1, 9e4) < 1e-12

    def test_weight_lemma(self):
        spec = multfun.builtin_spec("one_over_n")
        rep = verify.check_weight_lemma(spec, [1.0, 1.0], q=1, xs=(1e4, 1e5))
        assert all(math.isfinite(v) for v in rep.measured)
