"""Tests for the delay-equation solver."""

import math

import numpy as np
import pytest

from sievesum import dde, iterints, quadchev
from sievesum.errors import RangeError, ToleranceError

import oracles

ACCEPTANCE_PAIRS = [(1, 1), (1, 2), (-1, 2), (2, 3), (-2, 4)]


def scaled_residual(sol, u):
    """Defect of the differential form, normalized by both sides."""
    k, km = sol.k, sol.k + sol.m
    fp = dde.eval_f_deriv(sol, u)
    fprev = dde.eval_f(sol, u - 1.0)
    lhs = u ** (km + 1) * fp
    rhs = -k * (u - 1.0) ** km * fprev
    scale = abs(u ** (km + 1)) * (1 + abs(fp)) + abs(k) * (u - 1.0) ** km * (1 + abs(fprev))
    return abs(lhs - rhs) / scale


class TestClosedForms:
    def test_k1_m1_at_2(self):
        sol = dde.solve_f(1, 1, 2.0)
        assert abs(dde.eval_f(sol, 2.0) - (1.625 - math.log(2))) < 1e-12

    def test_km1_m2_at_2(self):
        sol = dde.solve_f(-1, 2, 2.0)
        assert abs(dde.eval_f(sol, 2.0) - (math.log(2) + 0.5)) < 1e-12

    def test_k1_m1_at_1_5(self):
        sol = dde.solve_f(1, 1, 2.0)
        assert abs(dde.eval_f(sol, 1.5) - 0.9834237807807245) < 1e-12

    @pytest.mark.parametrize("k,m", ACCEPTANCE_PAIRS)
    def test_whole_second_panel(self, k, m):
        sol = dde.solve_f(k, m, 3.0)
        for u in np.linspace(1.0, 2.0, 23):
            assert abs(dde.eval_f(sol, u) - oracles.f_closed_panel2(k, m, u)) < 1e-10

    def test_unit_interval_is_one(self):
        sol = dde.solve_f(3, 5, 4.0)
        for u in [0.0, 0.3, 0.7, 1.0]:
            assert dde.eval_f(sol, u) == 1.0


class TestResidual:
    @pytest.mark.parametrize("k,m", ACCEPTANCE_PAIRS)
    def test_random_points_every_panel(self, k, m):
        sol = dde.solve_f(k, m, 5.0, tol=1e-8)
        rng = np.random.default_rng(2024 + 10 * k + m)
        for r in range(1, 5):
            u = r + rng.random(100)
            worst = max(scaled_residual(sol, float(x)) for x in u)
            assert worst < 1e-8

    def test_reported_residual_is_small(self):
        sol = dde.solve_f(2, 3, 5.0, tol=1e-8)
        assert sol.residual < 1e-10

    def test_no_panel_reports_zero(self):
        assert dde.solve_f(3, 4, 1.0).residual == 0.0
        assert dde.solve_f_log(2, 5, 1.0).residual == 0.0


class TestResidualSamples:
    """The residual reads its samples through _panel_rows products; they
    agree with the Clenshaw evaluations to a few ulps."""

    ULPS = 8 * np.finfo(float).eps

    @staticmethod
    def _deriv(sol, u):
        """eval_f_deriv at the samples inside [0, U], NaN past it."""
        d = np.array([dde.eval_f_deriv(sol, x) if x <= sol.U else np.nan for x in u.ravel()])
        return d.reshape(u.shape)

    def test_float_solution(self):
        sol = dde.solve_f(3, 4, 6.5)
        u, y, dy, y_prev = dde._residual_samples(sol.coeffs, False)
        assert u.shape == (6, dde.RESIDUAL_SAMPLES)  # the last panel runs past U to 7
        inside = u <= sol.U
        f = dde.eval_f_many(sol, u[inside])
        assert np.max(np.abs(y[inside] - f) / f) <= self.ULPS
        f_prev = dde.eval_f_many(sol, u - 1.0)
        assert np.max(np.abs(y_prev - f_prev) / f_prev) <= self.ULPS
        top = np.max(np.abs(dy), axis=1, keepdims=True)  # f' nears 0 inside a panel
        assert np.nanmax(np.abs(dy - self._deriv(sol, u)) / top) <= self.ULPS

    def test_log_solution(self):
        sol = dde.solve_f_log(200, 230, 6.5)
        u, d, dd, d_prev = dde._residual_samples(sol.coeffs, True)
        ends = np.insert(np.asarray(sol.logs), 0, 0.0)[:, None]  # log f(r), as _residual reads
        inside = u <= sol.U
        lf = (ends[1:] + np.log1p(d))[inside]
        got = dde.eval_log_f_many(sol, u[inside])
        assert np.max(np.abs(lf - got) / np.maximum(1.0, np.abs(got))) <= self.ULPS
        lf_prev = ends[:-1] + np.log1p(d_prev)
        got = dde.eval_log_f_many(sol, u - 1.0)
        assert np.max(np.abs(lf_prev - got) / np.maximum(1.0, np.abs(got))) <= self.ULPS
        # d' from eval_f_deriv on the same coefficients read as a plain solution
        plain = dde.PanelSolution(sol.k, sol.m, sol.U, sol.tol, sol.degree, sol.coeffs, 0.0)
        top = np.max(np.abs(dd), axis=1, keepdims=True)
        assert np.nanmax(np.abs(dd - self._deriv(plain, u)) / top) <= self.ULPS


class TestShape:
    def test_continuity_at_knots(self):
        sol = dde.solve_f(1, 2, 5.0)
        for knot in [2.0, 3.0, 4.0]:
            lo = dde.eval_f(sol, knot - 1e-13)
            hi = dde.eval_f(sol, knot + 1e-13)
            assert abs(lo - hi) < 1e-10

    def test_positive_k_decreases(self):
        sol = dde.solve_f(2, 3, 5.0)
        u = np.linspace(1.0, 5.0, 200)
        v = dde.eval_f_many(sol, u)
        assert np.all(np.diff(v) <= 1e-14)
        assert np.all(v > 0)

    def test_negative_k_increases(self):
        sol = dde.solve_f(-2, 4, 5.0)
        u = np.linspace(1.0, 5.0, 200)
        v = dde.eval_f_many(sol, u)
        assert np.all(np.diff(v) >= -1e-14)
        assert v[0] == 1.0

    def test_vector_matches_scalar(self):
        sol = dde.solve_f(-1, 3, 4.0)
        u = np.array([0.0, 0.5, 1.0, 1.7, 2.4, 3.9])
        v = dde.eval_f_many(sol, u)
        for ui, vi in zip(u, v):
            assert dde.eval_f(sol, ui) == vi

    def test_derivative_satisfies_equation(self):
        sol = dde.solve_f(1, 2, 4.0)
        for u in [1.25, 2.5, 3.75]:
            lhs = u ** 4 * dde.eval_f_deriv(sol, u)
            rhs = -1 * (u - 1) ** 3 * dde.eval_f(sol, u - 1)
            assert abs(lhs - rhs) < 1e-9 * (1 + abs(rhs))


class TestValidation:
    def test_rejects_bad_m(self):
        with pytest.raises(RangeError):
            dde.solve_f(1, -1, 3.0)
        with pytest.raises(RangeError):
            dde.solve_f(-2, 2, 3.0)
        # m = 0 is inside the contract as long as k + m >= 1
        assert dde.eval_f(dde.solve_f(1, 0, 3.0), 1.0) == 1.0

    def test_rejects_small_U(self):
        with pytest.raises(RangeError):
            dde.solve_f(1, 1, 0.5)

    @pytest.mark.parametrize("U", [math.inf, math.nan])
    def test_rejects_unbounded_U(self, U):
        # ceil(inf) has no panel count
        with pytest.raises(RangeError):
            dde.solve_f(1, 1, U)
        with pytest.raises(RangeError):
            dde.solve_f_log(1, 2, U)

    @pytest.mark.parametrize("U", [dde.MAX_PANELS + 2.0, 1e300])
    def test_rejects_U_past_the_panel_cap(self, U):
        # a huge finite U would march f one unit panel at a time toward it
        with pytest.raises(RangeError):
            dde.solve_f(1, 1, U)
        with pytest.raises(RangeError):
            dde.solve_f_log(1, 2, U)
        with pytest.raises(RangeError):
            dde.solve_f_exponent(1, 0, U)

    def test_one_panel_cap_for_f_and_the_tables(self):
        assert iterints.MAX_PANELS == dde.MAX_PANELS

    @pytest.mark.parametrize("tol", [math.nan, 0.0, -1e-8, math.inf])
    def test_rejects_bad_tol(self, tol):
        # a NaN gate would pass every residual
        with pytest.raises(RangeError):
            dde.solve_f(1, 1, 3.0, tol=tol)

    def test_eval_out_of_range(self):
        sol = dde.solve_f(1, 1, 3.0)
        with pytest.raises(RangeError):
            dde.eval_f(sol, 3.5)
        with pytest.raises(RangeError):
            dde.eval_f(sol, -0.1)

    def test_unreachable_tol_reports_achieved(self, monkeypatch):
        monkeypatch.setattr(dde, "DEGREE", 6)
        with pytest.raises(ToleranceError) as exc:
            dde.solve_f(1, 1, 5.0, tol=1e-15)
        assert exc.value.achieved is not None
        assert exc.value.achieved > 1e-15


class TestLogSolver:
    @pytest.mark.parametrize("s,m", [(1, 2), (2, 4), (3, 5)])
    def test_matches_float_solver(self, s, m):
        lsol = dde.solve_f_log(s, m, 5.0)
        fsol = dde.solve_f(-s, m, 5.0)
        u = np.linspace(0.5, 5.0, 40)
        got = np.exp(dde.eval_log_f_many(lsol, u))
        want = dde.eval_f_many(fsol, u)
        assert np.max(np.abs(got - want) / want) < 1e-10

    def test_huge_s_stays_finite(self):
        lsol = dde.solve_f_log(500, 700, 3.0)
        lf = dde.eval_log_f_many(lsol, [2.5])[0]
        assert np.isfinite(lf)
        assert lf > 0

    @pytest.mark.parametrize("s,m,U", [(1, 2, 9.5), (61, 62, 30.0), (1000, 1001, 9.5)])
    def test_residual_reads_as_the_float_gate(self, s, m, U):
        # the same measure divided by f(u); with m - s = 1 and large s the
        # log of f is far from a low-degree polynomial near u = 1, which
        # the stored d = f / f(r) - 1 does not mind
        lsol = dde.solve_f_log(s, m, U, tol=1e-10)
        fsol = dde.solve_f(-s, m, U, tol=1e-10)
        assert lsol.residual <= 3.0 * fsol.residual
        u = np.linspace(0.5, U, 301)
        lf = dde.eval_log_f_many(lsol, u)
        assert np.max(np.abs(lf - np.log(dde.eval_f_many(fsol, u)))) < 1e-12 * max(1.0, lf[-1])

    def test_gate_raises_with_the_achieved_residual(self):
        with pytest.raises(ToleranceError) as exc:
            dde.solve_f_log(2, 4, 5.0, tol=1e-18)
        assert 1e-18 < exc.value.achieved < 1e-10

    def test_nan_residual_fails_the_gate(self, monkeypatch):
        # a NaN panel anywhere must not drop out of the maximum
        march = dde._march

        def poisoned(*args, **kwargs):
            coeffs, logs = march(*args, **kwargs)
            return coeffs[:-1] + (np.full_like(coeffs[-1], np.nan),), logs

        monkeypatch.setattr(dde, "_march", poisoned)
        for solve in (lambda: dde.solve_f(1, 1, 5.0), lambda: dde.solve_f_log(1, 2, 5.0)):
            with pytest.raises(ToleranceError) as exc:
                solve()
            assert math.isnan(exc.value.achieved)

    def test_rejects_bad_orders(self):
        with pytest.raises(RangeError):
            dde.solve_f_log(0, 3, 2.0)
        with pytest.raises(RangeError):
            dde.solve_f_log(3, 3, 2.0)

    def test_each_evaluation_reads_its_own_kind(self):
        # one PanelSolution type: a solve_f_log panel holds f / f(r) - 1, not f
        lsol, fsol = dde.solve_f_log(2, 4, 5.0), dde.solve_f(-2, 4, 5.0)
        for call in (lambda: dde.eval_f_many(lsol, [3.0]), lambda: dde.eval_f_deriv(lsol, 3.0),
                     lambda: dde.eval_log_f_many(fsol, [3.0])):
            with pytest.raises(ValueError, match="solve_f_log"):
                call()
        # with no panel (U = 1) the two kinds coincide: f = 1
        assert dde.eval_log_f_many(dde.solve_f(-2, 4, 1.0), [0.5])[0] == 0.0


def per_panel_eval(coeffs, u, fill):
    """_eval_panels' reference: one quadchev.cheb_eval call per panel."""
    u = np.asarray(u, dtype=float)
    out = np.full_like(u, fill)
    for i in np.ndindex(u.shape):
        if u[i] > 1.0:
            r = min(math.ceil(u[i]) - 2, len(coeffs) - 1)
            out[i] = quadchev.cheb_eval(coeffs[r], float(r + 1), float(r + 2), u[i])
    return out


class TestEvalPanels:
    """The one Clenshaw pass against per-panel chebval, bit for bit."""

    SOLUTIONS = {
        "f": lambda: dde.solve_f(3, 4, 6.5),
        "f_negative_k": lambda: dde.solve_f(-2, 5, 5.0),
        "log_f": lambda: dde.solve_f_log(200, 230, 6.5),
    }

    @pytest.fixture(params=sorted(SOLUTIONS))
    def sol_fill(self, request):
        sol = self.SOLUTIONS[request.param]()
        return sol, (0.0 if sol.logs else 1.0)

    def test_random_points_across_chunks(self, sol_fill):
        sol, fill = sol_fill
        u = np.random.default_rng(3).uniform(0.0, sol.U, 3 * dde.EVAL_CHUNK + 5)
        got = dde._eval_panels(sol.coeffs, u, fill)
        assert got.tobytes() == per_panel_eval(sol.coeffs, u, fill).tobytes()

    def test_integers_and_past_the_last_panel(self, sol_fill):
        sol, fill = sol_fill
        u = np.concatenate([np.arange(0.0, 10.0), [0.5, 1.0, sol.U + 0.25, sol.U + 3.0]])
        got = dde._eval_panels(sol.coeffs, u, fill)
        assert got.tobytes() == per_panel_eval(sol.coeffs, u, fill).tobytes()
        assert np.all(got[u <= 1.0] == fill)

    def test_empty_input(self, sol_fill):
        sol, fill = sol_fill
        got = dde._eval_panels(sol.coeffs, np.array([]), fill)
        assert got.shape == (0,)

    def test_two_dimensional_march_points(self, sol_fill):
        # the points v - 1.0 that dde._march reads, one row per node; the
        # march itself reads them through dde._read_rows (TestMarchReads)
        sol, fill = sol_fill
        glx, _ = quadchev.gauss_legendre(dde.QUAD_NODES)
        a = 4.0
        nodes = quadchev.cheb_lobatto(a, a + 1.0, dde.DEGREE + 1)[1:]
        half = 0.5 * (nodes - a)
        v = (0.5 * (a + nodes))[:, None] + half[:, None] * glx[None, :]
        got = dde._eval_panels(sol.coeffs, v - 1.0, fill)
        assert got.shape == v.shape
        assert got.tobytes() == per_panel_eval(sol.coeffs, v - 1.0, fill).tobytes()


class TestMarchReads:
    """dde._march reads the previous panel through one Chebyshev-Vandermonde
    matrix, in place of _eval_panels at the points v - 1."""

    @pytest.mark.parametrize("make", [lambda: dde.solve_f(3, 4, 6.5),
                                      lambda: dde.solve_f_log(200, 230, 6.5)])
    def test_every_panel_agrees_with_eval_panels(self, make):
        sol = make()
        fill = 0.0 if sol.logs else 1.0
        glx, _ = quadchev.gauss_legendre(dde.QUAD_NODES)
        rows = dde._read_rows()
        x = rows[:, 1]  # T_1(x) = x: the local coordinates of the reads
        eps = np.finfo(float).eps
        for r in range(2, len(sol.coeffs) + 2):  # panel r reads coeffs[r - 2]
            a = float(r)
            nodes = quadchev.cheb_lobatto(a, a + 1.0, dde.DEGREE + 1)[1:]
            half = 0.5 * (nodes - a)
            v = (0.5 * (a + nodes))[:, None] + half[:, None] * glx[None, :]
            got = rows @ sol.coeffs[r - 2]
            want = dde._eval_panels(sol.coeffs, v - 1.0, fill).ravel()
            scale = np.max(np.abs(want))
            # at the same local coordinates the two sums agree to a few ulps;
            # the points v - 1 carry the rounding of v at r, which the steep
            # d = f / f(r) - 1 of f(.; -200, 230) turns into up to 21 ulps
            same = quadchev.cheb_eval(sol.coeffs[r - 2], -1.0, 1.0, x)
            assert np.max(np.abs(got - same)) <= 4 * eps * scale, r
            assert np.max(np.abs(got - want)) <= 32 * eps * scale, r

    def test_log_f_panels_agree_with_eval_log_f_many(self):
        # the base row's shared points: fixed local coordinates on each unit panel
        sol = dde.solve_f_log(200, 230, 6.5)
        x = np.linspace(-0.99, 0.99, 7)
        got = dde.log_f_panels(sol, x, 6)
        assert got.shape == (6, 7) and np.all(got[0] == 0.0)
        want = dde.eval_log_f_many(sol, (np.arange(6.0)[:, None] + 0.5 * (1.0 + x)).ravel())
        assert np.max(np.abs(got.ravel() - want)) <= 1e-13 * np.max(np.abs(want))
        with pytest.raises(RangeError):  # (6, 7] reaches past U = 6.5
            dde.log_f_panels(sol, x, 7)


class TestLobattoCoeffs:
    def test_cached_matrix_gives_the_uncached_bits(self):
        # the DCT-I matrix is cached per n; each call must give the bits of
        # the formula that builds it anew
        rng = np.random.default_rng(4)
        for n in (9, 17, dde.DEGREE + 1):
            N = n - 1
            for _ in range(3):
                v = rng.standard_normal(n)
                j = np.arange(n)
                scale = np.ones(n)
                scale[0] = scale[-1] = 0.5
                want = (2.0 / N) * (np.cos(np.pi * np.outer(j, j) / N) @ (v[::-1] * scale))
                want[0] *= 0.5
                want[-1] *= 0.5
                assert quadchev.lobatto_to_cheb_coeffs(v).tobytes() == want.tobytes()
