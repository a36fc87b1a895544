"""Panelwise Chebyshev solver for the delay equation

    u^(k+m+1) f'(u) = -k (u-1)^(k+m) f(u-1),    f(u) = 1 on (0, 1],

marched one unit panel at a time, from (0, 1] as panel 0, through the
integral form f(u) = f(r) - k * integral_r^u f(v-1) (v-1)^(k+m) v^(-k-m-1) dv.
Since k and m are integers the integrand is analytic on each open panel,
so a fixed-degree Chebyshev representation converges spectrally.

One march serves two representations: f itself (solve_f), and, for
k = -s < 0, f scaled panel by panel (solve_f_log): panel r holds
d = f / f(r) - 1, which lies in [0, f(r+1)/f(r) - 1], beside log f(r), so
f may overflow any float while log f = log f(r) + log1p(d) keeps the
relative accuracy of float f, down to increments far below an ulp of f.
Both solutions pass one residual gate on the differential form.

Points that sit at the same local coordinates of every panel are read
through one Chebyshev-Vandermonde matrix (_panel_rows) times each panel's
coefficients: the march's reads of the previous panel, the residual's
samples, and the base quadrature points of iterints (log_f_panels).
Scattered points go through _eval_panels, one Clenshaw pass.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import quadchev
from .errors import RangeError, ToleranceError, check_int, check_tol

DEGREE = 32
MAX_PANELS = 2048  # unit panels a solution may span, so U <= MAX_PANELS + 1
QUAD_NODES = 64
RESIDUAL_SAMPLES = 16
EVAL_CHUNK = 2048  # points per Clenshaw pass of _eval_panels


@dataclass(frozen=True)
class PanelSolution:
    """Piecewise-Chebyshev representation of f(.; k, m) on (0, U].

    Without logs, coeffs[r-1] holds f on the panel (r, r+1].  From
    solve_f_log, coeffs[r-1] holds d = f / f(r) - 1 and logs[r-1] = log f(r),
    so log f stays moderate where f overflows.
    """

    k: int
    m: int
    U: float
    tol: float
    degree: int
    coeffs: tuple
    residual: float
    logs: tuple = ()


def _march(k, km, U, log):
    """Chebyshev coefficients of f per panel (r, r+1], or with log=True of
    d = f / f(r) - 1 together with the tuple of log f(r).

    The DEGREE+1 Lobatto values of a panel come from its left end and one
    QUAD_NODES-point Gauss-Legendre rule on [r, v] per node v, which adds
    -k times the integral; in d the integrand's f(v-1) is divided by f(r).
    Panel r reads panel r - 1 at v - 1, at the same local coordinates for
    every r, so the reads are one product of _read_rows() with the
    previous panel's coefficients; panel 0, (0, 1], is the constant f = 1
    (d = 0, log f = 0), read like any other and not returned.
    """
    if not (1.0 <= U <= MAX_PANELS + 1):
        raise RangeError(f"U must lie in [1, {MAX_PANELS + 1}], got {U}")
    glx, glw = quadchev.gauss_legendre(QUAD_NODES)
    reads = _read_rows()
    left = 0.0 if log else 1.0  # f(r), or in d the previous panel's d(r)
    coeffs, logs = [np.r_[left, np.zeros(DEGREE)]], [0.0]  # panel 0, (0, 1]: f = 1, or d = 0
    for r in range(1, int(math.ceil(U))):
        a = float(r)
        # the first node's integral has zero width; the others go at once
        nodes = quadchev.cheb_lobatto(a, a + 1.0, DEGREE + 1)[1:]
        half = 0.5 * (nodes - a)
        v = (0.5 * (a + nodes))[:, None] + half[:, None] * glx[None, :]
        w = half[:, None] * glw[None, :]
        vals = np.empty(DEGREE + 1)
        read = (reads @ coeffs[-1]).reshape(v.shape)  # f(v-1), or d(v-1)
        if log:  # d(r) = 0; the previous panel gives f(v-1) / f(r-1) = 1 + d
            logs.append(logs[-1] + math.log1p(left))
            prev = (1.0 + read) / (1.0 + left)
            vals[0] = left = 0.0
        else:
            prev = read
            vals[0] = left
        g = prev * np.exp(km * np.log(v - 1.0) - (km + 1) * np.log(v))
        vals[1:] = left - k * np.sum(w * g, axis=1)
        coeffs.append(quadchev.lobatto_to_cheb_coeffs(vals))
        left = float(vals[-1])
    return tuple(coeffs[1:]), tuple(logs[1:])


def _panel_rows(x):
    """The (len(x), DEGREE + 1) Chebyshev-Vandermonde matrix at local
    coordinates x of [-1, 1]: its product with a panel's coefficients is
    that panel's values at x, to a few ulps of _eval_panels there."""
    return np.polynomial.chebyshev.chebvander(np.asarray(x, dtype=float), DEGREE)


def _read_rows():
    """_panel_rows of the march's reads, row i * QUAD_NODES + g for Lobatto
    node i + 1 and Gauss-Legendre node g: panel r's node v reads panel
    r - 1 at v - 1, whose local coordinate does not depend on r.  Built
    per march, not kept: held for the process, its half megabyte would
    add to the peak of every later step."""
    glx, _ = quadchev.gauss_legendre(QUAD_NODES)
    lengths = quadchev.cheb_lobatto(0.0, 1.0, DEGREE + 1)[1:]  # node - r, as in _march
    return _panel_rows((lengths[:, None] * (1.0 + glx) - 1.0).ravel())


def _residual_samples(coeffs, log):
    """(u, y, y', y(u-1)) at RESIDUAL_SAMPLES interior points of each panel,
    row r - 1 on (r, r+1], y = f (or d, given log): one _panel_rows product
    each, as the points sit at the same local coordinates of every panel,
    and y(u-1) is the previous row (f = 1 and d = 0 on (0, 1])."""
    x = quadchev.cheb_lobatto(0.0, 1.0, RESIDUAL_SAMPLES + 2)[1:-1]
    rows = _panel_rows(2.0 * x - 1.0)
    C = np.array(coeffs).reshape(-1, DEGREE + 1)
    y = C @ rows.T
    dy = np.polynomial.chebyshev.chebder(C, scl=2.0, axis=1) @ rows[:, :-1].T
    u = np.arange(1.0, len(coeffs) + 1.0)[:, None] + x
    return u, y, dy, np.insert(y, 0, 0.0 if log else 1.0, axis=0)[:-1]


def _residual(coeffs, k, km, logs):
    """Largest scaled defect of u^(km+1) f'(u) = -k (u-1)^km f(u-1) at
    the _residual_samples of every panel; NaN if any defect is.

    Both sides are divided by u^(km+1), so the right one is c f(u-1) with
    c = -k ((u-1)/u)^km / u, and the defect is normalized by
    1 + |f'| + |c| (1 + |f(u-1)|).  Given logs, coeffs hold d = f / f(r) - 1
    and the same measure is divided through by f(u).
    """
    u, y, dy, y_prev = _residual_samples(coeffs, bool(logs))
    c = -k * ((u - 1.0) / u) ** km / u
    if not logs:
        a, b, g = dy, c * y_prev, 1.0
    else:
        ends = np.insert(np.asarray(logs), 0, 0.0)[:, None]  # 0 on (0, 1], then log f(r)
        lf = ends[1:] + np.log1p(y)
        a = dy / (1.0 + y)
        b = c * np.exp(ends[:-1] + np.log1p(y_prev) - lf)
        g = np.exp(-lf)
    defect = np.abs(a - b) / (g * (1.0 + np.abs(c)) + np.abs(a) + np.abs(b))
    return float(np.max(defect, initial=0.0))


def solve_f(k, m, U, tol=1e-8):
    """Solve for f(u; k, m) on (0, U].

    Parameters
    ----------
    k : integer, either sign
    m : integer >= max(0, 1 - k), so the exponent k+m >= 1
    U : coverage bound in [1, MAX_PANELS + 1]; panels are built through ceil(U)
    tol : scaled residual gate per panel (see PanelSolution.residual)

    The residual gate is relative: the defect of the differential form is
    normalized by the magnitude of its two sides, which keeps the gate
    meaningful when u^(k+m+1) is huge.
    """
    k = check_int("k", k)
    m = check_int("m", m, max(0, 1 - k))
    return solve_f_exponent(k, k + m, U, tol)


def solve_f_exponent(k, e, U, tol=1e-8):
    """Solve u^(e+1) f'(u) = -k (u-1)^e f(u-1), f = 1 on (0, 1], on (0, U].

    This is f(u; k, e-k) for any integer exponent e >= 0, including the
    exponents below k that solve_f rejects; the lower-order terms of the
    smoothed main term need them.  The returned solution records m = e-k.
    """
    k = check_int("k", k)
    km = check_int("e", e, 0)
    check_tol(tol)
    coeffs, _ = _march(k, km, U, log=False)
    worst = _residual(coeffs, k, km, ())
    _gate(f"f(u;{k},{km - k})", worst, tol)
    return PanelSolution(k, km - k, float(U), tol, DEGREE, coeffs, worst)


def _gate(name, worst, tol):
    if not worst <= tol:  # a NaN residual fails too
        raise ToleranceError(
            f"{name}: residual {worst:.3e} exceeds tol {tol:.1e} at degree {DEGREE}",
            achieved=worst,
        )


def _eval_panels(coeffs, u, fill):
    """The piecewise-Chebyshev function with coefficients coeffs[r] on the
    panel [r+1, r+2] (the last panel extended to the right), at every u of
    an array of any shape; fill on u <= 1.  One Clenshaw pass with numpy
    chebval's steps, EVAL_CHUNK points at a time on coefficients gathered
    from the transposed table, so each step reads a contiguous row and
    every value is bit-identical to quadchev.cheb_eval on its panel."""
    out = np.full_like(u, fill)
    inside = u > 1.0
    if coeffs and np.any(inside):
        ui = u[inside]
        idx = np.minimum(np.ceil(ui).astype(int) - 2, len(coeffs) - 1)
        x = 2.0 * ui - (2.0 * idx + 3.0)  # (2u - (a + b)) / (b - a) on [a, b] = [r+1, r+2]
        first = idx.min()  # the table holds only the panels the points use
        table = np.array(coeffs[first : idx.max() + 1]).T  # row j: coefficient j per panel
        for lo in range(0, ui.shape[0], EVAL_CHUNK):
            c = np.take(table, idx[lo : lo + EVAL_CHUNK] - first, axis=1)
            xc = x[lo : lo + EVAL_CHUNK]
            x2 = 2 * xc
            c0, c1 = c[-2], c[-1]
            for row in c[-3::-1]:  # c0, c1 = row - c1, c0 + c1 * x2, in place
                row -= c1
                c1 *= x2
                c1 += c0
                c0 = row
            ui[lo : lo + EVAL_CHUNK] = c0 + c1 * xc  # ui, a copy, takes the values
        out[inside] = ui
    return out


def _covered(sol, u, log=False):
    """u as a float array, once checked against [0, U]; log says whether the
    caller reads a solve_f_log solution, whose logs cover every panel."""
    if len(sol.logs) != (len(sol.coeffs) if log else 0):
        raise ValueError("eval_log_f_many takes solve_f_log solutions, f's evaluations the others")
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if np.any(u < 0.0):
        raise RangeError("f is defined for u >= 0 only")
    if np.any(u > sol.U * (1.0 + 1e-12)):
        raise RangeError(f"u beyond coverage bound {sol.U}")
    return u


def eval_f_many(sol, u):
    """Vectorized f evaluation; accepts 0 <= u <= U."""
    return _eval_panels(sol.coeffs, _covered(sol, u), 1.0)


def eval_f(sol, u):
    """f(u; k, m); u = 0 is allowed and continues the constant initial panel."""
    return float(eval_f_many(sol, [u])[0])


def eval_f_deriv(sol, u):
    """f'(u) from the panel representation (0 on the constant panel), by
    _eval_panels on the derivative of the one panel that holds u."""
    u = _covered(sol, [u])
    if u[0] <= 1.0:
        return 0.0
    r = min(int(math.ceil(u[0])) - 2, len(sol.coeffs) - 1)
    d = np.polynomial.chebyshev.chebder(sol.coeffs[r], scl=2.0)
    return float(_eval_panels(sol.coeffs[:r] + (d,), u, 0.0)[0])


def solve_f_log(s, m, U, tol=1e-8):
    """Solve f(u; -s, m) for log f; the residual gate is solve_f's, divided by f(u)."""
    s = check_int("s", s, 1)
    m = check_int("m", m, s + 1)
    check_tol(tol)
    coeffs, logs = _march(-s, m - s, U, log=True)
    worst = _residual(coeffs, -s, m - s, logs)
    _gate(f"log f(u;{-s},{m})", worst, tol)
    return PanelSolution(-s, m, float(U), tol, DEGREE, coeffs, worst, logs)


def eval_log_f_many(sol, u):
    """Vectorized log f(u; -s, m) = log f(r) + log1p(d) of a solve_f_log
    solution; zero on (0, 1]."""
    u = _covered(sol, u, log=True)
    ends = np.asarray((0.0, *sol.logs))
    d = _eval_panels(sol.coeffs, u, 0.0)
    return ends[np.clip(np.ceil(u).astype(int) - 1, 0, len(sol.logs))] + np.log1p(d)


def log_f_panels(sol, x, n):
    """log f of a solve_f_log solution at the local coordinates x of [-1, 1]
    on the unit panels (j, j+1], j = 0 .. n - 1: row j, zero on j = 0
    where f = 1.  One _panel_rows(x) product per panel."""
    if n > sol.U:
        raise RangeError(f"{n} unit panels go beyond coverage bound {sol.U}")
    rows = _panel_rows(x)
    out = np.zeros((n, rows.shape[0]))
    for j in range(1, n):
        out[j] = sol.logs[j - 1] + np.log1p(rows @ sol.coeffs[j - 1])
    return out
