"""Panelwise Chebyshev solver for the delay equation

    u^(k+m+1) f'(u) = -k (u-1)^(k+m) f(u-1),    f(u) = 1 on (0, 1],

marched one unit panel at a time through the equivalent integral form
f(u) = f(r) - k * integral_r^u f(v-1) (v-1)^(k+m) v^(-k-m-1) dv.
Since k and m are integers the integrand is analytic on each open panel,
so a fixed-degree Chebyshev representation converges spectrally.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import quadchev
from .errors import RangeError, ToleranceError

DEGREE = 32
QUAD_NODES = 64
RESIDUAL_SAMPLES = 16


@dataclass(frozen=True)
class PanelSolution:
    """Piecewise-Chebyshev representation of f(.; k, m) on (0, U]."""

    k: int
    m: int
    U: float
    tol: float
    degree: int
    coeffs: tuple  # coeffs[r-1] covers the panel (r, r+1]
    residual: float


def _prev_eval(coeffs, r, v):
    """f on [r-1, r] given the already-built panels (vectorized)."""
    v = np.asarray(v, dtype=float)
    if r == 1:
        return np.ones_like(v)
    return quadchev.cheb_eval(coeffs[r - 2], float(r - 1), float(r), v)


def _integrand(coeffs, r, km, v):
    # f(v-1) * (v-1)^km * v^(-km-1), powers in log space for large km
    fv = _prev_eval(coeffs, r, v - 1.0)
    return fv * np.exp(km * np.log(v - 1.0) - (km + 1) * np.log(v))


def solve_f(k, m, U, tol=1e-8, degree=DEGREE, quad_nodes=QUAD_NODES):
    """Solve for f(u; k, m) on (0, U].

    Parameters
    ----------
    k : integer, either sign
    m : positive integer with m > max(0, -k), so the exponent k+m >= 1
    U : coverage bound, >= 1; panels are built through ceil(U)
    tol : scaled residual gate per panel (see PanelSolution.residual)

    The residual gate is relative: the defect of the differential form is
    normalized by the magnitude of its two sides, which keeps the gate
    meaningful when u^(k+m+1) is huge.
    """
    k = int(k)
    m = int(m)
    if m < 0 or k + m < 1:
        raise RangeError("need integer m >= 0 with k + m >= 1")
    return solve_f_exponent(k, k + m, U, tol, degree, quad_nodes)


def solve_f_exponent(k, e, U, tol=1e-8, degree=DEGREE, quad_nodes=QUAD_NODES):
    """Solve u^(e+1) f'(u) = -k (u-1)^e f(u-1), f = 1 on (0, 1], on (0, U].

    This is f(u; k, e-k) for any integer exponent e >= 0, including the
    exponents below k that solve_f rejects; the lower-order terms of the
    smoothed main term need them.  The returned solution records m = e-k.
    """
    k = int(k)
    km = int(e)
    if km < 0 or km != e:
        raise RangeError("need an integer exponent e >= 0")
    if U < 1:
        raise RangeError("U must be at least 1")
    if not tol > 0:
        raise RangeError("tol must be positive")
    m = km - k
    n_panels = max(int(math.ceil(U)) - 1, 0)
    glx, glw = quadchev.gauss_legendre(quad_nodes)
    coeffs = []
    f_left = 1.0
    worst = 0.0
    for r in range(1, n_panels + 1):
        a, b = float(r), float(r + 1)
        nodes = quadchev.cheb_lobatto(a, b, degree + 1)
        # integral from a to each node, all Gauss panels evaluated at once
        mid = 0.5 * (a + nodes)
        half = 0.5 * (nodes - a)
        v = mid[:, None] + half[:, None] * glx[None, :]
        w = half[:, None] * glw[None, :]
        # zero-width first node gives v = a exactly; nudge inside the panel
        v[0, :] = 0.5 * (a + b)
        vals = f_left - k * np.sum(w * _integrand(coeffs, r, km, v), axis=1)
        vals[0] = f_left
        c = quadchev.lobatto_to_cheb_coeffs(vals)
        coeffs.append(c)
        worst = max(worst, _panel_residual(coeffs, r, k, km))
        f_left = float(vals[-1])
    sol = PanelSolution(k, m, float(U), tol, degree, tuple(coeffs), worst)
    if worst > tol:
        raise ToleranceError(
            f"f(u;{k},{m}): residual {worst:.3e} exceeds tol {tol:.1e} at degree {degree}",
            achieved=worst,
        )
    return sol


def _panel_residual(coeffs, r, k, km):
    a, b = float(r), float(r + 1)
    c = coeffs[r - 1]
    # strictly interior Chebyshev sample points
    u = quadchev.cheb_lobatto(a, b, RESIDUAL_SAMPLES + 2)[1:-1]
    fp = quadchev.cheb_eval_deriv(c, a, b, u)
    fprev = _prev_eval(coeffs, r, u - 1.0)
    lhs = u ** (km + 1) * fp
    rhs = -k * (u - 1.0) ** km * fprev
    scale = np.abs(u ** (km + 1)) * (1.0 + np.abs(fp)) + abs(k) * (u - 1.0) ** km * (
        1.0 + np.abs(fprev)
    )
    return float(np.max(np.abs(lhs - rhs) / scale))


def _eval_panels(coeffs, u, fill):
    """The piecewise-Chebyshev function with coefficients coeffs[r] on the
    panel [r+1, r+2] (the last panel extended to the right), at every u;
    fill on u <= 1."""
    out = np.full_like(u, fill)
    inside = u > 1.0
    if coeffs and np.any(inside):
        ui = u[inside]
        idx = np.minimum(np.ceil(ui).astype(int) - 2, len(coeffs) - 1)
        vals = np.empty_like(ui)
        for r in np.unique(idx):
            m = idx == r
            vals[m] = quadchev.cheb_eval(coeffs[r], float(r + 1), float(r + 2), ui[m])
        out[inside] = vals
    return out


def eval_f_many(sol, u):
    """Vectorized f evaluation; accepts 0 <= u <= U."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if np.any(u < 0.0):
        raise RangeError("f is defined for u >= 0 only")
    if np.any(u > sol.U * (1.0 + 1e-12)):
        raise RangeError(f"u beyond coverage bound {sol.U}")
    return _eval_panels(sol.coeffs, u, 1.0)


def eval_f(sol, u):
    """f(u; k, m); u = 0 is allowed and continues the constant initial panel."""
    return float(eval_f_many(sol, [u])[0])


def eval_f_deriv(sol, u):
    """f'(u) from the panel representation (0 on the constant panel)."""
    u = float(u)
    if u < 0 or u > sol.U * (1.0 + 1e-12):
        raise RangeError("u out of coverage")
    if u <= 1.0:
        return 0.0
    r = min(int(math.ceil(u)) - 2, len(sol.coeffs) - 1)
    return float(quadchev.cheb_eval_deriv(sol.coeffs[r], float(r + 1), float(r + 2), u))


@dataclass(frozen=True)
class LogPanelSolution:
    """log f for the negative-k case, stable at very large s = -k.

    The k = -s march only ever adds positive increments, so the whole
    solve stays in log space through logsumexp; f itself may overflow any
    float while log f stays moderate.
    """

    s: int
    m: int
    U: float
    degree: int
    coeffs: tuple  # Chebyshev coefficients of log f per panel


def solve_f_log(s, m, U, degree=DEGREE, quad_nodes=QUAD_NODES):
    """Solve f(u; -s, m) in log space; returns a LogPanelSolution."""
    s = int(s)
    m = int(m)
    if s < 1 or m <= s:
        raise RangeError("need integers 1 <= s < m")
    if U < 1:
        raise RangeError("U must be at least 1")
    km = m - s
    n_panels = max(int(math.ceil(U)) - 1, 0)
    glx, glw = quadchev.gauss_legendre(quad_nodes)
    logw = np.log(glw)
    coeffs = []
    log_left = 0.0
    for r in range(1, n_panels + 1):
        a = float(r)
        nodes = quadchev.cheb_lobatto(a, a + 1.0, degree + 1)
        # first node has a zero-width integral; handle the rest vectorized
        mid = 0.5 * (a + nodes[1:])
        half = 0.5 * (nodes[1:] - a)
        v = mid[:, None] + half[:, None] * glx[None, :]
        if r == 1:
            log_fprev = np.zeros_like(v)
        else:
            log_fprev = quadchev.cheb_eval(coeffs[r - 2], a - 1.0, a, v - 1.0)
        terms = (
            np.log(half[:, None]) + logw[None, :] + log_fprev
            + km * np.log(v - 1.0) - (km + 1) * np.log(v)
        )
        mx = np.max(terms, axis=1)
        log_int = mx + np.log(np.sum(np.exp(terms - mx[:, None]), axis=1))
        vals = np.empty(degree + 1)
        vals[0] = log_left
        vals[1:] = np.logaddexp(log_left, math.log(s) + log_int)
        coeffs.append(quadchev.lobatto_to_cheb_coeffs(vals))
        log_left = float(vals[-1])
    return LogPanelSolution(s, m, float(U), degree, tuple(coeffs))


def eval_log_f_many(sol, u):
    """Vectorized log f(u; -s, m); zero on (0, 1]."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if np.any(u < 0.0) or np.any(u > sol.U * (1.0 + 1e-12)):
        raise RangeError("u out of coverage")
    return _eval_panels(sol.coeffs, u, 0.0)
