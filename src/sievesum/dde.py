"""Panelwise Chebyshev solver for the delay equation

    u^(k+m+1) f'(u) = -k (u-1)^(k+m) f(u-1),    f(u) = 1 on (0, 1],

marched one unit panel at a time through the equivalent integral form
f(u) = f(r) - k * integral_r^u f(v-1) (v-1)^(k+m) v^(-k-m-1) dv.
Since k and m are integers the integrand is analytic on each open panel,
so a fixed-degree Chebyshev representation converges spectrally.

One march serves two representations: f itself (solve_f), and, for
k = -s < 0, f scaled panel by panel (solve_f_log): panel r holds
d = f / f(r) - 1, which lies in [0, f(r+1)/f(r) - 1], beside log f(r), so
f may overflow any float while log f = log f(r) + log1p(d) keeps the
relative accuracy of float f, down to increments far below an ulp of f.
Both solutions pass one residual gate on the differential form.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import quadchev
from .errors import RangeError, ToleranceError

DEGREE = 32
MAX_PANELS = 2048  # unit panels a solution may span, so U <= MAX_PANELS + 1
QUAD_NODES = 64
RESIDUAL_SAMPLES = 16
EVAL_CHUNK = 2048  # points per Clenshaw pass of _eval_panels


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


def _march(k, km, U, log):
    """Chebyshev coefficients of f per panel (r, r+1], or with log=True of
    d = f / f(r) - 1 together with the tuple of log f(r).

    The DEGREE+1 Lobatto values of a panel come from its left end and one
    QUAD_NODES-point Gauss-Legendre rule on [r, v] per node v, which adds
    -k times the integral; in d the integrand's f(v-1) is divided by f(r).
    """
    if not (1.0 <= U <= MAX_PANELS + 1):
        raise RangeError(f"U must lie in [1, {MAX_PANELS + 1}], got {U}")
    glx, glw = quadchev.gauss_legendre(QUAD_NODES)
    coeffs = []
    logs = []
    left = 0.0 if log else 1.0  # f(r), or in d the previous panel's d(r); f = 1 on (0, 1]
    for r in range(1, int(math.ceil(U))):
        a = float(r)
        # the first node's integral has zero width; the others go at once
        nodes = quadchev.cheb_lobatto(a, a + 1.0, DEGREE + 1)[1:]
        half = 0.5 * (nodes - a)
        v = (0.5 * (a + nodes))[:, None] + half[:, None] * glx[None, :]
        w = half[:, None] * glw[None, :]
        vals = np.empty(DEGREE + 1)
        if log:  # d(r) = 0; the previous panel gives f(v-1) / f(r-1) = 1 + d
            logs.append((logs[-1] if logs else 0.0) + math.log1p(left))
            prev = (1.0 + _eval_panels(coeffs, v - 1.0, 0.0)) / (1.0 + left)
            vals[0] = left = 0.0
        else:
            prev = _eval_panels(coeffs, v - 1.0, 1.0)
            vals[0] = left
        g = prev * np.exp(km * np.log(v - 1.0) - (km + 1) * np.log(v))
        vals[1:] = left - k * np.sum(w * g, axis=1)
        coeffs.append(quadchev.lobatto_to_cheb_coeffs(vals))
        left = float(vals[-1])
    return tuple(coeffs), tuple(logs)


def _residual(coeffs, k, km, logs=None):
    """Largest scaled defect of u^(km+1) f'(u) = -k (u-1)^km f(u-1) at
    RESIDUAL_SAMPLES interior points of every panel; NaN if any defect is.

    Both sides are divided by u^(km+1), so the right one is c f(u-1) with
    c = -k ((u-1)/u)^km / u, and the defect is normalized by
    1 + |f'| + |c| (1 + |f(u-1)|).  Given logs, coeffs hold d = f / f(r) - 1
    and the same measure is divided through by f(u).
    """
    x = quadchev.cheb_lobatto(0.0, 1.0, RESIDUAL_SAMPLES + 2)[1:-1]
    u = (np.arange(1.0, len(coeffs) + 1.0)[:, None] + x[None, :]).ravel()
    fp = _eval_panels([np.polynomial.chebyshev.chebder(c, scl=2.0) for c in coeffs], u, 0.0)
    c = -k * ((u - 1.0) / u) ** km / u
    if logs is None:
        a, b, g = fp, c * _eval_panels(coeffs, u - 1.0, 1.0), 1.0
    else:
        lf = _log_f(coeffs, logs, u)
        a = fp / (1.0 + _eval_panels(coeffs, u, 0.0))
        b = c * np.exp(_log_f(coeffs, logs, u - 1.0) - lf)
        g = np.exp(-lf)
    defect = np.abs(a - b) / (g * (1.0 + np.abs(c)) + np.abs(a) + np.abs(b))
    return float(np.max(defect, initial=0.0))


def solve_f(k, m, U, tol=1e-8):
    """Solve for f(u; k, m) on (0, U].

    Parameters
    ----------
    k : integer, either sign
    m : positive integer with m > max(0, -k), so the exponent k+m >= 1
    U : coverage bound in [1, MAX_PANELS + 1]; panels are built through ceil(U)
    tol : scaled residual gate per panel (see PanelSolution.residual)

    The residual gate is relative: the defect of the differential form is
    normalized by the magnitude of its two sides, which keeps the gate
    meaningful when u^(k+m+1) is huge.
    """
    k = int(k)
    m = int(m)
    if m < 0 or k + m < 1:
        raise RangeError("need integer m >= 0 with k + m >= 1")
    return solve_f_exponent(k, k + m, U, tol)


def solve_f_exponent(k, e, U, tol=1e-8):
    """Solve u^(e+1) f'(u) = -k (u-1)^e f(u-1), f = 1 on (0, 1], on (0, U].

    This is f(u; k, e-k) for any integer exponent e >= 0, including the
    exponents below k that solve_f rejects; the lower-order terms of the
    smoothed main term need them.  The returned solution records m = e-k.
    """
    k = int(k)
    km = int(e)
    if km < 0 or km != e:
        raise RangeError("need an integer exponent e >= 0")
    if not tol > 0:
        raise RangeError("tol must be positive")
    coeffs, _ = _march(k, km, U, log=False)
    worst = _residual(coeffs, k, km)
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
    """f(.; -s, m) on (0, U] for log f, which stays moderate where f overflows."""

    s: int
    m: int
    U: float
    tol: float
    degree: int
    coeffs: tuple  # Chebyshev coefficients of d = f / f(r) - 1 on the panel (r, r+1]
    logs: tuple  # logs[r-1] = log f(r)
    residual: float


def solve_f_log(s, m, U, tol=1e-8):
    """Solve f(u; -s, m) for log f; the residual gate is solve_f's, divided by f(u)."""
    s = int(s)
    m = int(m)
    if s < 1 or m <= s:
        raise RangeError("need integers 1 <= s < m")
    if not tol > 0:
        raise RangeError("tol must be positive")
    coeffs, logs = _march(-s, m - s, U, log=True)
    worst = _residual(coeffs, -s, m - s, logs)
    _gate(f"log f(u;{-s},{m})", worst, tol)
    return LogPanelSolution(s, m, float(U), tol, DEGREE, coeffs, logs, worst)


def _log_f(coeffs, logs, u):
    """log f(r) + log1p(d) at every u (0 on u <= 1), the last panel extended."""
    ends = np.asarray((0.0, *logs))
    d = _eval_panels(coeffs, u, 0.0)
    return ends[np.clip(np.ceil(u).astype(int) - 1, 0, len(logs))] + np.log1p(d)


def eval_log_f_many(sol, u):
    """Vectorized log f(u; -s, m); zero on (0, 1]."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if np.any(u < 0.0) or np.any(u > sol.U * (1.0 + 1e-12)):
        raise RangeError("u out of coverage")
    return _log_f(sol.coeffs, sol.logs, u)
