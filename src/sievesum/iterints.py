"""Iterated sieve integrals I_s(t, v) built over the delay-equation solution.

Base regime (v <= 1):

    I_s(t, v) = integral_0^1 (1-x)^(s-1)/(s-1)! * [f(u t x; -s, m) P_s(t x)]^2 dx,

with P_s(y) = m!/(m-s)! * y^(m-s).  For v > 1 the values satisfy

    I_s(t, v) = I_s(t, 1) - s * integral_1^v I_s((1-1/x) t, x-1) (1-1/x)^s dx/x,

which is marched one unit v-panel at a time: each panel (r, r+1] stores a
17 x T grid of Chebyshev-Lobatto values, and the inner evaluations read
the previously built panel through barycentric interpolation.  The x
integral is composite: a MARCH_NODES-point Gauss-Legendre rule on each
interval between consecutive v nodes, added to a running sum, so the
integrand's kinks (where (1-1/x) t crosses a t break) cost one short
interval each.

The reported est_error covers the t direction only.  The v quadrature is
checked in the tests against a rule with three times the nodes; the
17-node v interpolation is not checked.

The t direction uses a piecewise grid split at t = j/u: f(u t x) has only
finitely many continuous derivatives at integer arguments, and those kinks
surface in I at the t breakpoints, so a single global polynomial in t
converges too slowly.  Within each t panel the values are analytic and the
per-panel Lobatto resolution is doubled until a nested-grid comparison
meets tol.  When m - s is large the kinks are negligible (order m-s+1) and
a single t panel is used.

Every t query is interpolated against one reference Chebyshev-Lobatto
panel on [-1, 1] at its local coordinate in the panel that owns it (the
barycentric formula is invariant under the affine map), one bary_matrix
call per block of CHUNK_ROWS queries.  The rows do not depend on the
values, so build_tables marches the kernels that share a t grid in
batches and builds the rows once per rung, v-panel and v-node; each
kernel contracts them with its own values, one einsum per block, so a
table's bits do not depend on its batch.  Nothing here runs concurrently.

Three reductions keep the numbers representable:
  * the constant A = (m!/(m-s)!)^2/(s-1)! and the beta integral
    B = B(s, 2(m-s)+1) are pulled out (the log of A B is the kernel's L),
    and only phi = I * t^(-2(m-s)) / (A B) is marched: it is smooth and
    positive down to t = 0, where the base row equals 1, and the recursion
    keeps its form (the power of (1-1/x) becomes s + 2(m-s) for phi);
  * the base row is kept as its log, summed from the log of its integrand
    (log f from dde.solve_f_log, and log B), so neither f nor B has to fit
    a float;
  * f grows like u^s, so for large s and u the base row b(t) grows by many
    powers of e from t = 0 to 1 (e^22 at s = 1000, m = 1100, u = 200; past
    the float range there from u = 1200).  A table whose base row spans
    more than e^ENVELOPE_LOG stores psi = phi(t, v) / b(t) instead, which
    spans little; the rounding of phi's smallest entries would otherwise
    exceed tol relative to them.

All tolerances here are relative: the gap between two levels is the
largest per-entry relative difference over the entries of the row or
panel within a factor e^40 of its largest.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import dde, quadchev
from .errors import RangeError, ToleranceError

N_PER_START = 17
N_PER_MAX = 129
N_V = 17
GL_NODES = 64
MARCH_NODES = 16  # Gauss-Legendre nodes per v-node interval of the march
MAX_PANELS = dde.MAX_PANELS
T_PANEL_CAP = 512
KINK_SPLIT_ORDER = 8  # skip t splits once m - s exceeds this
DEGREE_BUDGET = 100  # GL_NODES integrates polynomials up to degree 2*GL_NODES-1
CHUNK_ROWS = 2048  # t-interpolation rows built and applied per block
BASE_POINTS = 1 << 14  # base quadrature points per f evaluation
BATCH_KERNELS = 16  # kernels marched together on one t grid
F_TOL = 1e-10  # residual gate of the tables' f solution
ENVELOPE_LOG = 8.0  # tables whose base row spans more store phi over it


@dataclass(frozen=True)
class SieveKernel:
    """Fixed (s, m, u) data shared by all integral evaluations."""

    s: int
    m: int
    u: float
    L: float  # log of the pulled-out constant (m!/(m-s)!)^2/(s-1)! * B(s, 2(m-s)+1)
    f_sol: object  # a dde.LogPanelSolution


def make_kernel(s, m, u):
    """Prepare the f solution and scaling constants for (s, m, u).

    u is the largest v a table reaches, so it is held to build_tables'
    bound before f is solved out to it.
    """
    s = int(s)
    m = int(m)
    if s < 1 or m <= s:
        raise RangeError("need integers 1 <= s < m")
    if not (0 < u <= MAX_PANELS + 1):
        raise RangeError(f"u must lie in (0, {MAX_PANELS + 1}], got {u}")
    L = 2.0 * (math.lgamma(m + 1) - math.lgamma(m - s + 1)) - math.lgamma(s) + _log_beta(s, m)
    f_sol = dde.solve_f_log(s, m, max(1.0, float(u)), tol=F_TOL)
    return SieveKernel(s, m, float(u), L, f_sol)


def _log_beta(s, m):
    """log B(s, 2(m-s)+1), the base integral of phi's unscaled integrand at f = 1."""
    return math.lgamma(s) + math.lgamma(2 * (m - s) + 1) - math.lgamma(2 * m - s + 1)


@dataclass(frozen=True)
class TGrid:
    """Piecewise Chebyshev-Lobatto grid on [0, 1] split at the f kinks."""

    breaks: np.ndarray
    n_per: int
    nodes: np.ndarray  # concatenated per-panel nodes, length n_panels * n_per
    ref: np.ndarray  # the n_per nodes of the reference panel [-1, 1]
    bw: np.ndarray

    @property
    def total(self):
        return self.nodes.shape[0]


def _t_breaks(kernel):
    if kernel.m - kernel.s > KINK_SPLIT_ORDER:
        return np.array([0.0, 1.0])
    pts = {0.0, 1.0, *(j / kernel.u for j in range(1, math.ceil(kernel.u)))}
    if len(pts) - 1 > T_PANEL_CAP:
        raise RangeError(
            f"u={kernel.u} with m-s={kernel.m - kernel.s} needs more than "
            f"{T_PANEL_CAP} t panels; use a larger m - s"
        )
    return np.asarray(sorted(pts))


def _make_tgrid(breaks, n_per):
    ref = quadchev.cheb_lobatto(-1.0, 1.0, n_per)
    mid, half = 0.5 * (breaks[:-1] + breaks[1:]), 0.5 * (breaks[1:] - breaks[:-1])
    nodes = (mid[:, None] + half[:, None] * ref).ravel()  # cheb_lobatto on each panel
    return TGrid(breaks, n_per, nodes, ref, quadchev.lobatto_bary_weights(n_per))


def _t_rows(grid, q):
    """Yield (rows, owner, B) per block of at most CHUNK_ROWS queries:
    B[i] interpolates the n_per values of t panel owner[i] at q[rows][i].

    Rows are built on the reference panel grid.ref at each query's local
    coordinate; panel ends map to exactly -1 or 1 and get one-hot rows.
    The blocks are of nearly equal size: numpy sums a lone column in
    another order, which would make a row's bits depend on the blocking.
    """
    n_q = q.shape[0]
    n_blocks = -(-n_q // CHUNK_ROWS)
    for b in range(n_blocks):
        rows = slice(b * n_q // n_blocks, (b + 1) * n_q // n_blocks)
        qb = q[rows]
        owner = np.searchsorted(grid.breaks[1:-1], qb, side="left")  # panel ends go left
        lo, hi = grid.breaks[owner], grid.breaks[owner + 1]
        x = ((qb - lo) - (hi - qb)) / (hi - lo)
        yield rows, owner, quadchev.bary_matrix(grid.ref, grid.bw, x)


def _merge_close(pts, eps=1e-13):
    """Drop points that would create segments narrower than eps."""
    out = [pts[0]]
    for p in pts[1:-1]:
        if p - out[-1] > eps and pts[-1] - p > eps:
            out.append(p)
    out.append(pts[-1])
    return out


def _base_grid(kernel, t):
    """Quadrature segments on [0, 1] split at the kinks of f(u t x), halved
    while the integrand's degree exceeds what GL_NODES points integrate."""
    ut = kernel.u * t
    pts = _merge_close(sorted({0.0, 1.0, *(j / ut for j in range(1, math.ceil(ut)))}))
    degree = kernel.s - 1 + 2 * (kernel.m - kernel.s)
    if degree + 1 > DEGREE_BUDGET:
        splits = min(int(math.ceil(math.log2((degree + 1) / DEGREE_BUDGET))), 4)
        for _ in range(splits):
            mids = [0.5 * (a + b) for a, b in zip(pts[:-1], pts[1:])]
            pts = sorted(set(pts) | set(mids))
    return np.asarray(pts)


def _log_base_row(kernel, t_nodes):
    """log phi(t, v<=1) at each t node by composite Gauss-Legendre.

    The integrand (1-x)^(s-1) (f(u t x) x^w)^2 / B is formed from its log
    and exponentiated less its largest value at the node, so the row is
    finite where phi overflows.  The quadrature points of consecutive t
    nodes, at most BASE_POINTS at a time, go through one f evaluation;
    each node keeps its own sum.
    """
    s, w, u, sol = kernel.s, kernel.m - kernel.s, kernel.u, kernel.f_sol
    log_b = _log_beta(s, kernel.m)
    glx, glw = quadchev.gauss_legendre(GL_NODES)
    grids = [_base_grid(kernel, t) for t in t_nodes]
    sizes = np.array([(len(p) - 1) * GL_NODES for p in grids])
    ends = np.cumsum(sizes)
    out = np.empty(len(t_nodes))
    lo = 0
    while lo < len(t_nodes):
        hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] - sizes[lo] + BASE_POINTS, "right")))
        mid = np.concatenate([0.5 * (p[:-1] + p[1:]) for p in grids[lo:hi]])
        half = np.concatenate([0.5 * (p[1:] - p[:-1]) for p in grids[lo:hi]])
        x = (mid[:, None] + half[:, None] * glx[None, :]).ravel()
        wts = (half[:, None] * glw[None, :]).ravel()
        y = np.minimum(np.repeat(u * t_nodes[lo:hi], sizes[lo:hi]) * x, sol.U)
        g = 2.0 * (dde.eval_log_f_many(sol, y) + w * np.log(x)) - log_b
        if s > 1:
            g += (s - 1) * np.log1p(-x)
        top = np.maximum.reduceat(g, np.cumsum(sizes[lo:hi]) - sizes[lo:hi])
        g = np.exp(g - np.repeat(top, sizes[lo:hi]))
        a = 0
        for i, b in enumerate(sizes[lo:hi], lo):
            out[i] = wts[a : a + b] @ g[a : a + b]
            a += b
        out[lo:hi] = top + np.log(out[lo:hi])
        lo = hi
    return out


def _enveloped(log_base):
    """Whether a table stores phi over its base row: the row rises from 1
    at t = 0 to more than e^ENVELOPE_LOG at t = 1, the last node of every
    rung's grid, so every rung decides alike."""
    return float(log_base[-1]) > ENVELOPE_LOG


@dataclass(frozen=True)
class ITable:
    """Marched table of phi over [0,1] x (1, v_max].

    log_base holds log phi on the v <= 1 row of the t grid; panels[r-1]
    holds the 17 x grid.total values on the v-panel (r, r+1]: phi, or
    phi(t, v) / phi(t, 1) where the base row spans more than
    e^ENVELOPE_LOG (the table is enveloped).  The t resolution is
    chosen adaptively and est_error compares two t resolutions, so it
    covers the t direction only.  The v resolution per panel is fixed:
    17 nodes, with a composite MARCH_NODES-point rule between neighbours
    for the x integral.  The acceptance tests compare against a direct
    recursive evaluation.
    """

    kernel: SieveKernel
    v_max: float
    grid: TGrid
    log_base: np.ndarray
    panels: tuple
    est_error: float
    enveloped: bool


def _march(kernels, v_max, grid, log_bases):
    """March the kernels' tables over one t grid from the logs of their
    base rows; one (base, panels) each, in the values the table stores.

    An enveloped table stores psi = phi(t, v) / b(t), b the base row:

        psi(t, v) = 1 - s * integral_1^v psi(t', x-1) b(t') / b(t) (1-1/x)^(s+2(m-s)) dx/x,

    t' = (1-1/x) t, with log b interpolated at t' like psi.  b grows like
    t^(2s) once u t is large, so psi spans far less than phi and the float
    rounding of its small entries stays below tol.

    At each v-panel and v-node the v rows Bv and the blocks of t rows are
    built once and applied to every kernel in turn: a query row is
    contracted with the row g * P + p of D, the kernel's values at x-node
    g on t panel p, so a kernel's bits do not depend on its batch.
    """
    t_nodes = grid.nodes
    T = grid.total
    bw_v = quadchev.lobatto_bary_weights(N_V)
    glx, glw = quadchev.gauss_legendre(MARCH_NODES)
    g_key = np.repeat(np.arange(MARCH_NODES) * (len(grid.breaks) - 1), T)
    s = [k.s for k in kernels]
    sexp = [2 * k.m - k.s for k in kernels]  # s + 2(m - s)
    env = {i: np.broadcast_to(lb, (MARCH_NODES, T)).reshape(-1, grid.n_per)
           for i, lb in enumerate(log_bases) if _enveloped(lb)}
    bases = [np.ones(T) if i in env else np.exp(lb) for i, lb in enumerate(log_bases)]
    Q = [np.zeros(T) for _ in kernels]
    data = list(bases)  # what the next v-panel interpolates: the base row, then a panel
    panels = [[] for _ in kernels]
    inner = np.empty((len(kernels), MARCH_NODES * T))
    log_inner = np.empty((len(kernels), MARCH_NODES * T))
    prev_v_nodes = None
    for r in range(1, max(int(math.ceil(v_max)) - 1, 0) + 1):
        a = float(r)
        v_nodes = quadchev.cheb_lobatto(a, a + 1.0, N_V)
        rows = [[b - si * q] for b, si, q in zip(bases, s, Q)]
        for j in range(1, N_V):
            mid = 0.5 * (v_nodes[j - 1] + v_nodes[j])
            half = 0.5 * (v_nodes[j] - v_nodes[j - 1])
            x = mid + half * glx
            tp = 1.0 - 1.0 / x
            tq = (tp[:, None] * t_nodes[None, :]).ravel()
            if r == 1:
                Ds = [np.broadcast_to(d, (MARCH_NODES, T)).reshape(-1, grid.n_per) for d in data]
            else:
                Bv = quadchev.bary_matrix(prev_v_nodes, bw_v, x - 1.0)
                Ds = [(Bv @ d).reshape(-1, grid.n_per) for d in data]
            for blk, owner, B in _t_rows(grid, tq):
                key = g_key[blk] + owner
                for i, D in enumerate(Ds):
                    np.einsum("rc,rc->r", B, D[key], out=inner[i, blk])
                for i, D in env.items():
                    np.einsum("rc,rc->r", B, D[key], out=log_inner[i, blk])
            for i, e in enumerate(sexp):
                g = inner[i].reshape(MARCH_NODES, T) * (tp ** e / x)[:, None]
                if i in env:
                    g *= np.exp(log_inner[i].reshape(MARCH_NODES, T) - log_bases[i])
                Q[i] += half * (glw @ g)
                rows[i].append(bases[i] - s[i] * Q[i])
        for i, rws in enumerate(rows):
            data[i] = np.array(rws)
            panels[i].append(data[i])
        prev_v_nodes = v_nodes
    return list(zip(bases, panels))


def _gap(coarse, fine):
    """Largest |coarse - fine| / |fine| over the entries of fine within a
    factor e^40 of its largest; NaN if either level is not finite."""
    size = np.abs(fine)
    if not (np.isfinite(coarse).all() and np.isfinite(size).all()):
        return math.nan
    keep = size >= np.max(size) * math.exp(-40.0)
    return float(np.max(np.abs(coarse - fine)[keep] / size[keep]))


def _compare_levels(B, coarse, fine):
    """Disagreement of two t resolutions at the fine nodes: the largest
    _gap over the base row and every panel.

    B interpolates the coarse grid at the fine nodes.
    """
    gaps = [_gap(B @ coarse[0], fine[0])]
    gaps += [_gap(cm @ B.T, fm) for cm, fm in zip(coarse[1], fine[1])]
    return float(np.max(gaps))


def _refine_base(kernel, grid, coarse):
    """The base row on grid from coarse, the row on the grid with half its
    n_per - 1 intervals per panel.  Lobatto node 2j of a fine panel is node
    j of the coarse one, bit for bit, so only the odd nodes are integrated."""
    fine = np.empty((len(grid.breaks) - 1, grid.n_per))
    fine[:, ::2] = coarse.reshape(len(fine), -1)
    odd = grid.nodes.reshape(fine.shape)[:, 1::2]
    fine[:, 1::2] = _log_base_row(kernel, odd.ravel()).reshape(odd.shape)
    return fine.ravel()


def _ladder(kernels, v_max, tol, n):
    """Tables of kernels that share one t-grid family.

    Every rung marches the kernels still active; a kernel leaves once its
    estimate against the previous rung meets tol.  A level that is not
    finite raises RangeError at once: no finer rung brings it back.
    """
    breaks = _t_breaks(kernels[0])
    prev_grid = _make_tgrid(breaks, (n + 1) // 2)
    prev_logs = [_log_base_row(k, prev_grid.nodes) for k in kernels]
    prev = _march(kernels, v_max, prev_grid, prev_logs)
    active = list(range(len(kernels)))
    tables = [None] * len(kernels)
    while active:
        grid = _make_tgrid(breaks, n)
        logs = [_refine_base(kernels[i], grid, lb) for i, lb in zip(active, prev_logs)]
        cur = _march([kernels[i] for i in active], v_max, grid, logs)
        B = np.zeros((grid.total, prev_grid.total))  # the coarse grid at the fine nodes
        for rows, owner, C in _t_rows(prev_grid, grid.nodes):
            np.put_along_axis(B[rows], owner[:, None] * C.shape[1] + np.arange(C.shape[1]), C, 1)
        still = []
        for i, p, c, lb in zip(active, prev, cur, logs):
            est = _compare_levels(B, p, c)
            if not math.isfinite(est):
                k = kernels[i]
                raise RangeError(f"I table of (s, m, u) = ({k.s}, {k.m}, {k.u:g}) is not finite")
            if est <= tol:
                tables[i] = ITable(kernels[i], v_max, grid, lb, tuple(c[1]), est, _enveloped(lb))
            elif n >= N_PER_MAX:
                raise ToleranceError(
                    f"I table: estimate {est:.3e} above tol {tol:.1e} at n_per={n}",
                    achieved=est,
                )
            else:
                still.append((i, c, lb))
        active = [i for i, _, _ in still]
        prev = [c for _, c, _ in still]
        prev_logs = [lb for _, _, lb in still]
        prev_grid = grid
        n = 2 * n - 1
    return tables


def build_tables(kernels, v_max, tol=1e-9):
    """Yield (index, table) for every kernel, one batch of tables at a time.

    Kernels that share a t grid (the same breaks) are marched
    together, at most BATCH_KERNELS at a time: the interpolation rows of
    each rung, v-panel and v-node are built once for the whole batch.
    Each kernel keeps its own resolution ladder, starting at N_PER_START
    nodes per t panel, so every table, its n_per and its est_error are
    bit-identical to a batch of one.  A caller that drops each table once
    read holds one batch at a time.
    """
    v_max = float(v_max)
    if not (0 < v_max <= MAX_PANELS + 1):
        raise RangeError(f"v_max must lie in (0, {MAX_PANELS + 1}], got {v_max}")
    if not (0.0 < tol < math.inf):
        raise RangeError(f"tol must be a positive finite number, got {tol}")
    groups = {}
    for i, kern in enumerate(kernels):
        groups.setdefault(_t_breaks(kern).tobytes(), []).append(i)
    for idx in groups.values():
        for lo in range(0, len(idx), BATCH_KERNELS):
            batch = idx[lo : lo + BATCH_KERNELS]
            yield from zip(batch, _ladder([kernels[i] for i in batch], v_max, tol, N_PER_START))


def build_table(kernel, v_max, tol=1e-9):
    """March the table out to v_max, doubling the t resolution until tol.

    tol is a relative target; the achieved estimate comes from comparing
    each resolution with the nested half-size grid.  Raises ToleranceError
    with the achieved estimate if the resolution ladder tops out.
    """
    return next(build_tables([kernel], v_max, tol))[1]


def _check_t(t):
    if not (0.0 <= t <= 1.0):
        raise RangeError("t must lie in [0, 1]")


def _signed_log(kernel, t, phi, log_env=0.0):
    """(sign, log|I_s|) at t > 0 from phi * e^log_env."""
    head = kernel.L + 2 * (kernel.m - kernel.s) * math.log(t) + log_env
    if phi == 0.0:
        return 0.0, -np.inf
    return math.copysign(1.0, phi), head + math.log(abs(phi))


def _log_base(kernel, t):
    return float(_log_base_row(kernel, np.array([t]))[0])


def i_base_signed_log(kernel, t):
    """(sign, log|I_s(t, v<=1)|), finite where I_s itself overflows a float."""
    _check_t(t)
    if t == 0.0:
        return 0.0, -np.inf
    return _signed_log(kernel, t, 1.0, _log_base(kernel, t))


def i_base(kernel, t):
    """I_s(t, v <= 1) as a real float; RangeError if it overflows."""
    sign, lv = i_base_signed_log(kernel, t)
    if lv > 709.0:
        raise RangeError("value overflows a float; use i_base_signed_log")
    return float(sign * np.exp(lv))


def i_eval_signed_log(table, t, v):
    """(sign, log|I_s(t, v)|) from the table; recomputes the base for v <= 1."""
    _check_t(t)
    kernel = table.kernel
    if not (0.0 < v <= table.v_max * (1.0 + 1e-12)):
        raise RangeError(f"v must lie in (0, {table.v_max}]")
    if v <= 1.0:
        return i_base_signed_log(kernel, t)
    if t == 0.0:
        return 0.0, -np.inf
    idx = min(int(math.ceil(v)) - 2, len(table.panels) - 1)
    a = float(idx + 1)
    v_nodes = quadchev.cheb_lobatto(a, a + 1.0, N_V)
    bv = quadchev.bary_matrix(v_nodes, quadchev.lobatto_bary_weights(N_V), np.array([v]))[0]
    ((_, (p,), bt),) = _t_rows(table.grid, np.array([t]))
    n = table.grid.n_per
    value = float(bv @ table.panels[idx][:, p * n : (p + 1) * n] @ bt[0])
    return _signed_log(kernel, t, value, _log_base(kernel, t) if table.enveloped else 0.0)


def i_eval(table, t, v):
    """I_s(t, v) as a real float; RangeError if it overflows."""
    sign, lv = i_eval_signed_log(table, t, v)
    if lv > 709.0:
        raise RangeError("value overflows a float; use i_eval_signed_log")
    return float(sign * np.exp(lv))


def closed_form_unit(s, m):
    """I_s(1, 1) for u <= 1, where f is identically 1."""
    return math.exp(
        2 * math.lgamma(m + 1)
        - 2 * math.lgamma(m - s + 1)
        + math.lgamma(2 * (m - s) + 1)
        - math.lgamma(2 * m - s + 1)
    )
