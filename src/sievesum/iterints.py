"""Iterated sieve integrals I_s(t, v) built over the delay-equation solution.

Base regime (v <= 1):

    I_s(t, v) = integral_0^1 (1-x)^(s-1)/(s-1)! * [f(u t x; -s, m) P_s(t x)]^2 dx,

with P_s(y) = m!/(m-s)! * y^(m-s).  For v > 1 the values satisfy

    I_s(t, v) = I_s(t, 1) - s * integral_1^v I_s((1-1/x) t, x-1) (1-1/x)^s dx/x,

which is marched one unit v-panel at a time: each panel (r, r+1] stores
17 rows of Chebyshev-Lobatto values, and the inner evaluations read
the previously built panel through barycentric interpolation.  v-panel 1
reads the base row as panel 0, a single row constant in v.  The x
integral is composite: an n-point Gauss-Legendre rule on each interval
between consecutive v nodes, added to a running sum, so the integrand's
kinks (where (1-1/x) t crosses a t break) cost one short interval each.
Each table chooses its n on the first, coarsest rung of the t ladder:
n is the smallest candidate (MARCH_NODES // 4 = 4, then
MARCH_NODES // 2 = 8) whose table agrees with the table of twice its
nodes to tol / X_SHARE, per entry, and MARCH_NODES = 16 where none does.
A march takes one rule (no two rules share a t row: each x node reads
its own t' = (1 - 1/x) t), so the first rung marches 4 nodes, then 8,
and 16 only for the tables that 4 fail.  The integrand is smooth between
its kinks, so the rule converges geometrically and the doubled rule's
gap measures the coarser rule's error.  Later rungs march the chosen rule.

A table is marched only on the region its reader needs.  A node (t, v)
reads (t (x-1)/x, x-1), so I(t, v) needs only the cone below it, and
I(1, u) only t >= v/u: build_tables takes a slope, and each v-panel is
marched on the t panels that hold the cone t >= slope * v and the reads
of the next panel (_first_tpanels; slope 0 is the whole table), and
each panel holds only those columns.  The reported est_error and the x
rule's gap, recorded beside it as x_gap, are taken over the whole base
row and that region, and est_error covers the t direction only.  The
tests check the v quadrature against a rule with three times the nodes,
and the 17-node v interpolation against 9 nodes.

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
batches, and the march takes each v-panel in a few steps of consecutive
v-node intervals (as many as fit in STEP_ROWS queries, and at least
one): the rows are built once per rung and step for the whole batch.
Each kernel contracts them with its own values, one einsum per block, so
a table's bits depend neither on its batch nor on the step size.
Nothing here runs concurrently.
The level comparison goes through the same reference panel: two rungs
share their breaks, so one n_per x n_prev matrix takes every coarse
panel to the fine panel's nodes.

Three reductions keep the numbers representable:
  * the constant A = (m!/(m-s)!)^2/(s-1)! and the beta integral
    B = B(s, 2(m-s)+1) are pulled out (the log of A B is the kernel's L),
    and only phi = I * t^(-2(m-s)) / (A B) is marched: it is smooth and
    positive down to t = 0, where the base row equals 1, and the recursion
    keeps its form (the power of (1-1/x) becomes s + 2(m-s) for phi);
  * the base row is kept as its log, summed from the log of its integrand
    (log f from dde.solve_f_log, and log B), so neither f nor B has to fit
    a float.  It is summed in y = u t x on the unit y-panels, where f has
    its kinks: the whole panels below u t hold the same quadrature points
    for every t node, so make_kernel evaluates 2 log f there once, and
    each node evaluates f only on its last, partial panel.  Where u t <= 1,
    f = 1 and the row is exactly 0;
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
from fractions import Fraction
from functools import partial

import numpy as np

from . import dde, quadchev
from .errors import RangeError, ToleranceError, check_int, check_tol

N_PER_START = 17
N_PER_MAX = 129
N_V = 17
GL_NODES = 64
MARCH_NODES = 16  # Gauss-Legendre nodes per v-node interval of a march that fails the x check
X_SHARE = 256  # a cheaper x rule must agree with its double to tol / X_SHARE
MAX_PANELS = dde.MAX_PANELS
T_PANEL_CAP = 512
KINK_SPLIT_ORDER = 8  # skip t splits once m - s exceeds this
DEGREE_BUDGET = 100  # GL_NODES integrates polynomials up to degree 2*GL_NODES-1
CHUNK_ROWS = 2048  # t-interpolation rows built and applied per block
STEP_ROWS = 8192  # t queries per step of the v march, which spans one or more v-node intervals
BASE_POINTS = 1 << 14  # base quadrature points per block of t nodes
BATCH_KERNELS = 16  # kernels marched together on one t grid
F_TOL = 1e-10  # residual gate of the tables' f solution
ENVELOPE_LOG = 8.0  # tables whose base row spans more store phi over it
READ_SLACK = 1e-14  # relative; the march's reads sit over 1e-11 above _first_tpanels' bound


@dataclass(frozen=True)
class SieveKernel:
    """Fixed (s, m, u) data shared by all integral evaluations."""

    s: int
    m: int
    u: float
    L: float  # log of the pulled-out constant (m!/(m-s)!)^2/(s-1)! * B(s, 2(m-s)+1)
    f_sol: object  # a dde.PanelSolution from solve_f_log
    # (points, weights, 2 log f): the base rule on [0, 1] (_base_rule) and
    # 2 log f at its points shifted to each whole unit y-panel [j, j+1]
    # below u, row j
    base: tuple


def make_kernel(s, m, u):
    """Prepare the f solution, scaling constants and base quadrature for
    (s, m, u).

    u is the largest v a table reaches, so it is held to build_tables'
    bound before f is solved out to it.
    """
    s = check_int("s", s, 1)
    m = check_int("m", m, s + 1)
    if not (0 < u <= MAX_PANELS + 1):
        raise RangeError(f"u must lie in (0, {MAX_PANELS + 1}], got {u}")
    L = 2.0 * (math.lgamma(m + 1) - math.lgamma(m - s + 1)) - math.lgamma(s) + _log_beta(s, m)
    f_sol = dde.solve_f_log(s, m, max(1.0, float(u)), tol=F_TOL)
    y, wts = _base_rule(s, m)
    log_f2 = 2.0 * dde.log_f_panels(f_sol, 2.0 * y - 1.0, math.ceil(u) - 1)
    return SieveKernel(s, m, float(u), L, f_sol, (y, wts, log_f2))


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


def _t_rows(grid, q, work=None):
    """Yield (rows, owner, B) per block of at most CHUNK_ROWS queries:
    B[i] interpolates the n_per values of t panel owner[i] at q[rows][i].

    Rows are built on the reference panel grid.ref at each query's local
    coordinate; panel ends map to exactly -1 or 1 and get one-hot rows.
    The blocks are of nearly equal size: numpy sums a lone column in
    another order, which would make a row's bits depend on the blocking.
    Given work, a flat float array of n_per * CHUNK_ROWS entries, every
    block's B is built in it and holds only until the next block.
    """
    n_q = q.shape[0]
    n_blocks = -(-n_q // CHUNK_ROWS)
    for b in range(n_blocks):
        rows = slice(b * n_q // n_blocks, (b + 1) * n_q // n_blocks)
        qb = q[rows]
        owner = np.searchsorted(grid.breaks[1:-1], qb, side="left")  # panel ends go left
        lo, hi = grid.breaks[owner], grid.breaks[owner + 1]
        x = ((qb - lo) - (hi - qb)) / (hi - lo)
        yield rows, owner, quadchev.bary_matrix(grid.ref, grid.bw, x, out=work)


def _base_rule(s, m):
    """Points and weights of the base quadrature on one unit y-panel [0, 1]:
    GL_NODES Gauss-Legendre points on each of 2^splits equal pieces, halved
    (at most four times) while the integrand's degree exceeds what GL_NODES
    points integrate."""
    degree = s - 1 + 2 * (m - s)
    splits = 0
    if degree + 1 > DEGREE_BUDGET:
        splits = min(int(math.ceil(math.log2((degree + 1) / DEGREE_BUDGET))), 4)
    pieces = 1 << splits
    glx, glw = quadchev.gauss_legendre(GL_NODES)
    half = 0.5 / pieces
    y = ((np.arange(pieces) + 0.5) / pieces)[:, None] + half * glx
    return y.ravel(), np.tile(half * glw, pieces)


def _log_base_row(kernel, t_nodes):
    """log phi(t, v<=1) at each t node by composite Gauss-Legendre in y = u t x.

    With tau = u t and w = m - s,

        phi(t, 1) = integral_0^tau (1 - y/tau)^(s-1) f(y)^2 (y/tau)^(2w) dy / (tau B),

    split at the integers, where f has its kinks, with kernel.base's rule on
    each unit piece.  The whole unit panels [j, j+1] below tau hold the
    same points for every node, so 2 log f there comes from the kernel;
    f is evaluated only on each node's last panel [ceil(tau) - 1, tau],
    with the rule scaled to its width.  Where tau <= 1, f = 1 and the
    integrand is the beta weight over B: log phi is exactly 0.

    Each node adds its own (s-1) log1p(-x) and 2w log x, x = y/tau, and
    exponentiates less its largest value, so the row is finite where phi
    overflows.  The nodes go in blocks of at most BASE_POINTS points (and
    at least one node); each panel's row, and each node's panels, are
    summed on their own, so a node's bits do not depend on the block.
    """
    s, w, u = kernel.s, kernel.m - kernel.s, kernel.u
    y_ref, w_ref, log_f2 = kernel.base
    n = len(y_ref)
    log_b = _log_beta(s, kernel.m)
    tau = u * np.asarray(t_nodes, dtype=float)
    if np.any(tau > u):  # past the whole panels of kernel.base
        raise RangeError("t nodes must lie in [0, 1]")
    out = np.zeros(len(tau))
    todo = np.flatnonzero(tau > 1.0)
    rows = np.ceil(tau[todo]).astype(int)  # per node: its whole unit panels, then its last
    ends = np.cumsum(rows)
    lo = 0
    while lo < len(todo):
        cap = ends[lo] - rows[lo] + BASE_POINTS // n  # rows before node lo, plus a block
        hi = max(lo + 1, int(np.searchsorted(ends, cap, "right")))
        tb, J = tau[todo[lo:hi]], rows[lo:hi] - 1
        last = np.cumsum(J + 1) - 1  # each node's last row
        first = last - J
        j = np.arange(last[-1] + 1) - np.repeat(first, J + 1)  # the row's unit panel
        y = j[:, None] + y_ref
        g = log_f2[np.minimum(j, len(log_f2) - 1)]  # the last rows are overwritten
        width = tb - J
        y[last] = J[:, None] + width[:, None] * y_ref
        g[last] = 2.0 * dde.eval_log_f_many(kernel.f_sol, y[last])
        # in place, with one more array: a node near t = 1 at u = 293 has 300k points
        x = np.divide(y, np.repeat(tb, J + 1)[:, None], out=y)
        term = np.log(x)
        term *= 2 * w
        g += term
        if s > 1:
            with np.errstate(divide="ignore"):  # x rounds to 1 at a tau just above an integer
                np.log1p(np.negative(x, out=term), out=term)
            term *= s - 1
            g += term
        top = np.maximum.reduceat(g.max(axis=1), first)
        g -= np.repeat(top, J + 1)[:, None]
        sums = np.einsum("rc,c->r", np.exp(g, out=g), w_ref)
        sums[last] *= width
        out[todo[lo:hi]] = top + np.log(np.add.reduceat(sums, first)) - np.log(tb) - log_b
        lo = hi
    return out


def _enveloped(log_base):
    """Whether a table stores phi over its base row: the row rises from 1
    at t = 0 to more than e^ENVELOPE_LOG at t = 1, the last node of every
    rung's grid, so every rung decides alike."""
    return float(log_base[-1]) > ENVELOPE_LOG


@dataclass(frozen=True)
class ITable:
    """Marched table of phi over a region of [0,1] x (1, v_max].

    log_base holds log phi on the whole v <= 1 row of the t grid.  The
    region is lo: v-panel r (r, r+1] is marched on the t panels from
    lo[r-1] on (lo is all zeros for the whole table), and panels[r-1]
    holds its 17 x (grid.total - lo[r-1] * grid.n_per) values there:
    phi, or phi(t, v) / phi(t, 1) where the base row spans more than
    e^ENVELOPE_LOG (the table is enveloped).  The t resolution is chosen
    adaptively and est_error compares two t resolutions over the base row
    and the region, so it covers the t direction only.  The v resolution
    per panel is fixed at N_V nodes.  The x integral between neighbouring
    v nodes uses an x_nodes-point rule, chosen on the first rung: x_gap is
    that rule's per-entry gap to the rule of twice its nodes over the
    region (to the rule of half its nodes when no cheaper rule passed and
    x_nodes is MARCH_NODES; NaN when no candidate was tried, as for a
    table with no v-panel).  The acceptance tests compare against a direct
    recursive evaluation.
    """

    kernel: SieveKernel
    v_max: float
    grid: TGrid
    log_base: np.ndarray
    panels: tuple
    est_error: float
    enveloped: bool
    x_nodes: int
    x_gap: float
    lo: tuple  # lo[r-1]: the first t panel marched on v-panel r


def _panel_count(v_max):
    """The unit v-panels (r, r+1] a table out to v_max marches."""
    return max(int(math.ceil(v_max)) - 1, 0)


def _first_tpanels(breaks, v_max, slope):
    """lo[r-1], the first t panel that v-panel r marches, r = 1 .. the
    panel count, in one backward pass over r.

    The region covers the cone t >= slope * v: on v-panel r, t panel p
    is kept when breaks[p+1] > slope * r, and the last t panel (t = 1)
    always is.  It also holds every read of the march: the nodes of
    v-panel r + 1 read v-panel r at t above breaks[lo[r]] * r / (r + 1),
    so lo[r-1] is at most the t panel holding t just above that bound
    (READ_SLACK above it: the reads sit further above, while a bound on
    a break j/u rounds to either side of it).  So lo never decreases
    with r; slope 0, or a single t panel, gives all zeros.
    """
    lo = np.zeros(_panel_count(v_max), dtype=int)
    for r in range(len(lo), 0, -1):
        first = int(np.searchsorted(breaks[1:-1], slope * r, side="right"))
        if r < len(lo):
            bound = breaks[lo[r]] * r / (r + 1) * (1.0 + READ_SLACK)
            first = min(first, int(np.searchsorted(breaks, bound, side="right")) - 1)
        lo[r - 1] = first
    return lo


def _march(kernels, lo, grid, log_bases, nodes):
    """March the kernels' tables over one t grid and the region lo (see
    _first_tpanels) from the logs of their base rows, under the x rule of
    nodes Gauss-Legendre nodes per v-node interval; per kernel, its (base,
    panels) in the values the table stores, on the marched columns alone.

    An enveloped table stores psi = phi(t, v) / b(t), b the base row:

        psi(t, v) = 1 - s * integral_1^v psi(t', x-1) b(t') / b(t) (1-1/x)^(s+2(m-s)) dx/x,

    t' = (1-1/x) t, with log b interpolated at t' like psi.  b grows like
    t^(2s) once u t is large, so psi spans far less than phi and the float
    rounding of its small entries stays below tol.

    Every v-node interval of panel r reads only panel r - 1, so each panel
    is marched in steps of consecutive intervals, as many as keep a step's t
    queries (its x nodes times the panel's marched t nodes) within
    STEP_ROWS, and at least one.  A step's queries go through one pass of t
    rows, built once and applied to every kernel in turn: a query row is
    contracted with the row g * (P - a) + p - a of D, the kernel's values at
    x-node g on t panel p of panel r - 1, which holds the t panels from
    a = lo[r-2] on; panel 0 is the base row, one row on every t panel, which
    all-ones v rows copy to each x node exactly.  A query on a t panel before
    a raises RangeError, where the clipped take would read another panel:
    the region does not hold the march's reads.  Its per-interval sums join
    the running sum, kept on the marched columns, in their order of v.  A
    kernel's march reads only its own previous panel, so its bits depend
    neither on the batch nor on the step size.

    The work arrays of the largest step and block are allocated once: a
    block's rows and values run to megabytes on fine t grids, and
    allocating them anew had the C allocator return them to the system
    and fault them back in, block after block.
    """
    t_nodes, T, n_per = grid.nodes, grid.total, grid.n_per
    P = len(grid.breaks) - 1
    gx, gw = quadchev.gauss_legendre(nodes)
    widths = [T - a * n_per for a in lo]  # marched columns per panel
    spans = [max(1, min(N_V - 1, STEP_ROWS // (nodes * w))) for w in widths]  # intervals per step
    size = max((sp * nodes * w for sp, w in zip(spans, widths)), default=0)
    d_size = max((sp * nodes * w for sp, w in zip(spans, [T, *widths])), default=0)  # panel r - 1
    s = [k.s for k in kernels]
    sexp = [2 * k.m - k.s for k in kernels]  # s + 2(m - s)
    env = {i: e for e, i in enumerate(i for i, lb in enumerate(log_bases) if _enveloped(lb))}
    log_rows = [log_bases[i].reshape(P, n_per) for i in env]
    bases = [np.ones(T) if i in env else np.exp(lb) for i, lb in enumerate(log_bases)]
    Q = [np.zeros(T) for _ in kernels]
    panels = [[b[None, :]] for b in bases]  # panel 0: the base row, one row constant in v
    tq = np.empty(size)
    D = np.empty((len(kernels), d_size))
    inner = np.empty((len(kernels), size))
    log_inner = np.empty((len(env), size))
    g = np.empty(size)
    B_work = np.empty(n_per * CHUNK_ROWS)  # a block's t rows
    picked = np.empty((CHUNK_ROWS, n_per))  # the values each of a block's t rows is applied to
    steps = zip(lo, widths, spans, [0, *lo], [T, *widths])  # with panel r - 1's lo and width

    def v_rows(q):  # the v rows at q of panel 0, which is constant in v
        return np.ones((len(q), 1))
    for r, (first, W, span, a, W_prev) in enumerate(steps, 1):
        col = first * n_per
        g_key = np.repeat(np.arange(span * nodes) * (P - a) - a, W)
        v_nodes = quadchev.cheb_lobatto(float(r), r + 1.0, N_V)
        cur = [np.empty((N_V, W)) for _ in kernels]
        for i, c in enumerate(cur):
            Q[i] = Q[i][W_prev - W :]
            np.subtract(bases[i][col:], s[i] * Q[i], out=c[0])
        for j0 in range(1, N_V, span):
            j1 = min(j0 + span, N_V)
            mid = 0.5 * (v_nodes[j0 - 1 : j1 - 1] + v_nodes[j0:j1])
            half = 0.5 * (v_nodes[j0:j1] - v_nodes[j0 - 1 : j1 - 1])
            x = mid[:, None] + half[:, None] * gx  # (interval, node)
            tp = 1.0 - 1.0 / x
            n_x, n_q = x.size, x.size * W
            np.multiply(tp.reshape(-1, 1), t_nodes[col:], out=tq[:n_q].reshape(-1, W))
            Bv = v_rows(x.ravel() - 1.0)
            for Di, p in zip(D, panels):
                np.matmul(Bv, p[-1], out=Di[: n_x * W_prev].reshape(-1, W_prev))
            values = D[:, : n_x * W_prev].reshape(len(kernels), -1, n_per)
            for blk, owner, B in _t_rows(grid, tq[:n_q], B_work):
                if owner.min() < a:
                    raise RangeError(f"v-panel {r} reads t panel {owner.min()} of v-panel "
                                     f"{r - 1}, which is marched from t panel {a} on")
                key = g_key[blk] + owner
                rows = picked[: len(key)]  # "clip" fills it in place; every key is in range
                for i, V in enumerate(values):
                    np.take(V, key, axis=0, out=rows, mode="clip")
                    np.einsum("rc,rc->r", B, rows, out=inner[i, blk])
                for e, L in enumerate(log_rows):
                    np.take(L, owner, axis=0, out=rows, mode="clip")
                    np.einsum("rc,rc->r", B, rows, out=log_inner[e, blk])
            gi = g[:n_q].reshape(*x.shape, W)
            for i, ex in enumerate(sexp):
                np.multiply(inner[i, :n_q].reshape(gi.shape), (tp ** ex / x)[..., None], out=gi)
                if i in env:
                    lg = log_inner[env[i], :n_q].reshape(gi.shape)
                    lg -= log_bases[i][col:]
                    gi *= np.exp(lg, out=lg)
                q = half[:, None] * (gw @ gi)  # each interval's sum, in order of v
                q[0] += Q[i]
                np.cumsum(q, axis=0, out=q)
                Q[i] = q[-1]
                np.subtract(bases[i][col:], s[i] * q, out=cur[i][j0:j1])
        for p, c in zip(panels, cur):
            p.append(c)
        v_rows = partial(quadchev.bary_matrix, v_nodes, quadchev.lobatto_bary_weights(N_V))
    return [(b, p[1:]) for b, p in zip(bases, panels)]


def _gap(coarse, fine):
    """Largest |coarse - fine| / |fine| over the entries of fine within a
    factor e^40 of its largest; NaN if either level is not finite."""
    size = np.abs(fine)
    if not (np.isfinite(coarse).all() and np.isfinite(size).all()):
        return math.nan
    keep = size >= np.max(size) * math.exp(-40.0)
    return float(np.max(np.abs(coarse - fine)[keep] / size[keep]))


def _compare_levels(R, coarse, fine):
    """Disagreement of two t resolutions at the fine nodes: the largest
    _gap over the base row and every panel, where R, the coarse reference
    panel interpolated at the fine one's nodes, acts on each t panel's run.
    """
    gaps = []
    for c, f in zip([coarse[0], *coarse[1]], [fine[0], *fine[1]]):
        runs = c.reshape(*c.shape[:-1], -1, R.shape[1])
        gaps.append(_gap((runs @ R.T).reshape(f.shape), f))
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


def _x_candidates():
    """The cheaper x rules the first rung tries before MARCH_NODES, each
    twice the one before and half the next (MARCH_NODES after the last)."""
    return (MARCH_NODES // 4, MARCH_NODES // 2)


def _x_rule(kernels, lo, grid, logs, tol):
    """Per kernel, ((x_nodes, x_gap), level): its x rule and its first-rung
    level under that rule, marched over the region lo.

    The check is nested and lazy, one _march call per rule.  Every kernel
    marches the first candidate; each candidate n's double 2n is marched
    for the kernels still undecided, and a kernel whose n-node panels meet
    the 2n-node panels in the region to tol / X_SHARE under _gap takes n,
    with that gap as x_gap; one that fails n holds MARCH_NODES, that gap
    and the 2n-node level until a later candidate passes.  A table with no
    v-panel tries no candidate: MARCH_NODES and NaN.
    """
    candidates = _x_candidates() if len(lo) else ()
    first = candidates[0] if candidates else MARCH_NODES
    out = [((MARCH_NODES, math.nan), level) for level in _march(kernels, lo, grid, logs, first)]
    todo = list(range(len(kernels)))
    for n in candidates:
        finer = _march([kernels[i] for i in todo], lo, grid, [logs[i] for i in todo], 2 * n)
        for i, fine in zip(todo, finer):
            level = out[i][1]
            # np.max, not max: a NaN gap after a finite one must fail the check
            gap = float(np.max([_gap(a, b) for a, b in zip(level[1], fine[1])], initial=0.0))
            out[i] = ((n, gap), level) if gap <= tol / X_SHARE else ((MARCH_NODES, gap), fine)
        todo = [i for i in todo if out[i][0][0] == MARCH_NODES]
        if not todo:
            break
    return out


def _ladder(kernels, breaks, v_max, slope, tol):
    """Tables of kernels whose t grids split at breaks, marched over the
    region that _first_tpanels gives for slope.

    The first rung fixes each kernel's (x_nodes, x_gap) through _x_rule:
    it marches 4 nodes, then 8, then 16 where 4 fail.  Each later rung
    marches the live kernels, one _march call per x_nodes, and then
    compares each with its level and log base row of the last rung, all
    kept by kernel, until their estimates, taken over the base row and
    the region, meet tol.  A level that is not finite raises RangeError
    at once: no finer rung brings it back.
    """
    lo = _first_tpanels(breaks, v_max, slope)
    n = N_PER_START
    grid = _make_tgrid(breaks, (n + 1) // 2)
    logs = [_log_base_row(k, grid.nodes) for k in kernels]
    rules, levels = zip(*_x_rule(kernels, lo, grid, logs, tol))
    live = list(range(len(kernels)))
    tables = [None] * len(kernels)
    while live:
        prev_grid, grid = grid, _make_tgrid(breaks, n)
        R = quadchev.bary_matrix(prev_grid.ref, prev_grid.bw, grid.ref)
        for i in live:
            logs[i] = _refine_base(kernels[i], grid, logs[i])
        fine = {}
        for nodes in sorted({rules[i][0] for i in live}):
            group = [i for i in live if rules[i][0] == nodes]
            fine.update(zip(group, _march([kernels[i] for i in group], lo, grid,
                                          [logs[i] for i in group], nodes)))
        for i in live:
            est = _compare_levels(R, levels[i], fine[i])
            if not math.isfinite(est):
                k = kernels[i]
                raise RangeError(f"I table of (s, m, u) = ({k.s}, {k.m}, {k.u:g}) is not finite")
            if est <= tol:
                tables[i] = ITable(kernels[i], v_max, grid, logs[i], tuple(fine[i][1]), est,
                                   _enveloped(logs[i]), *rules[i], tuple(lo.tolist()))
            elif n >= N_PER_MAX:
                raise ToleranceError(
                    f"I table: estimate {est:.3e} above tol {tol:.1e} at n_per={n}",
                    achieved=est,
                )
        levels = fine
        live = [i for i in live if tables[i] is None]
        n = 2 * n - 1
    return tables


def build_tables(kernels, v_max, tol=1e-9, slope=0.0):
    """Yield (index, table) for every kernel, one batch of tables at a time.

    Each table is marched over the region that holds the cone
    t >= slope * v (see _first_tpanels; slope 0 marches the whole
    table), and its est_error and x_gap are taken over the base row and
    that region.  A reader of I(1, u) alone passes slope 1/u.

    Kernels that share a t grid (the same breaks) are marched
    together, at most BATCH_KERNELS at a time: the interpolation rows of
    each rung and march step are built once for the whole batch.
    Each kernel keeps its own resolution ladder, starting at N_PER_START
    nodes per t panel, so every table, its n_per and its est_error are
    bit-identical to a batch of one.  A caller that drops each table once
    read holds one batch at a time.
    """
    v_max = float(v_max)
    if not (0 < v_max <= MAX_PANELS + 1):
        raise RangeError(f"v_max must lie in (0, {MAX_PANELS + 1}], got {v_max}")
    if not (0.0 <= slope < math.inf):
        raise RangeError(f"slope must be finite and >= 0, got {slope}")
    check_tol(tol)
    groups = {}
    for i, kern in enumerate(kernels):
        groups.setdefault(tuple(_t_breaks(kern)), []).append(i)
    for breaks, idx in groups.items():
        for lo in range(0, len(idx), BATCH_KERNELS):
            batch = idx[lo : lo + BATCH_KERNELS]
            tables = _ladder([kernels[i] for i in batch], np.array(breaks), v_max, slope, tol)
            yield from zip(batch, tables)


def build_table(kernel, v_max, tol=1e-9, slope=0.0):
    """March the table out to v_max over the region of the cone
    t >= slope * v, doubling the t resolution until tol.

    tol is a relative target; the achieved estimate comes from comparing
    each resolution with the nested half-size grid over the base row and
    the region.  Raises ToleranceError with the achieved estimate if the
    resolution ladder tops out.
    """
    return next(build_tables([kernel], v_max, tol, slope))[1]


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


def _to_float(sign, log_abs, name):
    """sign * exp(log_abs); RangeError, pointing to name, past the float range."""
    try:
        return float(sign * math.exp(log_abs))
    except OverflowError:
        raise RangeError(f"value overflows a float; use {name}") from None


def i_base(kernel, t):
    """I_s(t, v <= 1) as a real float; RangeError if it overflows."""
    return _to_float(*i_base_signed_log(kernel, t), "i_base_signed_log")


def i_eval_signed_log(table, t, v):
    """(sign, log|I_s(t, v)|) from the table; recomputes the base for v <= 1.

    Raises RangeError for a (t, v) outside the table's region: its t
    panel lies before the first t panel marched on v's v-panel.
    """
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
    if p < table.lo[idx]:
        raise RangeError(f"(t, v) = ({t}, {v}) lies outside the table's region: v-panel "
                         f"{idx + 1} is marched from t = {table.grid.breaks[table.lo[idx]]:.6g} on")
    c = (p - table.lo[idx]) * table.grid.n_per
    value = float(bv @ table.panels[idx][:, c : c + table.grid.n_per] @ bt[0])
    return _signed_log(kernel, t, value, _log_base(kernel, t) if table.enveloped else 0.0)


def i_eval(table, t, v):
    """I_s(t, v) as a real float; RangeError if it overflows."""
    return _to_float(*i_eval_signed_log(table, t, v), "i_eval_signed_log")


def closed_form_unit(s, m):
    """I_s(1, 1) for u <= 1, where f is identically 1, as an exact Fraction."""
    s = check_int("s", s, 1)
    m = check_int("m", m, s)
    return Fraction(
        math.factorial(m) ** 2 * math.factorial(2 * m - 2 * s),
        math.factorial(m - s) ** 2 * math.factorial(2 * m - s),
    )
