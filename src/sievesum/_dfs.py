"""Enumeration and summation over squarefree smooth integers.

``frontier`` lists every squarefree n <= nmax built from a sorted prime
array, level by level (one level per number of prime factors), in numpy
chunks of at most CHUNK entries.  Pending chunks sit on a stack and the
newest is expanded first, so memory stays bounded by the number of levels
times CHUNK, whatever nmax is.  Each n carries g(n) and log n, built up
factor by factor in increasing prime order.

``msum_float_many`` sums the terms g(n)(log x - log n)^m of several
queries from one frontier pass, each into a row of ``ExactSums``: a
bucketed exact sum in numpy (after R. M. Neal's superaccumulators,
arXiv:1505.05571), rounded once at the end, whose result is the
correctly rounded sum of the per-term floats, the bits ``math.fsum``
(Shewchuk's algorithm) returns for the same terms.  It does not depend on
the order of the terms or on the chunk size.  ``msum_float`` is its
one-query case.  ``msum_float_below`` gives, from one frontier pass, the
sums S(x/b, b) over n <= x/b with every prime factor below b for a whole
sorted array of bounds b, each added with ``math.fsum`` and bit-equal to
its own ``msum_float``.
"""

import itertools
import math
import operator

import numpy as np

CHUNK = 1 << 14  # largest number of entries expanded at once

_ROOT = (np.ones(1, np.int64), np.ones(1), np.zeros(1))  # n = 1, g = 1.0, log n = 0.0
for _arr in _ROOT:
    _arr.flags.writeable = False


def _expand(p, gp, logp, nmax, n, last, g, l):
    """Yield the chunks of every descendant of the given level-1 entries:
    their multiples by later primes with the product at most nmax, and so on."""
    stack = []

    def push(level, n, last, g, l):
        counts = p.searchsorted(nmax // n, side="right") - last - 1
        has = counts > 0
        if not has.all():
            n, last, g, l, counts = n[has], last[has], g[has], l[has], counts[has]
        if len(counts):
            stack.append((level, n, last, g, l, counts, counts.cumsum(), 0))

    push(2, n, last, g, l)
    while stack:
        level, n, last, g, l, counts, cum, start = stack.pop()
        stop = min(start + CHUNK, int(cum[-1]))
        if stop < cum[-1]:
            stack.append((level, n, last, g, l, counts, cum, stop))
        # the parents whose children fall in [start, stop), with the first
        # one's children before start and the last one's after stop cut off
        lo = int(cum.searchsorted(start, side="right"))
        hi = int(cum.searchsorted(stop, side="left")) + 1
        c = counts[lo:hi].copy()
        skip = start - int(cum[lo] - counts[lo])
        c[0] -= skip
        c[-1] -= int(cum[hi - 1]) - stop
        base = last[lo:hi] + 1 - (c.cumsum() - c)
        base[0] += skip
        j = np.arange(stop - start) + base.repeat(c)
        n = n[lo:hi].repeat(c) * p[j]
        g = g[lo:hi].repeat(c) * gp[j]
        l = l[lo:hi].repeat(c) + logp[j]
        yield level, n, g, l, p[j]
        push(level + 1, n, j, g, l)


def frontier(p, gp, logp, nmax):
    """Yield (level, n, g, l, top) chunks covering every squarefree n <= nmax
    whose prime factors all lie in the sorted int64 array p.

    level is the number of prime factors, shared by the chunk; n holds the
    values; g the products of gp over each n's factors and l the sums of
    logp, both taken in increasing prime order from 1.0 and 0.0; top the
    largest prime factor of each n (1 for n = 1).  n = 1 comes first,
    alone at level 0.  The chunks of one level need not be adjacent, and
    the arrays may be read-only.
    """
    nmax = int(nmax)
    if nmax < 1:
        return
    yield (0, *_ROOT, _ROOT[0])
    h = int(p.searchsorted(nmax, side="right"))
    for a in range(0, h, CHUNK):
        b = min(a + CHUNK, h)
        yield 1, p[a:b], gp[a:b], logp[a:b], p[a:b]
        # the primes are sorted, so if the first has no later prime to
        # pair with, none has
        if a + 1 < len(p) and int(p[a]) * int(p[a + 1]) <= nmax:
            yield from _expand(p, gp, logp, nmax, p[a:b], np.arange(a, b), gp[a:b], logp[a:b])


BATCH = 1 << 13  # largest number of terms bucketed at once
FOLD_TERMS = 1 << 24  # terms added into the float buckets between folds
LANES = 4  # copies of each bucket, filled in turn
_UNIT = 1126  # the folded totals count units of 2^-1126, the lo resolution at 2^-1074


class ExactSums:
    """Exact running sums of float64 terms, one per row, each rounded once
    by ``values``.

    np.frexp splits each term into mant * 2^e with 0.5 <= |mant| < 1, and
    s = mant * 2^26 into its integer part hi (|hi| < 2^26) and the rest
    lo = s - hi, a multiple of 2^-27 below 1 in size; the term is
    (hi + lo) * 2^(e - 26), and both splits are exact.  np.bincount adds
    the hi and the lo of each row and exponent into two float buckets,
    sized to the exponents seen.  A bucket then holds integers, or
    multiples of 2^-27, whose sum stays below 2^51 in size while it takes
    fewer than 2^25 terms, so every float addition is exact; after
    FOLD_TERMS terms the buckets fold into one Python int per row, in units
    of 2^-1126.  ``values`` divides each int by 2^1126 once; Python rounds
    int true division correctly, half to even, so each result is the float
    math.fsum returns for the same terms (+0.0 for a zero sum, as fsum
    gives in Python 3.11).  A row with a term that is not finite is NaN,
    and one whose total is past the float range an infinity of its sign.

    Terms wait in a list and go into the buckets BATCH or fewer at a time,
    so that many small arrays cost about one numpy pass over their union.
    Every bucket stays exact while FOLD_TERMS + BATCH < 2^25.
    """

    def __init__(self, rows):
        self.terms = [0] * rows  # every term added, by row
        self._totals = [0] * rows  # the folded buckets, or None after a term that is not finite
        self._pending, self._n_pending = [], 0
        self._count = 0  # terms in the buckets since the last fold
        self._e0, self._buckets = 0, None  # hi and lo by row, of the exponents e0, e0 + 1, ...
        self._lanes = np.zeros(0, np.intp)  # 0, 1, ..., LANES - 1, 0, 1, ...

    def add(self, row, t):
        """Add every entry of the float64 array t to the sum of row."""
        self.terms[row] += len(t)
        for piece in (t,) if len(t) <= BATCH else np.split(t, range(BATCH, len(t), BATCH)):
            if self._n_pending + len(piece) > BATCH:
                self._flush()
            self._pending.append((row, piece))
            self._n_pending += len(piece)
            if self._n_pending == BATCH:  # a full batch holds no array past this call
                self._flush()

    def _flush(self):
        """Add the pending terms into the buckets."""
        if not self._n_pending:
            return
        rows, pending = len(self.terms), self._pending
        t = pending[0][1] if len(pending) == 1 else np.concatenate([part for _, part in pending])
        s, e = np.frexp(t)
        s *= 2.0**26
        hi = np.trunc(s)
        s -= hi  # lo
        e0 = int(e.min())
        nb = int(e.max()) - e0 + 1
        # bucket (row, e) is entry row * nb + e - e0, kept in LANES copies
        # filled in turn: a run of terms of one exponent then does not make
        # each bincount addition wait for the one before
        off = [row * nb - e0 for row, _ in pending]
        if len(self._lanes) < len(t):
            self._lanes = np.arange(len(t)) & (LANES - 1)
        i = e.astype(np.intp)
        i += off[0] if len(pending) == 1 else np.repeat(off, [len(part) for _, part in pending])
        i *= LANES
        i += self._lanes[:len(t)]
        size = rows * nb * LANES
        sums = np.concatenate((np.bincount(i, hi, size), np.bincount(i, s, size)))
        sums = sums.reshape(2, rows, nb, LANES).sum(axis=3)
        self._count += self._n_pending
        self._pending, self._n_pending = [], 0
        if self._buckets is None:
            self._e0, self._buckets = e0, sums
        else:
            width = self._buckets.shape[2]
            a, b = min(e0, self._e0), max(e0 + nb, self._e0 + width)
            if b - a > width:  # widen to the exponents a..b-1
                wide = np.zeros((2, rows, b - a))
                wide[:, :, self._e0 - a:self._e0 - a + width] = self._buckets
                self._e0, self._buckets = a, wide
            self._buckets[:, :, e0 - self._e0:e0 - self._e0 + nb] += sums
        if self._count >= FOLD_TERMS:
            self._fold()

    def _fold(self):
        """Move the buckets into the Python int totals."""
        if self._buckets is None:
            return
        hi, lo = self._buckets
        nb = hi.shape[1]
        # digit j of a row counts units of 2^(e0 + j - 53): lo * 2^27 at
        # e, and hi at e + 27, each below 2^53 in size
        c = np.zeros((len(self.terms), -(nb + 27) // 8 * -8))
        c[:, :nb] = lo * 2.0**27
        c[:, 27:27 + nb] += hi
        finite = np.isfinite(c)
        ok = finite.all(axis=1).tolist()
        if not all(ok):
            c[~finite] = 0.0
        # eight digits at a time, exactly in int64: below 2^61 in size
        words = c.astype(np.int64).reshape(len(self.terms), -1, 8) @ (1 << np.arange(8))
        shift = self._e0 - 53 + _UNIT
        for row, word in enumerate(words.tolist()):
            if self._totals[row] is None or not ok[row]:
                self._totals[row] = None
            else:
                self._totals[row] += sum(map(operator.lshift, word, range(0, 8 * len(word), 8))) << shift
        self._count, self._buckets = 0, None

    def values(self):
        """The correctly rounded sum of every row, as a list of floats."""
        self._flush()
        self._fold()
        out = []
        for total in self._totals:
            try:
                out.append(math.nan if total is None else total / (1 << _UNIT))
            except OverflowError:
                out.append(math.inf if total > 0 else -math.inf)
        return out


def msum_float_many(p, gp, logp, queries):
    """For each query (nmax, logx, m, cap), the correctly rounded sum of
    g(n)(logx - log n)^m over the squarefree n <= nmax built from the
    primes of p up to cap, with g and log given at p by gp and logp, and
    its number of terms.  Returns a list of (value, terms) pairs aligned
    with the queries.

    One frontier pass to the largest nmax serves every query: a query
    keeps the n with n <= nmax and largest prime factor at most cap.  As
    g(n) and log n are built in increasing prime order from the same
    per-prime floats however far the pass goes, each query sees the term
    floats of a pass of its own.  Each term is g(n) * t^m with
    t = logx - log n and t^m taken by m multiplications from 1.0.  The
    terms reach one ExactSums row per query a chunk at a time, so they are
    never all held at once.  A sum with a term that is not finite is NaN,
    and one past the float range an infinity.
    """
    queries = [(int(nmax), float(logx), int(m), int(cap)) for nmax, logx, m, cap in queries]
    top_n = max((nmax for nmax, _, _, _ in queries), default=0)
    p_last = int(p[-1]) if len(p) else 0
    # the queries of one (nmax, logx) share their n and t = logx - log n,
    # and those of one m as well their terms, which a cap below every
    # prime up to nmax then filters
    families = {}
    for i, (nmax, logx, m, cap) in sorted(enumerate(queries), key=lambda iq: iq[1][2]):
        cap = cap if cap < min(nmax, p_last) else None
        families.setdefault((nmax, logx), []).append((m, i, cap))
    sums = ExactSums(len(queries))
    # a term past the float range is reported by its sum, not warned of
    with np.errstate(over="ignore", invalid="ignore"):
        for _, n, g, l, top in frontier(p, gp, logp, top_n):
            for (nmax, logx), members in families.items():
                keep = n <= nmax if nmax < top_n else slice(None)
                gs, t = g[keep], logx - l[keep]
                tm, power, terms, below = 1.0, 0, None, {}
                for m, i, cap in members:
                    if terms is None or m > power:
                        for _ in range(m - power):
                            tm = tm * t
                        power, terms = m, gs * tm
                    if cap is None:
                        sums.add(i, terms)
                    else:
                        if cap not in below:
                            below[cap] = top[keep] <= cap
                        sums.add(i, terms[below[cap]])
        values = sums.values()
    return list(zip(values, sums.terms))


def msum_float(p, gp, logp, nmax, logx, m):
    """Correctly rounded sum of g(n)(logx - log n)^m over the squarefree
    n <= nmax built from the primes p, with g and log given at p by gp and
    logp.  Returns (value, number of terms): msum_float_many's one-query case.
    """
    return msum_float_many(p, gp, logp, [(nmax, logx, m, nmax)])[0]


def msum_float_below(p, gp, logp, x, bounds, m):
    """For each b of the sorted int64 array bounds (2 <= b <= x), the
    correctly rounded sum of g(n)(log(x/b) - log n)^m over the squarefree
    n <= x/b built from the primes p with every prime factor below b.
    Returns the sums as a list aligned with bounds.

    One frontier pass over n <= x/bounds[0] serves every b: an n counts
    for the b above its largest prime factor with floor(x/b) >= n, one
    contiguous run of bounds, as x/b falls when b grows.  Each term is
    taken as msum_float takes it, with log(x/b) from math.log, so every
    sum equals msum_float(p below b, ..., floor(x/b), log(x/b), m)[0] bit
    for bit.  All the terms are held at once, about one per squarefree
    integer up to x when bounds holds every prime below x.
    """
    x = float(x)
    ys = [x / b for b in bounds.tolist()]
    if not ys:
        return []
    logy = np.array([math.log(y) for y in ys])
    neg_floor = -np.floor(ys).astype(np.int64)  # nondecreasing
    idx, terms = [], []
    for _, n, g, l, top in frontier(p, gp, logp, math.floor(ys[0])):
        lo = bounds.searchsorted(top, side="right")
        hi = neg_floor.searchsorted(-n, side="right")
        c = np.maximum(hi - lo, 0)
        # bound indices lo, lo+1, ..., hi-1 for each n, end to end
        i = np.arange(int(c.sum())) + (lo - (c.cumsum() - c)).repeat(c)
        t = logy[i] - l.repeat(c)
        tm = 1.0
        for _ in range(m):
            tm = tm * t
        idx.append(i)
        terms.append(g.repeat(c) * tm)
    idx = np.concatenate(idx)
    flat = np.concatenate(terms)[idx.argsort(kind="stable")].tolist()
    ends = np.bincount(idx, minlength=len(ys)).cumsum().tolist()
    return [math.fsum(flat[a:b]) for a, b in zip([0] + ends, ends)]


def msum_exact_m0(primes, nums, dens, nmax):
    """Exact rational sum of g(n) over squarefree n <= nmax (m = 0 only).

    g(p) = nums[i]/dens[i] for primes[i]; all lists aligned.  Returns the
    pair (total, D) with the sum equal to total/D and D = prod(dens):
    along each DFS path the common denominator is divided down exactly,
    so the accumulator stays an integer.
    """
    D = math.prod(dens)
    npr = len(primes)
    total = 0
    stack = [(0, 1, 1, D)]
    while stack:
        i0, n, num, r = stack.pop()
        total += num * r
        cap = nmax // n
        for i in range(i0, npr):
            pi = primes[i]
            if pi > cap:
                break
            stack.append((i + 1, n * pi, num * nums[i], r // dens[i]))
    return total, D
