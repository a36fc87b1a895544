"""Enumeration and summation over squarefree smooth integers.

``frontier`` lists every squarefree n <= nmax built from a sorted prime
array, level by level (one level per number of prime factors), in numpy
chunks of at most CHUNK entries.  Pending chunks sit on a stack and the
newest is expanded first, so memory stays bounded by the number of levels
times CHUNK, whatever nmax is.  Each n carries g(n) and log n, built up
factor by factor in increasing prime order.

``msum_float`` sums the terms g(n)(log x - log n)^m with ``math.fsum``
(Shewchuk's algorithm), whose result is the correctly rounded sum of the
per-term floats: it does not depend on the order of the terms or on the
chunk size.  ``msum_float_below`` gives, from one frontier pass, the sums
S(x/b, b) over n <= x/b with every prime factor below b for a whole sorted
array of bounds b, each bit-equal to its own ``msum_float``.
"""

import itertools
import math

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


def msum_float(p, gp, logp, nmax, logx, m):
    """Correctly rounded sum of g(n)(logx - log n)^m over the squarefree
    n <= nmax built from the primes p, with g and log given at p by gp and
    logp.  Returns (value, number of terms).

    Each term is g(n) * t^m with t = logx - log n and t^m taken by m
    multiplications from 1.0.  The terms reach math.fsum one chunk at a
    time, so they are never all held at once.
    """
    logx = float(logx)
    sizes = []

    def chunks():
        for _, _, g, l, _ in frontier(p, gp, logp, nmax):
            t = logx - l
            tm = 1.0
            for _ in range(m):
                tm = tm * t
            sizes.append(len(g))
            yield (g * tm).tolist()

    value = math.fsum(itertools.chain.from_iterable(chunks()))
    return value, sum(sizes)


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
