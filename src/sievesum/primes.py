"""Prime tables and the factorization of moduli.

One module-wide table (shared_table) holds the primes up to its limit and
their logarithms.  It grows geometrically, sieving only the new stretch,
and computes log p over the whole table once per growth; every smaller
table it hands out is a view of the two arrays, so a prime's log p has the
same bits however far the table has grown.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import RangeError, check_int

X_MAX = 1 << 62  # values and intermediate products stay below this bound
SIEVE_MAX = 1 << 30  # largest supported sieve limit


@dataclass(frozen=True)
class PrimeTable:
    """All primes up to limit, as a sorted int64 array, and their
    natural logarithms as float64."""

    limit: int
    primes: np.ndarray
    logp: np.ndarray


def _table(limit, ps):
    logp = ps.astype(np.float64)
    np.log(logp, out=logp)
    return PrimeTable(limit, ps, logp)


def _sieve(lo, hi):
    """Primes in [lo, hi], 2 <= lo, as a sorted int64 array: only that
    stretch is sieved, by the primes up to sqrt(hi)."""
    is_prime = np.ones(hi + 1 - lo, dtype=bool)
    root = math.isqrt(hi)
    for p in (_sieve(2, root).tolist() if root >= 2 else ()):
        start = max(p * p, -(-lo // p) * p)
        is_prime[start - lo :: p] = False
    return np.nonzero(is_prime)[0].astype(np.int64) + lo


def _checked(limit):
    limit = check_int("limit", limit, 0)
    if limit > SIEVE_MAX:
        raise RangeError(f"sieve limit {limit} exceeds supported bound {SIEVE_MAX}")
    return limit


def generate_primes(limit):
    """Sieve of Eratosthenes up to limit inclusive."""
    limit = _checked(limit)
    if limit < 2:
        return _table(limit, np.empty(0, dtype=np.int64))
    return _table(limit, _sieve(2, limit))


_cached_table = None


def shared_table(limit):
    """The primes up to limit and their logs, as views of the module-wide
    table; it grows geometrically, sieving only the stretch past its limit."""
    global _cached_table
    limit = _checked(limit)
    if _cached_table is None:
        _cached_table = generate_primes(max(limit, 1 << 16))
    elif _cached_table.limit < limit:
        old = _cached_table
        new_limit = max(limit, min(2 * old.limit, SIEVE_MAX))
        grown = _sieve(old.limit + 1, new_limit)
        _cached_table = _table(new_limit, np.concatenate([old.primes, grown]))
    if _cached_table.limit == limit:
        return _cached_table
    cut = int(np.searchsorted(_cached_table.primes, limit, side="right"))
    return PrimeTable(limit, _cached_table.primes[:cut], _cached_table.logp[:cut])


def _is_probable_prime(n):
    """Deterministic Miller-Rabin for n < 3.3e24."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_brent(n):
    """Brent's cycle variant of Pollard rho; n must be odd composite."""
    if n % 2 == 0:
        return 2
    for c in range(1, 100):
        y, r, q = 2, 1, 1
        g, x, ys = 1, 0, 0
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"rho failed to split {n}")


def factor_support(q):
    """Sorted distinct primes dividing q (trial division, then rho)."""
    return list(_support(check_int("q", q, 1)))


@functools.lru_cache(maxsize=1024)
def _support(q):
    """factor_support as a tuple, kept for the last 1024 moduli."""
    if q == 1:
        return ()
    support = []
    table = shared_table(100_000)
    for p in table.primes:
        p = int(p)
        if p * p > q:
            break
        if q % p == 0:
            support.append(p)
            while q % p == 0:
                q //= p
    if q > 1:
        big = [q]
        while big:
            n = big.pop()
            if _is_probable_prime(n):
                support.append(n)
                continue
            d = _pollard_brent(n)
            rest = n // d
            while rest % d == 0:
                rest //= d
            big.append(d)
            if rest > 1:
                big.append(rest)
        support = sorted(set(support))
    return tuple(support)
