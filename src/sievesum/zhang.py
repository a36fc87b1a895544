"""Admissible tuples and the smoothed sieve coefficient.

The headline quantity is

    C(k, m, theta, delta) = (k theta / 2) I_(k-1)(1, u) - I_k(1, u),

with u = theta / (2 delta); a positive value certifies the corresponding
level of distribution.  The two integrals are read from marched tables and
combined through a common exponential factor, with the residual size of
the combination reported as a cancellation indicator.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import iterints, multfun, primes
from .errors import RangeError

nu_p = multfun._residue_count  # distinct residues of the offsets modulo p


def _check_offsets(offsets):
    offs = [int(h) for h in offsets]
    if len(offs) == 0:
        raise RangeError("need at least one offset")
    if len(set(offs)) != len(offs):
        raise RangeError("offsets must be distinct")
    return offs


def is_admissible(offsets):
    """True if the offsets avoid a full residue system mod every prime."""
    offs = _check_offsets(offsets)
    k = len(offs)
    # for p > k the k offsets cannot cover all p residues
    for p in primes.shared_table(max(k, 2)).primes:
        if p > k:
            break
        if nu_p(offs, int(p)) == p:
            return False
    return True


def first_k_tuple(k):
    """The first k primes exceeding k, shifted to start at 0.

    This is the standard cheap admissible tuple: none of those primes can
    divide into a full residue system modulo any p <= k.
    """
    k = int(k)
    if k < 1:
        raise RangeError("k must be positive")
    limit = max(64, 4 * k)
    while True:
        tab = primes.shared_table(limit)
        ps = tab.primes[tab.primes > k]
        if len(ps) >= k:
            offs = ps[:k].astype(int)
            return [int(h - offs[0]) for h in offs]
        limit *= 2


def tuple_singular_series(offsets, tol=1e-6):
    """Hardy-Littlewood constant of the tuple; 0.0 when inadmissible."""
    offs = _check_offsets(offsets)
    if not is_admissible(offs):
        return 0.0
    spec = multfun.builtin_spec("nu_over_p", offsets=offs)
    return multfun.singular_series(spec, 1, tol, a_variant=True)


def gpy_threshold(k, l):
    """Exact sign-flip level (l+1)(2l+k+1)/(k(2l+1)) of the u = 1 coefficient."""
    k = int(k)
    l = int(l)
    if k < 1 or l < 0:
        raise RangeError("need k >= 1 and l >= 0")
    return Fraction((l + 1) * (2 * l + k + 1), k * (2 * l + 1))


def _beta_closed(s, m):
    """I_s(1, 1) in the u <= 1 regime, exact."""
    return Fraction(
        math.factorial(m) ** 2 * math.factorial(2 * m - 2 * s),
        math.factorial(m - s) ** 2 * math.factorial(2 * m - s),
    )


def gpy_coefficient_unsmoothed(k, m, theta):
    """Closed form of the coefficient at u = 1, exact for Fraction theta."""
    k = int(k)
    m = int(m)
    if k < 2 or m <= k:
        raise RangeError("need k >= 2 and m > k")
    th = theta if isinstance(theta, Fraction) else Fraction(theta)
    val = Fraction(k, 2) * th * _beta_closed(k - 1, m) - _beta_closed(k, m)
    if isinstance(theta, Fraction):
        return val
    try:
        return float(val)
    except OverflowError:  # beyond the float range: +-inf with the exact sign
        return math.inf if val > 0 else -math.inf


@dataclass(frozen=True)
class ZhangReport:
    """Coefficient value with the pieces needed to judge it."""

    k: int
    m: int
    theta: float
    delta: float
    u: float
    sign: float
    log_abs: float
    value: float  # sign * exp(log_abs); +-inf if it overflows a float
    term_main: float
    term_sub: float
    cancellation: float  # |C| / max(|terms|); small means heavy cancellation
    table_errors: tuple


def _validate_params(k, m, theta, delta):
    k = int(k)
    m = int(m)
    if k < 2:
        raise RangeError("k must be at least 2")
    if m <= k:
        raise RangeError("m must exceed k")
    if not (0.0 < theta <= 1.0):
        raise RangeError("theta must lie in (0, 1]")
    if not (0.0 < delta <= theta / 2):
        raise RangeError("delta must lie in (0, theta/2]")
    return k, m, float(theta), float(delta)


def _to_value(sign, log_abs):
    if log_abs > 709.0:
        return sign * math.inf
    return float(sign * math.exp(log_abs))


def _combine(k, theta, pair1, pair2):
    """C = (k theta/2) I1 - I2 from signed logs, plus cancellation size."""
    (s1, l1), (s2, l2) = pair1, pair2
    la = math.log(k * theta / 2.0) + l1
    lb = l2
    mx = max(la, lb)
    if not math.isfinite(mx):
        return 0.0, -math.inf, 0.0
    y = s1 * math.exp(la - mx) - s2 * math.exp(lb - mx)
    if y == 0.0:
        return 0.0, -math.inf, 0.0
    return math.copysign(1.0, y), mx + math.log(abs(y)), abs(y)


def zhang_coefficient(k, m, theta, delta, tol=1e-9):
    """Evaluate the smoothed coefficient, building the two tables needed."""
    k, m, theta, delta = _validate_params(k, m, theta, delta)
    u = theta / (2.0 * delta)
    kern1 = iterints.make_kernel(k - 1, m, u)
    kern2 = iterints.make_kernel(k, m, u)
    tab1 = iterints.build_table(kern1, u, tol=tol)
    tab2 = iterints.build_table(kern2, u, tol=tol)
    pair1 = iterints.i_eval_signed_log(tab1, 1.0, u)
    pair2 = iterints.i_eval_signed_log(tab2, 1.0, u)
    sign, log_abs, canc = _combine(k, theta, pair1, pair2)
    return ZhangReport(
        k=k,
        m=m,
        theta=theta,
        delta=delta,
        u=u,
        sign=sign,
        log_abs=log_abs,
        value=_to_value(sign, log_abs),
        term_main=_to_value(pair1[0], math.log(k * theta / 2.0) + pair1[1]),
        term_sub=_to_value(pair2[0], pair2[1]),
        cancellation=canc,
        table_errors=(tab1.est_error, tab2.est_error),
    )


@dataclass(frozen=True)
class ScanCell:
    """One (k, m) cell of a parameter scan."""

    k: int
    m: int
    status: str  # "ok" or "rejected"
    sign: float
    log_abs: float
    value: float
    cancellation: float


def scan(k_max, m_max, theta, delta, tol=1e-6, threads=1):
    """Coefficient over the grid 1 <= k <= k_max, 1 <= m <= m_max.

    Cells with k < 2 or m <= k are marked rejected.  Tables are shared
    between cells through their (s, m) kernels; iterints.build_tables
    marches them in batches, and each table is read and dropped as it
    arrives.  threads is accepted for compatibility and does not change
    the work: tables are built in the calling thread, so results do not
    depend on it.
    """
    k_max = int(k_max)
    m_max = int(m_max)
    if k_max < 1 or m_max < 1:
        raise RangeError("grid bounds must be positive")
    if not (0.0 < theta <= 1.0):
        raise RangeError("theta must lie in (0, 1]")
    if not (0.0 < delta <= theta / 2):
        raise RangeError("delta must lie in (0, theta/2]")
    u = theta / (2.0 * delta)
    valid = [(k, m) for k in range(2, k_max + 1) for m in range(k + 1, m_max + 1)]
    needed = sorted({(k - 1, m) for k, m in valid} | {(k, m) for k, m in valid})
    kerns = [iterints.make_kernel(s, m, u) for s, m in needed]
    pairs = {}
    for i, table in iterints.build_tables(kerns, u, tol=tol):
        pairs[needed[i]] = iterints.i_eval_signed_log(table, 1.0, u)

    cells = []
    for k in range(1, k_max + 1):
        for m in range(1, m_max + 1):
            if k < 2 or m <= k:
                cells.append(ScanCell(k, m, "rejected", 0.0, -math.inf, math.nan, math.nan))
                continue
            sign, log_abs, canc = _combine(k, theta, pairs[(k - 1, m)], pairs[(k, m)])
            cells.append(ScanCell(k, m, "ok", sign, log_abs, _to_value(sign, log_abs), canc))
    return cells
