"""Multiplicative function specs, weighted sums, and singular series.

A spec is a multiplicative function supported on squarefree integers,
given at primes as g(p) = a(p) / (p - c) with c in {0, 1}: a(p) is the
dimension k past a cutoff and is listed below it where it differs.  Past
the cutoff |g(p) - k/p| <= 2 |k| c p^-2, which is what makes the Euler
products here rigorously truncatable.

Every sum and Euler product runs over the primes p <= cap that do not
divide q: coprime_primes makes that selection from the shared prime table,
with log p read from the table and g evaluated on the selected primes only.

The Euler product G(s) = prod_p (1+g(p)p^-s)(1-p^(-1-s))^k has one
path: euler_log_taylor gives the Taylor coefficients of log|G| at 0 with
certified tail bounds, and truncate_euler owns the schedule of truncation
points.  The singular series G(0) and the residue main terms of verify
both come from it.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _dfs, primes
from .errors import RangeError, ToleranceError, check_int, check_tol

EXACT_X_MAX = 100_000
SERIES_PRIME_CAP = 1 << 27
THETA_RATIO = 1.01624  # theta(t) < 1.01624 t for all t > 0 (Rosser-Schoenfeld 1962)
_TAYLOR_CHUNK = 1 << 18


@dataclass(frozen=True)
class MultFuncSpec:
    """The multiplicative function g(p) = a(p) / (p - c), c in {0, 1}.

    a(p) = dimension_k at every prime p > cutoff; low lists the pairs
    (p, a(p)) for the primes p <= cutoff where a(p) != dimension_k.  Past
    the cutoff |g(p) - k/p| = |k| c / (p (p - c)) <= tail_bound p^-2.  The
    fields are plain data, so equal specs compare and hash equal, and
    verify's per-run dict of sums shares them.  Every field is checked
    here: RangeError unless c is 0 or 1, dimension_k, cutoff and each low
    pair are integers, and each low prime is at most the cutoff.
    """

    name: str
    dimension_k: int
    c: int
    cutoff: int = 1
    low: tuple = ()

    def __post_init__(self):
        for field, floor in (("dimension_k", None), ("c", 0), ("cutoff", 1)):
            object.__setattr__(self, field, check_int(field, getattr(self, field), floor))
        pairs = ((check_int("low prime", p, 2), check_int("a(p)", a)) for p, a in self.low)
        object.__setattr__(self, "low", tuple(sorted(pairs)))
        if self.c > 1:
            raise RangeError(f"c must be 0 or 1, got {self.c}")
        if self.low and self.low[-1][0] > self.cutoff:
            raise RangeError(f"low prime {self.low[-1][0]} exceeds the cutoff {self.cutoff}")

    @property
    def tail_bound(self):
        """The constant of |g(p) - k/p| <= tail_bound p^-2 past the cutoff."""
        return 2.0 * abs(self.dimension_k) * self.c

    def values_on(self, ps):
        """g at every prime of the sorted int64 array ps, as float64."""
        out = self.dimension_k / (ps - self.c)
        for p, a in self.low:
            i = ps.searchsorted(p)
            if i < len(ps) and ps[i] == p:
                out[i] = a / (p - self.c)
        return out

    def value_exact(self, p):
        """g(p) as a Fraction."""
        a = next((a for lp, a in self.low if lp == p), self.dimension_k)
        return Fraction(a, p - self.c)

    def negated(self):
        """The mu(n)-twisted spec: g -> -g, dimension k -> -k."""
        low = tuple((p, -a) for p, a in self.low)
        name = f"signed_mu_times({self.name})"
        return MultFuncSpec(name, -self.dimension_k, self.c, self.cutoff, low)


@dataclass(frozen=True)
class SumResult:
    """Value of a weighted sum, with the exact rational when available."""

    value: float
    exact_value: object
    terms: int


def _residue_count(offsets, p):
    """Number of distinct residues of the offsets modulo p."""
    return len({h % p for h in offsets})


# the builtins without parameters, as (k, c) of g(p) = k / (p - c)
_FIXED = {"one_over_n": (1, 0), "one_over_phi": (1, 1), "two_omega_over_n": (2, 0)}


def check_offsets(offsets):
    """The one tuple-offset rule: at least one offset, all integers, all
    distinct.  Returns them as a sorted tuple of ints."""
    offs = tuple(sorted(check_int("offsets", h) for h in (() if offsets is None else offsets)))
    if not offs:
        raise RangeError("need at least one offset")
    if len(set(offs)) != len(offs):
        raise RangeError("offsets must be distinct")
    return offs


def builtin_spec(name, k=None, offsets=None, base=None):
    """Construct one of the named built-in specs.

    Names: one_over_n, one_over_phi, two_omega_over_n, k_over_p (takes k),
    nu_over_p and nu_minus1_over_phi (take tuple offsets), signed_mu_times
    (takes base, a spec or a builtin name).  The tuple specs have
    a(p) = nu(p) - c, nu(p) the offsets' residues mod p, cut off at their diameter.
    """
    if name in _FIXED:
        return MultFuncSpec(name, *_FIXED[name])
    if name == "k_over_p":
        k = check_int("k", k)
        return MultFuncSpec(f"k_over_p({k})", k, 0)
    if name in ("nu_over_p", "nu_minus1_over_phi"):
        offsets = check_offsets(offsets)
        c = int(name == "nu_minus1_over_phi")
        cutoff = max(1, offsets[-1] - offsets[0])
        # nu(p) < len(offsets) exactly at the primes dividing a difference
        diffs = {b - a for i, a in enumerate(offsets) for b in offsets[i + 1 :]}
        ps = sorted({p for d in diffs for p in primes.factor_support(d)})
        low = tuple((p, _residue_count(offsets, p) - c) for p in ps)
        label = "{" + ",".join(str(h) for h in offsets) + "}"
        return MultFuncSpec(name + label, len(offsets) - c, c, cutoff, low)
    if name == "signed_mu_times":
        if base is None:
            raise ValueError("signed_mu_times requires base")
        if isinstance(base, str):
            base = builtin_spec(base, k=k, offsets=offsets)
        return base.negated()
    raise ValueError(f"unknown builtin spec {name!r}")


def coprime_primes(spec, cap, q):
    """(p, g(p), log p) arrays over the primes p <= cap not dividing q.

    p and log p are read from the shared prime table (views when q has no
    prime factor up to cap); g is evaluated on the selected primes only.
    """
    table = primes.shared_table(cap)
    ps, logp = table.primes, table.logp
    support = [s for s in primes.factor_support(q) if s <= cap]
    if support:
        keep = np.ones(len(ps), dtype=bool)
        keep[ps.searchsorted(support)] = False
        ps, logp = ps[keep], logp[keep]
    return ps, spec.values_on(ps), logp


def _filtered_arrays(spec, x, q, z):
    """nmax and coprime_primes for the factors allowed at (x, q, z)."""
    if x > primes.X_MAX:
        raise RangeError(f"x = {x} exceeds the representable bound 2^62")
    nmax = int(math.floor(x))
    cap = nmax
    if math.isfinite(z):
        cap = min(nmax, int(math.ceil(z)) - 1)
    return (nmax, *coprime_primes(spec, cap, q))


def _sum_impl(spec, x, m, q, z, exact):
    m, q = check_int("m", m, 0), check_int("q", q, 1)
    if not x >= 1:
        raise RangeError("x must be at least 1")
    if z < 2:
        z = 2.0
    nmax, sel_p, sel_g, sel_l = _filtered_arrays(spec, x, q, z)
    logx = math.log(float(x))
    value, terms = _dfs.msum_float(sel_p, sel_g, sel_l, nmax, logx, m)
    if exact:
        if m != 0:
            raise RangeError("exact path is defined for m = 0 only")
        if nmax > EXACT_X_MAX:
            raise RangeError(f"exact path supports x <= {EXACT_X_MAX}")
        fr = [spec.value_exact(p) for p in sel_p.tolist()]
        total, denom = _dfs.msum_exact_m0(
            [int(p) for p in sel_p], [f.numerator for f in fr], [f.denominator for f in fr], nmax
        )
        return SumResult(float(value), Fraction(total, denom), int(terms))
    return SumResult(float(value), None, int(terms))


def m_sum(spec, x, m, q, exact=False):
    """Sum of g(n) (log x/n)^m over squarefree n <= x coprime to q; with
    exact (m = 0, x <= EXACT_X_MAX) also the exact rational."""
    return _sum_impl(spec, x, m, q, math.inf, exact)


def m_sum_smooth(spec, x, m, q, z, exact=False):
    """As m_sum, additionally restricted to n with all prime factors < z
    (z = inf restricts nothing)."""
    z = float(z)
    if math.isnan(z):
        raise RangeError("z must be a number, not NaN")
    return _sum_impl(spec, x, m, q, z, exact)


def m_sum_smooth_each(spec, x, m, q, ps):
    """m_sum_smooth(spec, x/p, m, q, p).value for every p of
    the sorted int64 array ps, 2 <= p <= x, as a list.

    One enumeration serves every p (_dfs.msum_float_below), and each sum
    is bit-equal to its own m_sum_smooth call.
    """
    m, q = check_int("m", m, 0), check_int("q", q, 1)
    x = float(x)
    if len(ps) == 0:
        return []
    if not (2 <= ps[0] and ps[-1] <= x):
        raise RangeError("need 2 <= p <= x")
    sel = coprime_primes(spec, math.floor(x / ps[0]), q)
    return _dfs.msum_float_below(*sel, x, ps, m)


def log_taylor_floor(spec, order):
    """Smallest truncation point at which euler_log_taylor's tail bounds hold."""
    return max(
        spec.cutoff,
        2.0 * (abs(spec.dimension_k) + spec.tail_bound),
        17.0,
        math.exp(max(order - 1, 0) / 2.0),
    )


def _factor_log_taylor(log_a0, a0, x, lam, order):
    """Taylor coefficients at 0 of log|a0 + x (e^(-lam s) - 1)|, elementwise.

    log_a0 is the s^0 term.  The rest follow from the power-series
    logarithm recursion n l_n = n f_n - sum_{0<i<n} i l_i f_(n-i), where f_n
    are the argument's coefficients divided by a0.
    """
    f = [None]
    t = x / a0
    for n in range(1, order + 1):
        t = t * (-lam) / n
        f.append(t)
    ell = [log_a0]
    for n in range(1, order + 1):
        acc = f[n]
        for i in range(1, n):
            acc = acc - (i / n) * ell[i] * f[n - i]
        ell.append(acc)
    return ell


def _log_taylor_tail(spec, j, P, theta_P):
    """Rigorous bound on |sum over p > P of the s^j coefficient of
    log((1+g(p)p^-s)(1-p^(-1-s))^k)|.

    The coefficient is (-log p)^j / j! * sum_r r^(j-1) ((-1)^(r+1) g^r - k p^-r);
    its r = 1 part is at most c p^-2, c = spec.tail_bound, and, as
    |g(p)| <= a/p with a = |k| + c/P, the rest at most (a^2 + |k|) p^-2 C_j.
    The prime sum of (log p)^j p^-2 goes by partial summation against
    theta(t) < 1.01624 t, with the exact theta(P) closing the boundary
    term; its integral is an upper incomplete gamma function.  Valid once
    P >= log_taylor_floor.
    """
    k = abs(spec.dimension_k)
    c = spec.tail_bound
    a = k + c * P ** -1.0
    lp = math.log(P)
    edge = lp ** (j - 1) * P ** -2.0 * max(0.0, THETA_RATIO * P - theta_P)
    if j == 0:
        gamma_upper = math.exp(-lp) / lp  # E_1(y) < e^-y / y at y = log P
    else:
        gamma_upper = math.factorial(j - 1) * math.exp(-lp) * sum(
            lp**i / math.factorial(i) for i in range(j)
        )
    prime_sum = edge + THETA_RATIO * gamma_upper

    # C_j = sum_{r >= 2} r^(j-1) rho^(r-2); past r = 2j+2 consecutive terms
    # shrink by at most e^(1/2) rho <= 0.83
    rho = max(a, 1.0) / P
    cut = 2 * j + 2
    cj = sum(r ** (j - 1) * rho ** (r - 2) for r in range(2, cut))
    cj += cut ** (j - 1) * rho ** (cut - 2) / (1.0 - math.exp(0.5) * rho)
    tail = (a * a + k) * cj * prime_sum + c * prime_sum
    return tail / math.factorial(j)


def _theta(P):
    """Chebyshev's theta(P) = sum of log p over p <= P, rounded down."""
    return float(np.sum(primes.shared_table(P).logp)) * (1.0 - 1e-13)


def euler_log_taylor(spec, q, order, P):
    """Taylor coefficients at s = 0 of log|G(s)| from the primes up to P.

    G(s) = prod_{p not dividing q} (1+g(p)p^-s)(1-p^(-1-s))^k
           * prod_{p|q} (1-p^(-1-s))^k
    is the Euler product whose value at s = 0 is the singular series.
    Returns (coeffs, bounds, sign).  coeffs and bounds are lists of length
    order+1: coeffs[j] is the s^j coefficient for the product truncated to
    p <= P (the p | q factors are always whole), and bounds[j] bounds its
    distance from the untruncated coefficient: the certified tail over
    p > P plus an allowance for float rounding in the per-prime terms and
    their sum.  sign is the sign of G(0), the parity of the factors with
    1+g(p) < 0 (every factor past P is positive), or 0.0 when a factor
    1+g(p) vanishes; coeffs then leave those factors out.
    """
    order = check_int("order", order, 0)
    if P < log_taylor_floor(spec, order):
        raise RangeError(f"P = {P} is below the floor where the tail bounds hold")
    k = spec.dimension_k
    theta_P = _theta(P)
    ps, gs, lams = coprime_primes(spec, P, q)
    support = primes.factor_support(q)
    vanish = 1.0 + gs == 0.0
    sign = 0.0 if vanish.any() else (-1.0 if np.count_nonzero(gs < -1.0) % 2 else 1.0)
    if sign == 0.0:
        keep = ~vanish
        ps, gs, lams = ps[keep], gs[keep], lams[keep]
    parts = [[] for _ in range(order + 1)]
    scale = [[] for _ in range(order + 1)]
    for lo in range(0, len(ps), _TAYLOR_CHUNK):
        g = gs[lo : lo + _TAYLOR_CHUNK]
        lam = lams[lo : lo + _TAYLOR_CHUNK]
        inv_p = 1.0 / ps[lo : lo + _TAYLOR_CHUNK].astype(np.float64)
        log_a0 = np.where(
            g > -0.5, np.log1p(np.maximum(g, -0.5)), np.log(np.abs(1.0 + g))
        )
        la = _factor_log_taylor(log_a0, 1.0 + g, g, lam, order)
        lb = _factor_log_taylor(np.log1p(-inv_p), 1.0 - inv_p, -inv_p, lam, order)
        for j in range(order + 1):
            parts[j].append(float(np.sum(la[j] + k * lb[j])))
            scale[j].append(float(np.sum(np.abs(la[j]) + abs(k) * np.abs(lb[j]))))
    if support:
        sp = np.asarray(support, dtype=np.float64)
        lb = _factor_log_taylor(np.log1p(-1.0 / sp), 1.0 - 1.0 / sp, -1.0 / sp, np.log(sp), order)
        for j in range(order + 1):
            parts[j].append(float(np.sum(k * lb[j])))
            scale[j].append(float(np.sum(abs(k) * np.abs(lb[j]))))
    slack = np.finfo(np.float64).eps * (order + math.log2(len(ps) + 2) + 4)
    coeffs, bounds = [], []
    for j in range(order + 1):
        coeffs.append(math.fsum(parts[j]))
        tail = _log_taylor_tail(spec, j, P, theta_P)
        bounds.append(tail + slack * math.fsum(scale[j]))
    return coeffs, bounds, sign


def truncate_euler(spec, q, order, target, certify, what):
    """The first certified result along one schedule of truncation points.

    certify(coeffs, bounds, sign) turns one euler_log_taylor output of the
    given order into (result, bound); the first (result, bound) whose bound
    is at most target is returned.  P starts at the first power of two from
    1024 up that reaches log_taylor_floor.  After a miss P moves to the
    smallest power of two where certify, given the current coefficients and
    tails re-taken there (with theta(P) > P (1 - 1/log P) for P >= 41,
    Rosser-Schoenfeld) plus the current rounding allowances, predicts the
    target met.  The bound returned is the one certified where it stops; at
    SERIES_PRIME_CAP a ToleranceError names what and carries the bound.
    """
    check_tol(target)
    P = 1024
    while P < log_taylor_floor(spec, order):
        P *= 2
    P = min(P, SERIES_PRIME_CAP)
    while True:
        coeffs, bounds, sign = euler_log_taylor(spec, q, order, P)
        result, bound = certify(coeffs, bounds, sign)
        if bound <= target:
            return result, bound
        if P >= SERIES_PRIME_CAP:
            raise ToleranceError(
                f"{what}: tolerance {target} unreachable within the prime budget "
                f"(achieved about {bound:.3e})",
                achieved=bound,
            )
        theta_P = _theta(P)
        rounding = [b - _log_taylor_tail(spec, j, P, theta_P) for j, b in enumerate(bounds)]
        P *= 2
        while P < SERIES_PRIME_CAP:
            theta_low = P * (1.0 - 1.0 / math.log(P))
            guess = [_log_taylor_tail(spec, j, P, theta_low) + r for j, r in enumerate(rounding)]
            if certify(coeffs, guess, sign)[1] <= target:
                break
            P *= 2


def singular_series(spec, q, tol):
    """The Euler product G(0) to within tol.

    Returns prod_{p not dividing q} (1+g(p))(1-1/p)^k * prod_{p|q} (1-1/p)^k
    as sign * exp(c_0) from euler_log_taylor's order-0 truncation, at the
    first truncation point of truncate_euler where |G(0)| expm1(b_0) bounds
    the error by tol; 0.0 when a factor 1+g(p) vanishes.  The product
    prod (1-g(p))(1-1/p)^(-k) is the series of spec.negated().
    """

    def certify(coeffs, bounds, sign):
        value = sign * math.exp(coeffs[0])
        return value, abs(value) * math.expm1(bounds[0])

    return truncate_euler(spec, q, 0, tol, certify, f"singular series for {spec.name}")[0]
