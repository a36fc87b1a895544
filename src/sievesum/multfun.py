"""Multiplicative function specs, weighted sums, and singular series.

A spec is a multiplicative function supported on squarefree integers,
given at primes as g(p) = a(p) / (p - c) with c in {0, 1}: a(p) is the
dimension k past a cutoff and is listed below it where it differs.

Every sum and Euler product runs over the primes p <= cap that do not
divide q: coprime_primes makes that selection from the shared prime table,
with log p read from the table and g evaluated on the selected primes only.

The Euler product G(s) = prod_p (1+g(p)p^-s)(1-p^(-1-s))^k has one
path: euler_log_taylor gives the untruncated Taylor coefficients of log|G|
at 0 with certified bounds.  It sums the primes up to a head limit P0
derived from the spec; past P0 g(p) = k/(p - c), so the log of each factor
is a fixed double series in p^-1 and p^-s whose prime sums are prime zeta
values, computed from log zeta (Cohen 1998; Ettahri, Ramare and Surel,
Math. Comp. 90, 2021).  The singular series G(0) and the residue main
terms of verify both come from it.
"""

import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _dfs, primes
from .errors import RangeError, check_bound, check_int, check_tol

EXACT_X_MAX = 100_000


@dataclass(frozen=True)
class MultFuncSpec:
    """The multiplicative function g(p) = a(p) / (p - c), c in {0, 1}.

    a(p) = dimension_k at every prime p > cutoff; low lists the pairs
    (p, a(p)) for the primes p <= cutoff where a(p) != dimension_k.  Past
    the cutoff |g(p) - k/p| = |k| c / (p (p - c)) <= 2 |k| c p^-2.  The
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


def _limits(x, z):
    """(nmax, cap): the n <= floor(x), with every prime factor at most cap
    (below z; z = inf restricts nothing)."""
    if x > primes.X_MAX:
        raise RangeError(f"x = {x} exceeds the representable bound 2^62")
    nmax = int(math.floor(x))
    return nmax, (min(nmax, int(math.ceil(z)) - 1) if math.isfinite(z) else nmax)


def _filtered_arrays(spec, x, q, z):
    """nmax and coprime_primes for the factors allowed at (x, q, z)."""
    nmax, cap = _limits(x, z)
    return (nmax, *coprime_primes(spec, cap, q))


def m_sums(spec, q, queries):
    """For each query (x, m, z), the sum of g(n) (log x/n)^m over the
    squarefree n <= x coprime to q with every prime factor below z
    (z = inf restricts nothing, and z below 2 counts as 2), as a list of
    SumResults aligned with the queries.

    One coprime_primes selection and one enumeration serve every query
    (_dfs.msum_float_many), and each sum is the correctly rounded sum of
    the same per-term floats as a pass of its own.  A sum that is not
    finite in float64 raises RangeError naming its x and m.
    """
    q = check_int("q", q, 1)
    plan = []
    for x, m, z in queries:
        z = float(z)
        if math.isnan(z):
            raise RangeError("z must be a number, not NaN")
        m = check_int("m", m, 0)
        if not x >= 1:
            raise RangeError("x must be at least 1")
        nmax, cap = _limits(x, max(z, 2.0))
        plan.append((nmax, math.log(float(x)), m, cap))
    sel = coprime_primes(spec, max((cap for *_, cap in plan), default=1), q)
    out = []
    for (x, m, _), (value, terms) in zip(queries, _dfs.msum_float_many(*sel, plan)):
        if not math.isfinite(value):
            raise RangeError(f"the sum at x = {x:g}, m = {m} is not finite in float64")
        out.append(SumResult(value, None, terms))
    return out


def _sum_impl(spec, x, m, q, z, exact):
    (res,) = m_sums(spec, q, [(x, m, z)])
    if not exact:
        return res
    if m != 0:
        raise RangeError("exact path is defined for m = 0 only")
    nmax, sel_p, _, _ = _filtered_arrays(spec, x, q, max(z, 2.0))
    if nmax > EXACT_X_MAX:
        raise RangeError(f"exact path supports x <= {EXACT_X_MAX}")
    fr = [spec.value_exact(p) for p in sel_p.tolist()]
    total, denom = _dfs.msum_exact_m0(
        [int(p) for p in sel_p], [f.numerator for f in fr], [f.denominator for f in fr], nmax
    )
    return SumResult(res.value, Fraction(total, denom), res.terms)


def m_sum(spec, x, m, q, exact=False):
    """Sum of g(n) (log x/n)^m over squarefree n <= x coprime to q, as
    m_sums' one-query case; with exact (m = 0, x <= EXACT_X_MAX) also the
    exact rational."""
    return _sum_impl(spec, x, m, q, math.inf, exact)


def m_sum_smooth(spec, x, m, q, z, exact=False):
    """As m_sum, additionally restricted to n with all prime factors < z
    (z = inf restricts nothing)."""
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


# Bernoulli numbers B_2, B_4, ..., B_18: the eight Euler-Maclaurin
# corrections of _rough_log_zeta and the one that bounds their remainder
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510, 43867 / 798)
_EM_N = 64  # zeta(sigma) from the terms n < 64 and the corrections at 64


def _mul(a, b):
    """Product of two truncated power series of equal length."""
    return [math.fsum(a[i] * b[n - i] for i in range(n + 1)) for n in range(len(a))]


def _exp(a):
    """exp of a truncated power series, by n e_n = sum_{i=1}^n i a_i e_(n-i)."""
    e = [math.exp(a[0])]
    for n in range(1, len(a)):
        e.append(math.fsum(i * a[i] * e[n - i] for i in range(1, n + 1)) / n)
    return e


def _log(log_a0, f):
    """log of the truncated power series a_0 (1 + f_1 s + f_2 s^2 + ...),
    given log a_0, by n l_n = n f_n - sum_{0<i<n} i l_i f_(n-i).  f_0 is not
    read; the terms may be arrays, taken elementwise."""
    ell = [log_a0]
    for n in range(1, len(f)):
        acc = f[n]
        for i in range(1, n):
            acc = acc - (i / n) * ell[i] * f[n - i]
        ell.append(acc)
    return ell


def _factor_log_taylor(x, lam, order):
    """Taylor coefficients at s = 0 of log|1 + x e^(-lam s)|, elementwise."""
    a0 = 1.0 + x
    log_a0 = np.where(x > -0.5, np.log1p(np.maximum(x, -0.5)), np.log(np.abs(a0)))
    f = [None]
    t = x / a0
    for n in range(1, order + 1):
        t = t * (-lam) / n
        f.append(t)
    return _log(log_a0, f)


def _head_limit(spec):
    """P0, the last prime of the head: the smallest power of two >= 1024,
    the cutoff and 1024 |k|.  Past P0 every factor is positive and the tail
    series in p^-1 shrinks by about |k| / P0 <= 1/1024 a term."""
    return 1 << (max(1024, spec.cutoff, 1024 * abs(spec.dimension_k)) - 1).bit_length()


def _mobius(n):
    """mu(n), by trial division (n is small)."""
    ps = [p for p in range(2, n + 1) if n % p == 0 and all(p % d for d in range(2, p))]
    return 0 if any(n % (p * p) == 0 for p in ps) else (-1) ** len(ps)


def _rough_log_zeta(t, P0, order):
    """Taylor coefficients at s = 0 of log zeta(t + s) prod_{p <= P0} (1 - p^(-t-s)),
    for an integer t >= 2, and a majorant of the terms they are summed from.

    zeta(t + s) - 1 is the Euler-Maclaurin sum at N = 64: the terms
    1 < n < N, N^(1-sigma)/(sigma-1), N^-sigma/2 and B_2i/(2i)! (sigma)_(2i-1)
    N^(1-2i-sigma) for i <= 8, each a series in s; its log is taken through
    log1p.  The factors of the primes up to P0 are then added elementwise.
    """
    lm = np.log(np.arange(2, _EM_N, dtype=np.float64))
    wm = np.exp(-t * lm)
    head = [float(np.sum(wm * (-lm) ** j)) / math.factorial(j) for j in range(order + 1)]
    power = [_EM_N**-t * (-math.log(_EM_N)) ** j / math.factorial(j) for j in range(order + 1)]
    poly = [_EM_N / (t - 1) * (-1 / (t - 1)) ** j for j in range(order + 1)]
    poly[0] += 0.5
    poch = ([float(t), 1.0] + [0.0] * order)[: order + 1]
    for i, b in enumerate(_BERNOULLI[:-1], 1):
        w = b / math.factorial(2 * i) * _EM_N ** (1 - 2 * i)
        poly = [v + w * h for v, h in zip(poly, poch)]
        for u in (t + 2 * i - 1, t + 2 * i):
            poch = [u * poch[0]] + [u * poch[j] + poch[j - 1] for j in range(1, order + 1)]
    zeta1 = [h + v for h, v in zip(head, _mul(power, poly))]
    f = [0.0] + [z / (1.0 + zeta1[0]) for z in zeta1[1:]]
    log_zeta = _log(math.log1p(zeta1[0]), f)
    table = primes.shared_table(P0)
    lp = _factor_log_taylor(-np.exp(-t * table.logp), table.logp, order)
    coeffs = [math.fsum([lz, *v]) for lz, v in zip(log_zeta, lp)]
    scale = [abs(lz) + abs(fj) + math.fsum(np.abs(v)) for lz, fj, v in zip(log_zeta, f, lp)]
    return coeffs, scale


def _tail_weights(k, c, a, order):
    """sum_b beta_(a,b) b^j for j = 0..order, each rounded once, and
    sum_b |beta_(a,b)|, for the coefficients beta_(a,b) of p^(-a-bs) in the
    log of a factor past the cutoff: -k/b at a = b from (1 - p^(-1-s))^k,
    and (-1)^(b+1) k^b/b C(a-1, b-1) c^(a-b) from log(1 + k p^-s/(p - c))."""
    beta = {b: Fraction((-1) ** (b + 1) * k**b * math.comb(a - 1, b - 1) * c ** (a - b)
                        - k * (a == b), b) for b in range(1, a + 1)}
    gam = [float(sum(v * b**j for b, v in beta.items())) for j in range(order + 1)]
    return gam, float(sum(map(abs, beta.values())))


def _rough_tail(spec, P0, order, allowance):
    """The s^j coefficients of the sum over p > P0 of the log of the factor
    (1 + k p^-s/(p - c))(1 - p^(-1-s))^k, with a rounding scale and a bound
    on what the series leave out.

    The log of a factor is sum_{a >= 2, b <= a} beta_(a,b) p^(-a-bs), and
    sum_{p > P0} p^-sigma = sum_n mu(n)/n log zeta_P0(n sigma), with zeta_P0
    from _rough_log_zeta; coefficient j of a piece (a, b, n) is
    (nb)^j times that of log zeta_P0(na + s).  The pieces are taken in order
    of t = na until what is left is at most 1/32 of allowance(j, scale_j)
    at every order.  Every omitted piece, and the Euler-Maclaurin remainder
    of every taken one, is analytic on |s| <= rho: its modulus there is
    bounded through |p^(-a-bs)| <= p^(-t(1-rho)) and sum_{p > P0} p^-x <=
    P0^(1-x)/(x-1), with sum_b |beta_(a,b)| <= 2|k| W^(a-1), W = max(|k|+c, 1),
    and divided by rho^j (Cauchy).
    """
    k, K, c = spec.dimension_k, abs(spec.dimension_k), spec.c
    W = max(K + c, 1)
    coeffs, scale = [0.0] * (order + 1), [0.0] * (order + 1)
    taken = []  # (t, sum over its pieces of sum_b |beta_(a,b)| / n)

    def left_out(A, j):
        rho = min(0.25, j / ((A + 1) * math.log(P0)))
        x = (A + 1) * (1 - rho)
        omitted = 4 * K * (A + 1) * W**A * P0 ** (1 - x) / (x - 1) / (1 - 2 * W * P0 ** (rho - 1))
        remainder = 0.0
        for t, weight in taken:
            x, y = t * (1 - rho), t * (1 + rho)
            size = math.prod(y + i for i in range(18)) * _BERNOULLI[-1] / math.factorial(18)
            remainder += 4 * weight * size * _EM_N ** (-x - 17) / (x + 17)
        return (omitted + remainder) / rho**j

    for t in itertools.count(2):
        ell, ell_scale = _rough_log_zeta(t, P0, order)
        weight = 0.0
        for n in range(1, t // 2 + 1):
            mu = _mobius(n)
            if t % n or not mu:
                continue
            gam, size = _tail_weights(k, c, t // n, order)
            for j in range(order + 1):
                coeffs[j] += mu * n ** (j - 1) * gam[j] * ell[j]
                scale[j] += n ** (j - 1) * abs(gam[j]) * ell_scale[j]
            weight += size / n
        taken.append((t, weight))
        bounds = [left_out(t, j) for j in range(order + 1)]
        if all(b <= allowance(j, s) / 32 for j, (b, s) in enumerate(zip(bounds, scale))):
            return coeffs, scale, bounds


def euler_log_taylor(spec, q, order):
    """Taylor coefficients at s = 0 of log|G(s)|, untruncated, with bounds.

    G(s) = prod_{p not dividing q} (1+g(p)p^-s)(1-p^(-1-s))^k
           * prod_{p|q} (1-p^(-1-s))^k
    is the Euler product whose value at s = 0 is the singular series.
    Returns (coeffs, bounds, sign), coeffs and bounds of length order+1.
    The head, the primes up to P0 = _head_limit(spec) (the p | q factors
    always whole), is summed prime by prime; the tail past P0, where
    g(p) = k/(p - c), comes from prime zeta values (_rough_tail).
    bounds[j] bounds |coeffs[j] - c_j| for the exact coefficient c_j: an
    allowance for float rounding in both parts and the tail's certified
    truncation bound.  sign is the sign of G(0), the parity of the factors
    with 1+g(p) < 0 (every factor past P0 is positive), or 0.0 when a
    factor 1+g(p) vanishes; coeffs then leave those factors out.
    """
    order = check_int("order", order, 0)
    k = spec.dimension_k
    P0 = _head_limit(spec)
    ps, gs, lams = coprime_primes(spec, P0, q)
    vanish = 1.0 + gs == 0.0
    sign = 0.0 if vanish.any() else (-1.0 if np.count_nonzero(gs < -1.0) % 2 else 1.0)
    if sign == 0.0:
        ps, gs, lams = ps[~vanish], gs[~vanish], lams[~vanish]
    sp = np.asarray(primes.factor_support(q), dtype=np.float64)
    small, big = sp[sp <= P0], sp[sp > P0]  # the tail series holds all of big's factors
    factors = [  # (weight, Taylor coefficients) of the logs in the head
        (1.0, _factor_log_taylor(gs, lams, order)),
        (k, _factor_log_taylor(-1.0 / ps, lams, order)),
        (k, _factor_log_taylor(-1.0 / small, np.log(small), order)),
        (-1.0, _factor_log_taylor(k / (big - spec.c), np.log(big), order)),
    ]
    parts = [[w * math.fsum(f[j]) for w, f in factors] for j in range(order + 1)]
    head_scale = [math.fsum(abs(w) * math.fsum(np.abs(f[j])) for w, f in factors)
                  for j in range(order + 1)]
    slack = np.finfo(np.float64).eps * (order + 4)
    tail, tail_scale, left_out = _rough_tail(spec, P0, order,
                                             lambda j, s: slack * (head_scale[j] + s))
    coeffs = [math.fsum(parts[j] + [tail[j]]) for j in range(order + 1)]
    bounds = [slack * (head_scale[j] + tail_scale[j]) + left_out[j] for j in range(order + 1)]
    return coeffs, bounds, sign


def singular_series(spec, q, tol):
    """The Euler product G(0) to within tol, relative.

    Returns prod_{p not dividing q} (1+g(p))(1-1/p)^k * prod_{p|q} (1-1/p)^k
    as sign * exp(c_0) from euler_log_taylor at order 0, whose relative
    error expm1(b_0) must be at most tol (else a ToleranceError carries
    it); 0.0, which is exact, when a factor 1+g(p) vanishes.  A G(0) past
    the float range raises RangeError with its log.  The product
    prod (1-g(p))(1-1/p)^(-k) is the series of spec.negated().
    """
    check_tol(tol)
    coeffs, bounds, sign = euler_log_taylor(spec, q, 0)
    # a tuple spec is labelled by its kind and its number of offsets, not by the offsets
    label = re.sub(r"\{(.*?)\}", lambda g: f"({g[1].count(',') + 1} offsets)", spec.name)
    check_bound(f"singular series for {label}", abs(sign) * math.expm1(bounds[0]), tol)
    try:
        return sign * math.exp(coeffs[0])
    except OverflowError:
        raise RangeError(f"the singular series is past the float range: "
                         f"log G(0) = {coeffs[0]:.6g}") from None
