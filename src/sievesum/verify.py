"""Numerical convergence checks for the weighted-sum asymptotics.

Each check measures the finite sums at a ladder of x values and compares
them against the predicted main term: the whole residue polynomial in
log x of the Selberg-Delange method, not only its leading coefficient.
What separates the two is then a power-saving error, so the residuals
should fall quickly along the ladder.  A report's verdict is True when
the residual sequence decreases with at most one violation.

The residue m! Res_{s=0} F(s) x^s / s^(m+1), with F(s) = zeta(1+s)^k G(s)
the Dirichlet series of g, needs the Laurent coefficients of zeta(1+s)
(the Stieltjes constants, below) and the Taylor coefficients of the Euler
product G at 0 (multfun.euler_log_taylor, untruncated, with certified
bounds).  The series G(0) is the exponential of the first of them, so one
call per check yields every coefficient it needs, certified on the bound
the check reports.  Every report carries those polynomial coefficients
and a certified bound on the relative error of its predicted values.

The measured side is a set of sums (x, m, z) of multfun.m_sums, listed
by each check's *_queries function.  measure computes, in one m_sums call
and so from one enumeration, every sum not yet kept in a dict shared by
the checks of a run; measuring the union of a run's queries first gives
the whole run one pass.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import dde, multfun
from .errors import RangeError, check_bound, check_int, check_tol
from .multfun import _exp, _mul

DEFAULT_LADDER = (1e4, 1e5, 1e6, 1e7)
DEEP_LADDER = (1e4, 1e5, 1e6, 1e7, 1e8)

# Stieltjes constants gamma_0..gamma_31, rounded to double precision:
# zeta(1+s) = 1/s + sum_n (-1)^n gamma_n s^n / n!
STIELTJES = (
    0.5772156649015329,
    -0.07281584548367673,
    -0.00969036319287232,
    0.002053834420303346,
    0.0023253700654673,
    0.0007933238173010627,
    -0.0002387693454301996,
    -0.000527289567057751,
    -0.0003521233538030395,
    -3.439477441808805e-05,
    0.0002053328149090648,
    0.0002701844395439035,
    0.0001672729121051402,
    -2.7463806603760158e-05,
    -0.00020920926205929996,
    -0.0002834686553202414,
    -0.00019969685830896976,
    2.6277037109918338e-05,
    0.0003073684081492528,
    0.0005036054530473557,
    0.00046634356151155945,
    0.00010443776975600011,
    -0.0005415995822039977,
    -0.0012439620904082457,
    -0.0015885112789035616,
    -0.0010745919527384888,
    0.0006568035186371545,
    0.0034778369136185382,
    0.00640006853170063,
    0.007371151770472239,
    0.003557728855573161,
    -0.007513325997815229,
)

_EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class ConvergenceReport:
    """Measured-versus-predicted values along an x ladder."""

    label: str
    params: dict
    xs: tuple
    predicted: tuple
    measured: tuple
    residuals: tuple  # |measured/predicted - 1|
    verdict: bool


@dataclass(frozen=True)
class MainTerm:
    """The residue main term sum_j coeffs[j] (log x)^j of one weighted sum.

    errors[j] bounds |coeffs[j] - c_j| for the exact residue coefficient
    c_j; series is the singular series, the value of G at 0.
    """

    series: float
    coeffs: tuple
    errors: tuple

    def value(self, lx, weights=None):
        """sum_j c_j lx^j w_j, the weights defaulting to 1."""
        weights = weights or [1.0] * len(self.coeffs)
        return math.fsum(c * lx**j * w for j, (c, w) in enumerate(zip(self.coeffs, weights)))

    def error(self, lx, weights=None):
        """Bound on |value - exact|, with an allowance for evaluation rounding."""
        weights = weights or [1.0] * len(self.coeffs)
        err = math.fsum(e * lx**j * abs(w) for j, (e, w) in enumerate(zip(self.errors, weights)))
        size = math.fsum(abs(c * lx**j * w) for j, (c, w) in enumerate(zip(self.coeffs, weights)))
        return err + 4 * (len(self.coeffs) + 2) * _EPS * size


def _verdict(residuals):
    """At most one rise along the ladder, and no NaN residual."""
    bad = sum(1 for a, b in zip(residuals, residuals[1:]) if b >= a)
    return bad <= 1 and not any(map(math.isnan, residuals))


def _positive_dimension(spec, m):
    """spec's dimension k, once k >= 1 and k + m is at most len(STIELTJES)."""
    k = spec.dimension_k
    if k < 1:
        raise RangeError(f"{spec.name}: check needs a positive integer dimension, got {k}")
    if k + m > len(STIELTJES):
        raise RangeError(f"k + m = {k + m} exceeds the {len(STIELTJES)} tabulated Stieltjes constants")
    return k


def _report(label, params, xs, predicted, measured):
    residuals = tuple(
        abs(m / p - 1.0) if p != 0.0 else math.inf for p, m in zip(predicted, measured)
    )
    return ConvergenceReport(
        label, params, tuple(xs), tuple(predicted), tuple(measured), residuals, _verdict(residuals)
    )


def _residue_coeffs(k, m, sign, log_g, log_g_err):
    """Coefficients c_0..c_(k+m) of m! Res_{s=0} zeta(1+s)^k G(s) x^s / s^(m+1)
    in powers of log x, with bounds on their errors.

    log_g and log_g_err hold the Taylor coefficients of log|G| at 0 and
    their error bounds (only the first k+m+1 are read), and sign is the
    sign of G(0).  With H(s) = (s zeta(1+s))^k G(s), c_l = m!/l! times the
    s^(k+m-l) coefficient of H.  Errors travel through coefficientwise
    majorants: the exact G is sign exp(A) exp(D) for the series A of log_g
    and a series D dominated by log_g_err; the Stieltjes constants and the
    series arithmetic add a few roundings relative to the majorant
    |(s zeta(1+s))^k| |G|.
    """
    n = k + m + 1
    z = [1.0] + [(-1) ** i * STIELTJES[i] / math.factorial(i) for i in range(n - 1)]
    zeta, zeta_bar = [1.0] + [0.0] * (n - 1), [1.0] + [0.0] * (n - 1)
    for _ in range(k):
        zeta = _mul(zeta, z)
        zeta_bar = _mul(zeta_bar, [abs(v) for v in z])
    spread = _exp(list(log_g_err[:n]))
    spread[0] = math.expm1(log_g_err[0])
    g = [sign * v for v in _exp(list(log_g[:n]))]
    g_bar = _exp([log_g[0]] + [abs(v) for v in log_g[1:n]])
    g_err = _mul(g_bar, spread)
    h = _mul(zeta, g)
    h_bar = _mul(zeta_bar, g_bar)
    h_err = [e + (k + 2 * n + 4) * _EPS * b for e, b in zip(_mul(zeta_bar, g_err), h_bar)]
    coeffs, errors = [], []
    for l in range(n):
        fac = float(Fraction(math.factorial(m), math.factorial(l)))
        coeffs.append(fac * h[n - 1 - l])
        errors.append(fac * h_err[n - 1 - l])
    return coeffs, errors


def _main_terms(spec, q, ms, lxs, series_tol, combine):
    """MainTerms of the orders ms from one certified Euler product.

    combine(mains, lx) is the (value, error bound) of the quantity checked
    at log x = lx; the Taylor coefficients of log G (multfun.euler_log_taylor,
    at order k + max(ms)) must certify a relative error bound of at most
    series_tol at every lx, else a ToleranceError carries the bound.
    Returns (mains, bound).
    """
    ms = [check_int("m", m, 0) for m in ms]
    k = _positive_dimension(spec, max(ms))
    check_tol(series_tol)
    log_g, log_g_err, sign = multfun.euler_log_taylor(spec, q, k + max(ms))
    if sign == 0.0:
        raise RangeError(f"{spec.name}: the singular series vanishes, so there is no main term")
    series = sign * math.exp(log_g[0])
    mains = []
    for m in ms:
        coeffs, errors = _residue_coeffs(k, m, sign, log_g, log_g_err)
        mains.append(MainTerm(series, tuple(coeffs), tuple(errors)))
    bound = 0.0
    for lx in lxs:
        value, err = combine(mains, lx)
        bound = max(bound, err / abs(value) if value != 0.0 else math.inf)
    what = f"relative error of the main term for {spec.name}, m = {','.join(map(str, ms))}"
    check_bound(what, bound, series_tol)
    return mains, bound


def main_term(spec, q, m, xs, series_tol, weights=None):
    """The residue main term of the weighted sum of order m, certified on xs.

    G's Taylor coefficients, and with them the series G(0), come from one
    multfun.euler_log_taylor call; the relative error bound of
    sum_j c_j (log x)^j weights[j] must be at most series_tol at every x of
    the ladder (weights default to 1), else a ToleranceError carries it.
    Returns (MainTerm, bound).
    """
    mains, bound = _main_terms(
        spec, q, [m], [math.log(x) for x in xs], series_tol,
        lambda mains, lx: (mains[0].value(lx, weights), mains[0].error(lx, weights)),
    )
    return mains[0], bound


def measure(spec, q, queries, sums=None):
    """The value of multfun.m_sums for each query (x, m, z), as a list.

    Values are kept in the dict sums under (spec, x, m, q, z); the queries
    not there yet are computed together, in one m_sums call.
    """
    sums = {} if sums is None else sums
    keys = [(spec, x, m, q, z) for x, m, z in queries]
    todo = list(dict.fromkeys(key for key in keys if key not in sums))
    if todo:
        results = multfun.m_sums(spec, q, [(x, m, z) for _, x, m, _, z in todo])
        sums.update((key, res.value) for key, res in zip(todo, results))
    return [sums[key] for key in keys]


def _ladder(xs):
    """xs, or DEFAULT_LADDER if None, once every x is finite and > 1 (log x > 0)."""
    xs = DEFAULT_LADDER if xs is None else tuple(xs)
    for x in xs:
        if not (1.0 < x < math.inf):
            raise RangeError(f"every ladder x must be finite and > 1, got {x}")
    return xs


def theorem1_queries(spec, m=1, xs=None):
    """The sums (x, m, inf) that check_theorem1 measures, once its order,
    the spec's dimension and the ladder pass their checks."""
    m = check_int("m", m, 0)
    _positive_dimension(spec, m)
    return [(x, m, math.inf) for x in _ladder(xs)]


def check_theorem1(spec, m=1, q=1, xs=None, series_tol=1e-7, sums=None):
    """Plain sums against the full residue main term.

    predicted = m! Res_{s=0} F(s) x^s / s^(m+1) = sum_j c_j (log x)^j, whose
    top coefficient c_(k+m) = series * m!/(k+m)! is the classical leading
    term.  params carries the c_j ("main_coeffs") and the certified
    relative error bound of predicted ("main_bound", at most series_tol).
    The sums of theorem1_queries come from one measure call, kept in
    sums when a dict is passed, for the other checks of the run to share.
    """
    m, q = check_int("m", m, 0), check_int("q", q, 1)
    queries = theorem1_queries(spec, m, xs)
    xs = [x for x, _, _ in queries]
    main, bound = main_term(spec, q, m, xs, series_tol)
    predicted = [main.value(math.log(x)) for x in xs]
    measured = measure(spec, q, queries, sums)
    return _report(
        f"{spec.name}: weighted sum vs main term",
        {"m": m, "q": q, "series": main.series, "main_coeffs": main.coeffs, "main_bound": bound},
        xs,
        predicted,
        measured,
    )


def _root(x, u):
    """z = x^(1/u), or inf where that overflows a float (z > x restricts nothing)."""
    try:
        return x ** (1.0 / u)
    except OverflowError:
        return math.inf


def theorem2_queries(spec, m=1, u=2.0, xs=None):
    """The sums (x, m, x^(1/u)) that check_theorem2 measures, once its
    order, the spec's dimension, u and the ladder pass their checks."""
    m = check_int("m", m, 0)
    _positive_dimension(spec, m)
    if not (u > 0):
        raise RangeError("u must be positive")
    return [(x, m, _root(x, u)) for x in _ladder(xs)]


def check_theorem2(spec, m=1, q=1, u=2.0, xs=None, series_tol=1e-7, sums=None):
    """Smoothed sums at z = x^(1/u) against the f-weighted main term.

    With the theorem-1 polynomial sum_j c_j (log x)^j, predicted is
    sum_j c_j (log x)^j f(u; k, j-k): by the Buchstab identity, with the
    prime sum replaced by k dy/(y log y), each power (log x)^j is smoothed
    by the solution of the delay equation of exponent j.  main_bound
    certifies the coefficients; the f values carry the solver's residual
    gate.  The sums of theorem2_queries are measured as in check_theorem1.
    """
    m, q = check_int("m", m, 0), check_int("q", q, 1)
    queries = theorem2_queries(spec, m, u, xs)
    xs = [x for x, _, _ in queries]
    k = spec.dimension_k
    U = max(1.0, u)
    weights = [dde.eval_f(dde.solve_f_exponent(k, j, U), u) for j in range(k + m + 1)]
    fu = weights[k + m]  # f(u; k, m) itself
    main, bound = main_term(spec, q, m, xs, series_tol, weights)
    predicted = [main.value(math.log(x), weights) for x in xs]
    measured = measure(spec, q, queries, sums)
    return _report(
        f"{spec.name}: smoothed sum vs f-weighted main term",
        {
            "m": m,
            "q": q,
            "u": u,
            "f(u)": fu,
            "series": main.series,
            "main_coeffs": main.coeffs,
            "main_bound": bound,
        },
        xs,
        predicted,
        measured,
    )


def _coeffs(coeffs):
    """coeffs as a list of floats, once there is one or more, all finite."""
    coeffs = [float(c) for c in coeffs]
    if not coeffs or not all(map(math.isfinite, coeffs)):
        raise RangeError(f"need one or more finite polynomial coefficients, got {coeffs}")
    return coeffs


def weight_queries(spec, coeffs, xs=None):
    """The power sums (x, j, inf), j below the number of coefficients, that
    check_weight_lemma measures, once the coefficients, the spec's
    dimension and the ladder pass their checks."""
    d = len(_coeffs(coeffs))
    _positive_dimension(spec, d - 1)
    return [(x, j, math.inf) for x in _ladder(xs) for j in range(d)]


def check_weight_lemma(spec, coeffs, q=1, xs=None, series_tol=1e-7, sums=None):
    """Polynomial-weight sums against the combined residue main term.

    coeffs a_0..a_d define W(t) = sum a_j t^j; the measured side combines
    the power sums, sum_j a_j M_j(x) / (log x)^j, and the predicted side
    the same combination of the theorem-1 polynomials, whose leading
    terms are the Beta factors j!/(j+k)! under the singular series.
    Every power's main term comes from one Euler product,
    certified on main_bound, the relative error bound of the combination.
    The power sums of weight_queries are measured as in check_theorem1.
    """
    q = check_int("q", q, 1)
    coeffs = _coeffs(coeffs)
    queries = weight_queries(spec, coeffs, xs)
    xs = _ladder(xs)
    lxs = [math.log(x) for x in xs]

    def combined(mains, lx):
        """(value, error bound) of sum_j a_j main_j(lx) / lx^j."""
        terms = list(enumerate(zip(coeffs, mains)))
        value = math.fsum(a * main.value(lx) / lx**j for j, (a, main) in terms)
        err = math.fsum(abs(a) * main.error(lx) / lx**j for j, (a, main) in terms)
        return value, err

    mains, bound = _main_terms(spec, q, range(len(coeffs)), lxs, series_tol, combined)
    predicted = [combined(mains, lx)[0] for lx in lxs]
    power = iter(measure(spec, q, queries, sums))
    measured = [sum(c * next(power) / lx ** j for j, c in enumerate(coeffs)) for lx in lxs]
    if not all(map(math.isfinite, predicted + measured)):
        raise RangeError(f"coefficients {coeffs} make the weighted sums overflow a float")
    return _report(
        f"{spec.name}: polynomial-weight sum vs residue main term",
        {
            "q": q,
            "coeffs": tuple(coeffs),
            "series": mains[0].series,
            "main_coeffs": tuple(main.coeffs for main in mains),
            "main_bound": bound,
        },
        xs,
        predicted,
        measured,
    )


def buchstab_defect(spec, x, m, q, z):
    """Relative defect of the two-sided sieve recursion at one parameter set.

    Compares S(x, q, z) with S(x, q, x) - sum over z <= p < x, p coprime
    to q, of g(p) S(x/p, q, p); the defect is normalized by the total
    size of all participating terms, so it measures pure floating error.
    S(x, q, z) and S(x, q, x) come from one multfun.m_sums call; the
    per-prime sums S(x/p, q, p) all come from one enumeration
    (multfun.m_sum_smooth_each), each bit-equal to its own m_sum_smooth.
    """
    x = float(x)
    if not (2.0 <= z <= x):
        raise RangeError("need 2 <= z <= x")
    lhs, top = (r.value for r in multfun.m_sums(spec, q, [(x, m, z), (x, m, x)]))
    ps, gs, _ = multfun.coprime_primes(spec, math.ceil(x) - 1, q)
    lo = int(ps.searchsorted(math.ceil(z)))
    ps, gs = ps[lo:], gs[lo:]
    scale = abs(lhs) + abs(top)
    total = top
    sums = multfun.m_sum_smooth_each(spec, x, m, q, ps)
    for gp, s in zip(gs.tolist(), sums):
        term = gp * s
        total -= term
        scale += abs(term)
    return abs(lhs - total) / (scale + 1e-300)


@dataclass(frozen=True)
class BuchstabCase:
    spec_name: str
    x: float
    m: int
    q: int
    z: float
    defect: float


def buchstab_suite(seed=20240817, cases=50):
    """Randomized recursion-defect suite over all the builtin functions."""
    cases = check_int("cases", cases, 1)
    rng = np.random.default_rng(seed)
    pool = [
        multfun.builtin_spec("one_over_n"),
        multfun.builtin_spec("one_over_phi"),
        multfun.builtin_spec("two_omega_over_n"),
        multfun.builtin_spec("k_over_p", k=3),
        multfun.builtin_spec("nu_over_p", offsets=[0, 2, 6]),
        multfun.builtin_spec("nu_minus1_over_phi", offsets=[0, 4, 6]),
    ]
    qs = [1, 2, 6, 15, 30, 77]
    out = []
    for i in range(cases):
        spec = pool[i % len(pool)]
        x = float(rng.integers(50, 4000))
        if rng.random() < 0.3:
            x += 0.5
        m = int(rng.integers(0, 4))
        q = int(qs[rng.integers(0, len(qs))])
        mode = rng.random()
        if mode < 0.15:
            z = 2.0
        elif mode < 0.3:
            z = x
        else:
            z = float(rng.uniform(2.0, x))
        defect = buchstab_defect(spec, x, m, q, z)
        out.append(BuchstabCase(spec.name, x, m, q, z, defect))
    return out
