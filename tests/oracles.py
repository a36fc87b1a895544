"""Independent reference implementations used as test oracles.

Everything here is deliberately written with different algorithms than the
package (direct loops, trial division, Mobius counting, closed forms) so
agreement is meaningful.
"""

import math
from fractions import Fraction


def mobius_upto(n):
    """mu(1..n) by a divisor sieve."""
    mu = [0] * (n + 1)
    mu[1] = 1
    for d in range(1, n + 1):
        v = mu[d]
        if v:
            for m in range(2 * d, n + 1, d):
                mu[m] -= v
    return mu


def squarefree_count(x):
    """Number of squarefree n <= x via sum of mu(d) * floor(x/d^2)."""
    x = int(x)
    r = math.isqrt(x)
    mu = mobius_upto(r)
    return sum(mu[d] * (x // (d * d)) for d in range(1, r + 1))


def factorize(n):
    """Trial-division factorization as a dict prime -> exponent."""
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def brute_weighted_sum(g_at_prime, x, m, q, z=math.inf):
    """Direct loop over n: sum g(n) (log x/n)^m over admissible n.

    g_at_prime maps a prime to g(p); g extends multiplicatively over
    squarefree n.  Admissible means squarefree, z-smooth, coprime to q.
    """
    total = 0.0
    nmax = int(math.floor(x))
    logx = math.log(x)
    for n in range(1, nmax + 1):
        if math.gcd(n, q) != 1:
            continue
        fac = factorize(n)
        if any(e > 1 for e in fac.values()):
            continue
        if any(p >= z for p in fac):
            continue
        g = 1.0
        for p in fac:
            g *= g_at_prime(p)
        total += g * (logx - math.log(n)) ** m
    return total


def brute_weighted_sum_exact(g_at_prime_frac, x, q, z=math.inf):
    """Exact rational version of brute_weighted_sum for m = 0."""
    total = Fraction(0)
    for n in range(1, int(math.floor(x)) + 1):
        if math.gcd(n, q) != 1:
            continue
        fac = factorize(n)
        if any(e > 1 for e in fac.values()):
            continue
        if any(p >= z for p in fac):
            continue
        g = Fraction(1)
        for p in fac:
            g *= g_at_prime_frac(p)
        total += g
    return total


def weighted_terms(at, x, m):
    """The terms g(n) (log x - log n)^m of the admissible n <= x, one per n.

    at maps each admissible prime to its (g(p), log p) floats; n is
    admissible when it is squarefree and all its primes are in at.  Each n
    is factored by trial division, g(n) and log n are built in increasing
    prime order from 1.0 and 0.0, and the power is taken by m
    multiplications from 1.0.
    """
    logx = math.log(float(x))
    terms = []
    for n in range(1, int(math.floor(x)) + 1):
        fac = factorize(n)
        if any(e > 1 for e in fac.values()) or any(p not in at for p in fac):
            continue
        g, lg = 1.0, 0.0
        for p in sorted(fac):
            g *= at[p][0]
            lg += at[p][1]
        t = logx - lg
        tm = 1.0
        for _ in range(m):
            tm *= t
        terms.append(g * tm)
    return terms


def trial_division_prime_count(limit):
    """pi(limit) counted by raw trial division."""
    count = 0
    for n in range(2, limit + 1):
        isp = True
        d = 2
        while d * d <= n:
            if n % d == 0:
                isp = False
                break
            d += 1
        if isp:
            count += 1
    return count


def f_closed_panel2(k, m, u):
    """f(u; k, m) on 1 <= u <= 2 from the elementary antiderivative.

    On (1, 2] the delayed argument satisfies f(v-1) = 1, so
    f(u) = 1 - k * integral_1^u (v-1)^(k+m) v^(-k-m-1) dv, and the binomial
    expansion of (v-1)^(k+m) integrates in closed form.
    """
    n = k + m
    if u < 1 or u > 2:
        raise ValueError("panel formula valid on [1, 2] only")
    total = 0.0
    for j in range(n + 1):
        coef = math.comb(n, j) * (-1.0) ** (n - j)
        # integral of v^(j - n - 1) from 1 to u
        if j == n:
            term = math.log(u)
        else:
            term = (u ** (j - n) - 1.0) / (j - n)
        total += coef * term
    return 1.0 - k * total


def i_closed_base(s, m):
    """I_s(1, 1) in the unsmoothed regime, as an exact Fraction."""
    return Fraction(
        math.factorial(m) ** 2 * math.factorial(2 * m - 2 * s),
        math.factorial(m - s) ** 2 * math.factorial(2 * m - s),
    )


def gpy_threshold_exact(k, l):
    """Sign-flip level for the unsmoothed coefficient, as a Fraction."""
    return Fraction((l + 1) * (2 * l + k + 1), k * (2 * l + 1))


def i_recursive(kernel, t, v, n=64):
    """I_s(t, v) by direct recursion on the defining integral identity.

    Uses the package's base-regime quadrature but none of its table or
    interpolation machinery, so it checks the v > 1 construction end to
    end.  Gauss-Legendre panels are split at integer x where the inner
    argument changes regime.
    """
    import numpy as np

    from sievesum import iterints

    if v <= 1.0:
        return iterints.i_base(kernel, t)
    x_nodes, x_w = np.polynomial.legendre.leggauss(n)
    total = iterints.i_base(kernel, t)
    bounds = [1.0]
    r = 2.0
    while r < v:
        bounds.append(r)
        r += 1.0
    bounds.append(v)
    s = kernel.s
    for a, b in zip(bounds[:-1], bounds[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        for xi, wi in zip(mid + half * x_nodes, x_w):
            tp = 1.0 - 1.0 / xi
            val = i_recursive(kernel, tp * t, xi - 1.0, n)
            total -= s * half * wi * val * tp ** s / xi
    return total


def phi_base_trapz(kernel, t, points=1 << 21, f_sol=None):
    """Base-regime phi by brute trapezoid integration of the integrand,
    divided by B(s, 2(m-s)+1) as the tables store it.

    f comes from the kernel's log solution, or from f_sol, a float
    dde.PanelSolution of f(.; -s, m), when one is given.
    """
    import numpy as np

    from sievesum import dde

    s, w, u = kernel.s, kernel.m - kernel.s, kernel.u
    x = np.linspace(0.0, 1.0, points)
    y = np.minimum(u * t * x, kernel.f_sol.U)
    if f_sol is None:
        fv = np.exp(dde.eval_log_f_many(kernel.f_sol, y))
    else:
        fv = dde.eval_f_many(f_sol, y)
    g = (1.0 - x) ** (s - 1) * (fv * x ** w) ** 2
    log_b = math.lgamma(s) + math.lgamma(2 * w + 1) - math.lgamma(2 * w + s + 1)
    return float(np.trapezoid(g, x)) / math.exp(log_b)
