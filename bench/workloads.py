"""The four workloads: the CLI calls each one times, and the checks on their outputs.

A workload's ``make(seed, quick)`` returns its parameters, the commands of
one timed round (``ops``) and the commands that only the checks need
(``check_ops``, run once per run, untimed).  Its ``check(outs, params, api)``
returns a list of problems, empty when every output is correct; ``outs``
maps each command's name to its stdout and ``api`` is the imported
``sievesum`` package.  Every check compares against a computation made
apart from the program (a direct loop, an exact closed form, an adaptive
quadrature) or against a property the method must have.
"""

import csv
import io
import math
import random
import re
from fractions import Fraction

# u = theta / (2 delta) is kept at 9.5 for every seed: the t-grid breaks j/u
# and the v-panel count depend on u alone, so the seed moves the values but
# not the work.  A u that is an integer would let rounding flip ceil(u).
U = 9.5
SCAN_TOL = 1e-6
ZHANG_TOL = 1e-9
SERIES_TOL = 1e-7
CAP_THEOREM1 = 0.05  # criterion 05
CAP_THEOREM2 = 0.10  # criterion 06
BUCHSTAB_CAP = 1e-10  # criterion 02
# Fixed suite seed for the buchstab workload: the cost of a suite varies by
# about 20% (quartile spread over median) from one suite seed to the next at
# 250 cases, so a seeded suite would leave solve_s unresolved.
BUCHSTAB_SUITE_SEED = 20240817
SUM_REL_TOL = 1e-12


def _theta(seed):
    return round(random.Random(seed).uniform(0.90, 0.95), 6)


# ---------------------------------------------------------------- parsing


def parse_csv(text):
    """Blocks of sievesum CSV output as [(meta, rows)], rows as dicts of str."""
    blocks = []
    meta, lines = None, []

    def flush():
        if meta is not None:
            blocks.append((meta, list(csv.DictReader(io.StringIO("\n".join(lines))))))

    for line in text.splitlines():
        if line.startswith("# "):
            if lines:
                flush()
                meta, lines = None, []
            key, _, val = line[2:].partition("=")
            meta = {} if meta is None else meta
            meta[key] = val
        elif line.strip():
            lines.append(line)
    flush()
    return blocks


def _one_row(text):
    blocks = parse_csv(text)
    if len(blocks) != 1 or len(blocks[0][1]) != 1:
        raise ValueError("expected one block with one row")
    return blocks[0][0], blocks[0][1][0]


def _close(a, b, rel, scale):
    return abs(a - b) <= rel * scale


# ------------------------------------------------------- direct-loop oracle


def _squarefree_factors(n):
    """Distinct primes of n by trial division, or None if a square divides n."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return None
            out.append(d)
        d += 1
    if n > 1:
        out.append(n)
    return out


def direct_sum(g, x, m, q=1, z=math.inf):
    """(sum, sum of |terms|) of g(n) (log x/n)^m over squarefree n <= x,
    coprime to q, with every prime factor below z; g is given at primes."""
    lx = math.log(x)
    terms = []
    for n in range(1, math.floor(x) + 1):
        ps = _squarefree_factors(n)
        if ps is None or any(p >= z or q % p == 0 for p in ps):
            continue
        terms.append(math.prod(g(p) for p in ps) * (lx - math.log(n)) ** m)
    return math.fsum(terms), math.fsum(abs(t) for t in terms)


def _nu(offsets, p):
    return len({h % p for h in offsets})


def prime_values(spec_name):
    """g at a prime for the spec names that verify's buchstab rows print."""
    match = re.fullmatch(r"(\w+?)(?:\((\d+)\)|\{([\d,]+)\})?", spec_name)
    name, k, offs = match.groups()
    offs = tuple(int(h) for h in offs.split(",")) if offs else None
    table = {
        "one_over_n": lambda p: 1.0 / p,
        "one_over_phi": lambda p: 1.0 / (p - 1),
        "two_omega_over_n": lambda p: 2.0 / p,
        "k_over_p": lambda p: int(k) / p,
        "nu_over_p": lambda p: _nu(offs, p) / p,
        "nu_minus1_over_phi": lambda p: (_nu(offs, p) - 1) / (p - 1),
    }
    return name, (int(k) if k else None), offs, table[name]


# ------------------------------------------------------------------- scan


def make_scan(seed, quick):
    theta = _theta(seed)
    u = 1.5 if quick else U
    k_max, m_max = (2, 4) if quick else (2, 10)
    delta = theta / (2.0 * u)
    # the sampled cell (2, m) is rebuilt through the API for the checks
    sample_m = random.Random(seed + 1).randint(3, m_max)
    argv = ["scan", "--k-max", str(k_max), "--m-max", str(m_max), "--theta", repr(theta),
            "--delta", repr(delta), "--tol", repr(SCAN_TOL), "--threads", "1"]
    params = {"theta": theta, "delta": delta, "k_max": k_max, "m_max": m_max,
              "tol": SCAN_TOL, "sample": (2, sample_m)}
    return params, [("scan", argv)], []


def recursion_residual(i_eval, s, u, breaks):
    """Relative defect of I_s(1, u) = I_s(1, 1) - s int_1^u I_s(1-1/x, x-1) (1-1/x)^s dx/x.

    The integral is taken by adaptive quadrature over the table's values,
    split where they are only piecewise smooth: at the integers (v-panels)
    and where 1 - 1/x crosses a t break.  Both sides are nonnegative, so
    their sum is the scale.
    """
    from scipy.integrate import quad

    def integrand(x):
        return i_eval(1.0 - 1.0 / x, x - 1.0) * (1.0 - 1.0 / x) ** s / x

    pts = {float(r) for r in range(2, math.ceil(u))}
    pts |= {1.0 / (1.0 - b) for b in breaks if 0.0 < b < 1.0 and 1.0 / (1.0 - b) < u}
    integral, _ = quad(integrand, 1.0, u, points=sorted(pts), limit=400, epsabs=0.0, epsrel=1e-11)
    head = i_eval(1.0, 1.0)
    lhs = i_eval(1.0, u)
    return abs(lhs - (head - s * integral)) / (head + s * integral)


def check_scan(outs, p, api, i_eval=None):
    """``i_eval`` stands in for api.i_eval when a test perturbs the tables."""
    problems = []
    (meta, rows), = parse_csv(outs["scan"])
    theta, delta, tol = p["theta"], p["delta"], p["tol"]
    u = theta / (2.0 * delta)
    want = [(k, m) for k in range(1, p["k_max"] + 1) for m in range(1, p["m_max"] + 1)]
    got = [(int(r["k"]), int(r["m"])) for r in rows]
    if got != want:
        return [f"scan grid {got[:4]}... is not the {p['k_max']}x{p['m_max']} grid"]
    cells = {}
    for r in rows:
        k, m = int(r["k"]), int(r["m"])
        rejected = k < 2 or m <= k
        if (r["status"] == "rejected") != rejected or r["status"] not in ("ok", "rejected"):
            problems.append(f"cell ({k},{m}) has status {r['status']}")
            continue
        if rejected:
            continue
        sign, log_abs, canc = float(r["sign"]), float(r["log_abs"]), float(r["cancellation"])
        if sign not in (1.0, -1.0) or not math.isfinite(log_abs) or not (0.0 < canc <= 1.0):
            problems.append(f"cell ({k},{m}): sign {sign}, log_abs {log_abs}, cancellation {canc}")
        cells[(k, m)] = (sign, log_abs)

    i_eval = i_eval or api.i_eval
    tables = {}

    def table(s, m):
        if (s, m) not in tables:
            tables[(s, m)] = api.build_table(api.make_kernel(s, m, u), u, tol=tol)
        return tables[(s, m)]

    k, m = p["sample"]
    lo, hi = table(k - 1, m), table(k, m)
    a = k * theta / 2.0 * i_eval(lo, 1.0, u)
    b = i_eval(hi, 1.0, u)
    sign, log_abs = cells[(k, m)]
    if not _close(a - b, sign * math.exp(log_abs), 1e-12, abs(a) + abs(b)):
        problems.append(f"cell ({k},{m}) = {sign * math.exp(log_abs)!r} but "
                        f"(k theta/2) I_k-1 - I_k = {a - b!r} from rebuilt tables")
    # both t-grid families: split at j/u (m - s <= 8) and one panel (m - s > 8)
    checked = {(k - 1, m), (k, m), (1, p["m_max"])}
    for s, mm in sorted(checked):
        tab = table(s, mm)
        res = recursion_residual(lambda t, v, _tab=tab: i_eval(_tab, t, v), s, u, tab.grid.breaks)
        if not res <= 10.0 * tol:
            problems.append(f"I_{s} (m={mm}) breaks its v-recursion by {res:.3e} (bound {10 * tol:.0e})")
    return problems


# ------------------------------------------------------------------ zhang

ZHANG_POINTS = ((6, 8), (61, 70), (200, 230), (1000, 1100))
QUICK_ZHANG_POINTS = ((6, 8), (61, 70))
LOG_VS_FLOAT = (61, 70)


def _zhang_argv(k, m, theta, delta, *extra):
    return ["zhang", "--k", str(k), "--m", str(m), "--theta", repr(theta),
            "--delta", repr(delta), "--tol", repr(ZHANG_TOL), *extra]


def make_zhang(seed, quick):
    theta = _theta(seed)
    u = 1.5 if quick else U
    delta = theta / (2.0 * u)
    points = QUICK_ZHANG_POINTS if quick else ZHANG_POINTS
    ops = [(f"z{k}_{m}", _zhang_argv(k, m, theta, delta)) for k, m in points]
    k, m = LOG_VS_FLOAT
    check_ops = [
        ("float", _zhang_argv(k, m, theta, delta, "--no-log-scale")),
        ("unit_u", _zhang_argv(k, m, theta, theta / 2.0, "--log-scale")),
    ]
    params = {"theta": theta, "delta": delta, "points": points, "tol": ZHANG_TOL}
    return params, ops, check_ops


def _beta(s, m):
    """I_s(1, 1) at u <= 1: m!^2 (2m-2s)! / ((m-s)!^2 (2m-s)!), exact."""
    f = math.factorial
    return Fraction(f(m) ** 2 * f(2 * m - 2 * s), f(m - s) ** 2 * f(2 * m - s))


def _log_abs(fr):
    return math.log(abs(fr.numerator)) - math.log(fr.denominator)


def check_zhang(outs, p, api):
    problems = []
    rows = {}
    for name in [f"z{k}_{m}" for k, m in p["points"]] + ["float", "unit_u"]:
        _, row = _one_row(outs[name])
        rows[name] = row
        e1, e2 = float(row["table_error_1"]), float(row["table_error_2"])
        canc, sign = float(row["cancellation"]), float(row["sign"])
        if not (e1 <= p["tol"] and e2 <= p["tol"]):
            problems.append(f"{name}: table errors {e1:.3e}, {e2:.3e} above tol {p['tol']:.0e}")
        if sign not in (1.0, -1.0) or not (0.0 < canc <= 1.0) or not math.isfinite(float(row["log_abs"])):
            problems.append(f"{name}: sign {sign}, cancellation {canc}, log_abs {row['log_abs']}")
    k, m = LOG_VS_FLOAT
    log_row, float_row = rows[f"z{k}_{m}"], rows["float"]
    canc = float(log_row["cancellation"])
    # each table is within tol, so C is within about 2 tol / cancellation
    bound = 10.0 * p["tol"] / canc
    if float(log_row["sign"]) != float(float_row["sign"]) or not _close(
        float(log_row["log_abs"]), float(float_row["log_abs"]), bound, 1.0
    ):
        problems.append(f"k={k}: log mode gives {log_row['sign']}*exp({log_row['log_abs']}), "
                        f"float mode {float_row['sign']}*exp({float_row['log_abs']})")
    theta = Fraction(p["theta"])
    exact = Fraction(k, 2) * theta * _beta(k - 1, m) - _beta(k, m)
    row = rows["unit_u"]
    bound = 10.0 * p["tol"] / float(row["cancellation"])
    if float(row["sign"]) != (1.0 if exact > 0 else -1.0) or not _close(
        float(row["log_abs"]), _log_abs(exact), bound, 1.0
    ):
        problems.append(f"u=1: log_abs {row['log_abs']} against the closed form's {_log_abs(exact)!r}")
    return problems


# ----------------------------------------------------------------- verify


def make_verify(seed, quick):
    ladder = (1e3, 1e4) if quick else (1e4, 1e5, 1e6)
    argv = ["verify", "--check", "all", "--spec", "one_over_n", "--m", "1", "--u", "2",
            "--coeffs", "1,1", "--ladder", ",".join(f"{x:g}" for x in ladder),
            "--series-tol", repr(SERIES_TOL), "--cases", "5" if quick else "50",
            "--seed", str(seed)]
    params = {"ladder": ladder, "m": 1, "u": 2.0, "coeffs": (1.0, 1.0), "oracle_x": 1e4}
    return params, [("verify", argv)], []


def _residuals_consistent(rows, name):
    out = []
    for r in rows:
        pred, meas, res = float(r["predicted"]), float(r["measured"]), float(r["residual"])
        # predicted and measured are printed to 15 digits, so the residual
        # recomputed from them is good to a few 1e-15 absolute
        if abs(abs(meas / pred - 1.0) - res) > 1e-14 + 1e-9 * res:
            out.append(f"{name} at x={r['x']}: residual {res!r} but |measured/predicted - 1| = "
                       f"{abs(meas / pred - 1.0)!r}")
    return out


def check_verify(outs, p, api):
    problems = []
    blocks = {meta.get("check"): (meta, rows) for meta, rows in parse_csv(outs["verify"])}
    if sorted(blocks) != ["buchstab", "theorem1", "theorem2", "weight"]:
        return [f"verify printed blocks {sorted(blocks)}"]
    caps = {"theorem1": CAP_THEOREM1, "theorem2": CAP_THEOREM2}
    for name, (meta, rows) in blocks.items():
        if meta.get("verdict") != "true":
            problems.append(f"{name}: verdict {meta.get('verdict')}")
        if name == "buchstab":
            worst = max(float(r["defect"]) for r in rows)
            if not worst < BUCHSTAB_CAP:
                problems.append(f"buchstab: max defect {worst:.3e} (cap {BUCHSTAB_CAP:.0e})")
            continue
        if [float(r["x"]) for r in rows] != list(p["ladder"]):
            problems.append(f"{name}: ladder {[r['x'] for r in rows]}")
            continue
        if not float(meta["main_bound"]) <= SERIES_TOL:
            problems.append(f"{name}: main_bound {meta['main_bound']} above {SERIES_TOL:.0e}")
        problems += _residuals_consistent(rows, name)
        if name in caps and not float(rows[-1]["residual"]) <= caps[name]:
            problems.append(f"{name}: last residual {rows[-1]['residual']} above cap {caps[name]}")

    # the measured sums at x = 1e4 against a direct loop over n <= x
    x = p["oracle_x"]
    g = lambda prime: 1.0 / prime  # noqa: E731
    lx = math.log(x)
    want = {
        "theorem1": direct_sum(g, x, p["m"]),
        "theorem2": direct_sum(g, x, p["m"], z=x ** (1.0 / p["u"])),
    }
    m0, m1 = direct_sum(g, x, 0), direct_sum(g, x, 1)
    c0, c1 = p["coeffs"]
    want["weight"] = (c0 * m0[0] + c1 * m1[0] / lx, abs(c0) * m0[1] + abs(c1) * m1[1] / lx)
    for name, (value, scale) in want.items():
        row = next(r for r in blocks[name][1] if float(r["x"]) == x)
        if not _close(float(row["measured"]), value, SUM_REL_TOL, scale):
            problems.append(f"{name} at x={x:g}: measured {row['measured']} but the direct loop "
                            f"gives {value!r}")
    return problems


# --------------------------------------------------------------- buchstab


def make_buchstab(seed, quick):
    cases = 10 if quick else 500
    argv = ["verify", "--check", "buchstab", "--cases", str(cases),
            "--seed", str(BUCHSTAB_SUITE_SEED)]
    params = {"cases": cases, "sample": random.Random(seed).sample(range(cases), 3)}
    return params, [("buchstab", argv)], []


def check_buchstab(outs, p, api, m_sum_smooth=None):
    """``m_sum_smooth`` stands in for the API's when a test perturbs a sum."""
    m_sum_smooth = m_sum_smooth or api.m_sum_smooth
    problems = []
    (meta, rows), = parse_csv(outs["buchstab"])
    if len(rows) != p["cases"]:
        return [f"buchstab printed {len(rows)} rows for {p['cases']} cases"]
    defects = [float(r["defect"]) for r in rows]
    worst = max(defects)
    if meta.get("verdict") != "true" or not worst < BUCHSTAB_CAP:
        problems.append(f"buchstab: verdict {meta.get('verdict')}, max defect {worst:.3e}")
    if float(meta["max_defect"]) != worst or not all(d >= 0.0 for d in defects):
        problems.append(f"buchstab: max_defect {meta['max_defect']} but the rows' maximum is {worst!r}")
    # a sample of the sums behind the defects against a direct loop
    for i in p["sample"]:
        r = rows[i]
        name, k, offs, g = prime_values(r["spec"])
        spec = api.builtin_spec(name, k=k, offsets=offs)
        x, m, q, z = float(r["x"]), int(r["m"]), int(r["q"]), float(r["z"])
        for zz in (z, x):
            got = m_sum_smooth(spec, x, m, q, zz).value
            value, scale = direct_sum(g, x, m, q, zz)
            if not _close(got, value, SUM_REL_TOL, scale):
                problems.append(f"S({r['spec']}, x={x:g}, m={m}, q={q}, z={zz:g}) = {got!r} "
                                f"but the direct loop gives {value!r}")
    return problems


WORKLOADS = {
    "scan": (make_scan, check_scan),
    "zhang": (make_zhang, check_zhang),
    "verify": (make_verify, check_verify),
    "buchstab": (make_buchstab, check_buchstab),
}
