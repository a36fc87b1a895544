"""Command line interface: weighted sums, DDE, sieve integrals, reports."""

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

from . import dde, iterints, multfun, verify, zhang
from .errors import RangeError, ToleranceError, check_int, check_tol

ENV_THREADS = "SIEVESUM_THREADS"
ENV_OUTDIR = "SIEVESUM_OUTDIR"
CONFIG_KEYS = {"format": str, "threads": int, "outdir": str, "tol": float}
SPECS_WITH_K = ("k_over_p",)
SPECS_WITH_OFFSETS = ("nu_over_p", "nu_minus1_over_phi")
F_MAX_ROWS = 1_000_000  # rows of the f command's u grid


@dataclass(frozen=True)
class RunConfig:
    """Resolved run settings; flags win over env, env over config file."""

    format: str
    out: str | None
    threads: int
    tol_override: float | None


def parse_spec(text):
    """Build a MultFuncSpec from a CLI string like nu_over_p:0,2,6."""
    name, _, rest = text.partition(":")
    if name in SPECS_WITH_K:
        return multfun.builtin_spec(name, k=_int_token("k", rest))
    if name in SPECS_WITH_OFFSETS:
        offsets = tuple(_int_token("offsets", tok) for tok in rest.split(","))
        return multfun.builtin_spec(name, offsets=offsets)
    if name == "signed_mu_times":
        if not rest:
            raise RangeError("signed_mu_times needs a base spec after the colon")
        return multfun.builtin_spec(name, base=parse_spec(rest))
    if rest:
        raise RangeError(f"spec {name!r} takes no arguments")
    return multfun.builtin_spec(name)


def _int_token(name, tok):
    """A spec argument as an int, by check_int's rule and message."""
    try:
        tok = int(tok)
    except ValueError:
        pass
    return check_int(name, tok)


def _float_list(text):
    return tuple(float(tok) for tok in text.split(","))


def _text(v):
    """The one scalar rule: reals at 15 significant digits, rationals as
    num/den in full, booleans as true/false, None as empty, anything else
    by str.  The rational's integers go through Decimal, which Python's
    limit on int-to-str digits does not cover."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, Fraction):
        return f"{Decimal(v.numerator)}/{Decimal(v.denominator)}"
    if isinstance(v, float):
        return "%.15g" % v
    return "" if v is None else str(v)


def _cell(v):
    """One CSV cell: _text, quoted when it holds a comma or a quote."""
    s = _text(v)
    if "," in s or '"' in s:
        s = '"' + s.replace('"', '""') + '"'
    return s


def _meta_val(v):
    if isinstance(v, (tuple, list)):
        # a list of lists (one polynomial per power) separates its members by ';'
        sep = ";" if any(isinstance(x, (tuple, list)) for x in v) else ","
        return sep.join(_meta_val(x) for x in v)
    return _text(v)


def _jval(v):
    """JSON-safe value: finite reals as numbers at _text's digits, other
    reals and rationals as _text strings; containers element by element."""
    if isinstance(v, (tuple, list)):
        return [_jval(x) for x in v]
    if isinstance(v, dict):
        return {str(k): _jval(x) for k, x in v.items()}
    if isinstance(v, float) and math.isfinite(v):
        return float(_text(v))
    return _text(v) if isinstance(v, (float, Fraction)) else v


def _render_csv(meta, header, rows):
    lines = [f"# {k}={_meta_val(v)}" for k, v in meta.items()]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def _dumps(payload):
    return json.dumps(_jval(payload), indent=2, sort_keys=True) + "\n"


def _render(fmt, meta, header, rows, json_data=None):
    """One block as CSV, or as JSON with one object per row unless json_data
    replaces the rows."""
    if fmt != "json":
        return _render_csv(meta, header, rows)
    data = [dict(zip(header, row)) for row in rows] if json_data is None else json_data
    return _dumps({"meta": meta, "data": data})


def _write_text(path, text):
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _emit(cfg, meta, header, rows, json_data=None):
    text = _render(cfg.format, meta, header, rows, json_data)
    if cfg.out:
        _write_text(cfg.out, text)
    else:
        sys.stdout.write(text)


def _load_config(path):
    """Parse a key=value config file; unknown keys are rejected."""
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise RangeError(f"cannot read config file {path}: {exc}") from exc
    cfg = {}
    for lineno, line in enumerate(raw.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise RangeError(f"{path}:{lineno}: expected key=value")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in CONFIG_KEYS:
            raise RangeError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            cfg[key] = CONFIG_KEYS[key](val)
        except ValueError as exc:
            raise RangeError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return cfg


def _resolve(ns):
    """Merge flags > environment > config file > built-in defaults."""
    filecfg = _load_config(ns.config) if ns.config else {}

    threads = ns.threads
    if threads is None and ENV_THREADS in os.environ:
        try:
            threads = int(os.environ[ENV_THREADS])
        except ValueError as exc:
            raise RangeError(f"{ENV_THREADS} must be an integer") from exc
    if threads is None:
        threads = filecfg.get("threads")
    if threads is None:
        threads = 1
    if threads < 1:
        raise RangeError("threads must be at least 1")

    fmt = ns.format or filecfg.get("format") or "csv"
    if fmt not in ("csv", "json"):
        raise RangeError("format must be csv or json")

    outdir = os.environ.get(ENV_OUTDIR) or filecfg.get("outdir")
    out = ns.out
    if out and outdir and not os.path.isabs(out):
        out = os.path.join(outdir, out)

    return RunConfig(fmt, out, threads, filecfg.get("tol"))


def _tol(ns, cfg, default):
    """The tolerance from --tol, else the config file, else default."""
    tol = getattr(ns, "tol", None)
    if tol is None:
        tol = cfg.tol_override if cfg.tol_override is not None else default
    check_tol(tol)
    return tol


def _assumption(theta, delta):
    return f"EH({_text(theta)},{_text(delta)})"


def _cmd_sum(ns, cfg):
    spec = parse_spec(ns.spec)
    if ns.z is None:
        res = multfun.m_sum(spec, ns.x, ns.m, ns.q, exact=ns.exact)
    else:
        res = multfun.m_sum_smooth(spec, ns.x, ns.m, ns.q, ns.z, exact=ns.exact)
    meta = {"command": "sum", "spec": ns.spec, "x": ns.x, "m": ns.m, "q": ns.q}
    if ns.z is not None:
        meta["z"] = ns.z
    meta["exact"] = ns.exact
    _emit(cfg, meta, ("value", "exact", "terms"), [(res.value, res.exact_value, res.terms)])
    return 0


def _cmd_sseries(ns, cfg):
    spec = parse_spec(ns.spec)
    tol = _tol(ns, cfg, 1e-8)
    val = multfun.singular_series(spec.negated() if ns.a_variant else spec, ns.q, tol)
    meta = {
        "command": "sseries",
        "spec": ns.spec,
        "q": ns.q,
        "tol": tol,
        "a_variant": bool(ns.a_variant),
    }
    _emit(cfg, meta, ("value",), [(val,)])
    return 0


def _cmd_f(ns, cfg):
    tol = _tol(ns, cfg, 1e-8)
    if not (0 < ns.step <= ns.u_max < math.inf):
        raise RangeError("need 0 < step <= u-max < inf")
    count = ns.u_max / ns.step + 1e-9
    if count >= F_MAX_ROWS + 1:
        raise RangeError(f"u-max / step asks for {count:.3g} rows, more than {F_MAX_ROWS}")
    us = [j * ns.step for j in range(1, math.floor(count) + 1)]
    meta = {
        "command": "f",
        "k": ns.k,
        "m": ns.m,
        "u_max": ns.u_max,
        "step": ns.step,
        "tol": tol,
    }
    sol = dde.solve_f(ns.k, ns.m, max(1.0, ns.u_max), tol=tol)  # f = 1 on (0, 1]
    meta["residual"] = sol.residual
    _emit(cfg, meta, ("u", "f"), [(u, float(v)) for u, v in zip(us, dde.eval_f_many(sol, us))])
    return 0


def _cmd_i(ns, cfg):
    tol = _tol(ns, cfg, 1e-9)
    ts = _float_list(ns.t)
    vs = _float_list(ns.v)
    kernel = iterints.make_kernel(ns.s, ns.m, ns.u)
    # the table is marched only on the cone t >= slope * v that holds every query
    slope = min((t / v for t in ts for v in vs if t > 0.0 and v > 1.0), default=0.0)
    table = iterints.build_table(kernel, max(1.0, max(vs)), tol=tol, slope=slope)
    rows = []
    for t in ts:
        for v in vs:
            sign, log_abs = iterints.i_eval_signed_log(table, t, v)
            rows.append((t, v, zhang._to_value(sign, log_abs), sign, log_abs))
    meta = {
        "command": "I",
        "s": ns.s,
        "m": ns.m,
        "u": ns.u,
        "tol": tol,
        "est_error": table.est_error,
        "n_per": table.grid.n_per,
        "x_nodes": table.x_nodes,
        "x_gap": table.x_gap,
    }
    _emit(cfg, meta, ("t", "v", "value", "sign", "log_abs"), rows)
    return 0


def _cmd_tuple(ns, cfg):
    tol = _tol(ns, cfg, 1e-6)
    if ns.first_k is not None:
        offsets = zhang.first_k_tuple(ns.first_k)
    else:
        offsets = tuple(int(tok) for tok in ns.offsets.split(","))
    admissible = zhang.is_admissible(offsets)
    series = zhang.tuple_singular_series(offsets, tol=tol)
    meta = {"command": "tuple", "k": len(offsets), "tol": tol}
    header = ("offsets", "admissible", "series")
    rows = [(",".join(str(h) for h in offsets), admissible, series)]
    data = {"offsets": list(offsets), "admissible": admissible, "series": series}
    _emit(cfg, meta, header, rows, json_data=data)
    return 0


def _cmd_zhang(ns, cfg):
    tol = _tol(ns, cfg, 1e-9)
    rep = zhang.zhang_coefficient(ns.k, ns.m, ns.theta, ns.delta, tol=tol)
    params = {"k": rep.k, "m": rep.m, "theta": rep.theta, "delta": rep.delta, "u": rep.u,
              "tol": tol}
    assumption = _assumption(rep.theta, rep.delta)
    fields = (  # (CSV column, JSON key, value)
        ("coefficient", "coefficient", rep.value),
        ("sign", "sign", rep.sign),
        ("log_abs", "log_abs", rep.log_abs),
        ("i_k", "I_k", rep.i_k),
        ("i_k_minus_1", "I_k_minus_1", rep.i_k_minus_1),
        ("cancellation", "cancellation", rep.cancellation),
        ("table_error_1", "table_error_1", rep.table_errors[0]),
        ("table_error_2", "table_error_2", rep.table_errors[1]),
    )
    meta = {"command": "zhang", **params, "assumption": assumption}
    data = {key: v for _, key, v in fields}
    data.update(params=params, assumption=assumption)
    header = tuple(col for col, _, _ in fields)
    _emit(cfg, meta, header, [tuple(v for _, _, v in fields)], json_data=data)
    return 0


def _cmd_scan(ns, cfg):
    tol = _tol(ns, cfg, 1e-6)
    print(f"sievesum: scan threads={cfg.threads}", file=sys.stderr)
    cells = zhang.scan(
        ns.k_max,
        ns.m_max,
        ns.theta,
        ns.delta,
        tol=tol,
        threads=cfg.threads,
    )
    meta = {
        "command": "scan",
        "k_max": ns.k_max,
        "m_max": ns.m_max,
        "theta": ns.theta,
        "delta": ns.delta,
        "tol": tol,
        "assumption": _assumption(ns.theta, ns.delta),
    }
    header = ("k", "m", "status", "value", "sign", "log_abs", "cancellation")
    rows = [
        (c.k, c.m, c.status, c.value, c.sign, c.log_abs, c.cancellation) for c in cells
    ]
    _emit(cfg, meta, header, rows)
    return 0


def _report_block(check, report):
    meta = {"command": "verify", "check": check, "label": report.label}
    for key, val in report.params.items():
        meta[key] = val
    meta["verdict"] = report.verdict
    header = ("x", "predicted", "measured", "residual")
    rows = list(zip(report.xs, report.predicted, report.measured, report.residuals))
    return meta, header, rows


def _buchstab_block(cases, seed, n_cases):
    worst = max(c.defect for c in cases)
    verdict = worst < 1e-10
    meta = {
        "command": "verify",
        "check": "buchstab",
        "label": "buchstab identity defects",
        "seed": seed,
        "cases": n_cases,
        "max_defect": worst,
        "verdict": verdict,
    }
    header = ("spec", "x", "m", "q", "z", "defect")
    rows = [(c.spec_name, c.x, c.m, c.q, c.z, c.defect) for c in cases]
    return meta, header, rows


def _cmd_verify(ns, cfg):
    if ns.cases < 1:
        raise RangeError(f"--cases must be at least 1, got {ns.cases}")
    check_int("seed", ns.seed, 0)  # before any sum, as buchstab_suite runs last
    spec = parse_spec(ns.spec)
    if ns.ladder is not None:
        xs = _float_list(ns.ladder)
    elif ns.deep:
        xs = verify.DEEP_LADDER
    else:
        xs = verify.DEFAULT_LADDER
    checks = (
        ("theorem1", "theorem2", "weight", "buchstab") if ns.check == "all" else (ns.check,)
    )
    coeffs = _float_list(ns.coeffs) if "weight" in checks else None
    sums = {}  # every sum of the run, shared by the checks
    if ns.check == "all":  # the union of the checks' sums, from one enumeration
        verify.measure(spec, ns.q, verify.theorem1_queries(spec, ns.m, xs)
                       + verify.theorem2_queries(spec, ns.m, ns.u, xs)
                       + verify.weight_queries(spec, coeffs, xs), sums)
    blocks = []
    for check in checks:
        if check == "theorem1":
            rep = verify.check_theorem1(
                spec, ns.m, ns.q, xs=xs, series_tol=ns.series_tol, sums=sums
            )
            blocks.append((check, *_report_block(check, rep)))
        elif check == "theorem2":
            rep = verify.check_theorem2(
                spec, ns.m, ns.q, u=ns.u, xs=xs, series_tol=ns.series_tol, sums=sums
            )
            blocks.append((check, *_report_block(check, rep)))
        elif check == "weight":
            rep = verify.check_weight_lemma(
                spec, coeffs, ns.q, xs=xs, series_tol=ns.series_tol, sums=sums
            )
            blocks.append((check, *_report_block(check, rep)))
        else:
            cases = verify.buchstab_suite(seed=ns.seed, cases=ns.cases)
            blocks.append((check, *_buchstab_block(cases, ns.seed, ns.cases)))

    code = 0 if all(meta["verdict"] for _, meta, _, _ in blocks) else 4

    if cfg.out:
        outdir = Path(cfg.out)
        outdir.mkdir(parents=True, exist_ok=True)
        for check, meta, header, rows in blocks:
            _write_text(outdir / f"{check}.{cfg.format}", _render(cfg.format, meta, header, rows))
    elif cfg.format == "json":
        reports = [{"meta": meta, "rows": [dict(zip(header, row)) for row in rows]}
                   for _, meta, header, rows in blocks]
        top = {"meta": {"command": "verify", "check": ns.check}, "data": reports}
        sys.stdout.write(_dumps(top))
    else:
        sys.stdout.write("\n".join(_render_csv(m, h, r) for _, m, h, r in blocks))
    return code


def _common_flags():
    common = argparse.ArgumentParser(add_help=False)
    sup = argparse.SUPPRESS
    common.add_argument("--format", choices=("csv", "json"), default=sup,
                        help="output format (default csv)")
    common.add_argument("--out", default=sup,
                        help="output file; a directory for verify (default stdout)")
    common.add_argument("--threads", type=int, default=sup,
                        help="execution-only thread setting, echoed on stderr (default 1)")
    common.add_argument("--config", default=sup,
                        help="key=value config file merged under flags")
    return common


def _add_ignored_log_scale(p):
    p.add_argument("--log-scale", action=argparse.BooleanOptionalAction, default=None,
                   help="ignored: every table has one float arithmetic")


def build_parser():
    """The argparse tree; global flags work before or after the subcommand."""
    common = _common_flags()
    parser = argparse.ArgumentParser(
        prog="sievesum",
        description="Weighted sums over multiplicative functions, the sieve "
        "delay-differential weight f(u), iterated sieve integrals, and "
        "prime-tuple coefficient reports.",
    )
    parser.add_argument("--format", choices=("csv", "json"), default=None)
    parser.add_argument("--out", default=None)
    parser.add_argument("--threads", type=int, default=None)
    parser.add_argument("--config", default=None)
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("sum", parents=[common],
                       help="weighted sum over squarefree n <= x coprime to q")
    p.add_argument("--spec", required=True, help="e.g. one_over_n, k_over_p:3, nu_over_p:0,2,6")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--m", type=int, default=0, help="power of log(x/n) (default 0)")
    p.add_argument("--q", type=int, default=1)
    p.add_argument("--z", type=float, default=None, help="restrict to prime factors below z")
    p.add_argument("--exact", action="store_true",
                   help="also compute the exact rational, printed in full (m=0, x up to 1e5); "
                   "without it the exact cell is empty")
    p.set_defaults(func=_cmd_sum)

    p = sub.add_parser("sseries", parents=[common],
                       help="singular series (compensated Euler product)")
    p.add_argument("--spec", required=True)
    p.add_argument("--q", type=int, default=1)
    p.add_argument("--tol", type=float, default=None, help="certified relative bound (default 1e-8)")
    p.add_argument("--a-variant", action="store_true",
                   help="product of (1-g(p))(1-1/p)^-k instead")
    p.set_defaults(func=_cmd_sseries)

    p = sub.add_parser("f", parents=[common],
                       help="delay-differential weight f(u; k, m) on a grid")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--u-max", type=float, default=3.0)
    p.add_argument("--step", type=float, default=0.25)
    p.add_argument("--tol", type=float, default=None, help="residual gate (default 1e-8)")
    p.set_defaults(func=_cmd_f)

    p = sub.add_parser("I", parents=[common],
                       help="iterated sieve integral I_s(t, v) values")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--u", type=float, required=True, help="smoothing parameter in f(utx)")
    p.add_argument("--t", default="1.0", help="comma list of t values in [0, 1]")
    p.add_argument("--v", default="1.0", help="comma list of v values")
    p.add_argument("--tol", type=float, default=None, help="table tolerance (default 1e-9)")
    _add_ignored_log_scale(p)
    p.set_defaults(func=_cmd_i)

    p = sub.add_parser("tuple", parents=[common],
                       help="admissibility and singular series of a prime tuple")
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--first-k", type=int, default=None,
                     help="use the first k primes past k, shifted to start at 0")
    grp.add_argument("--offsets", default=None, help="comma list, e.g. 0,2,6")
    p.add_argument("--tol", type=float, default=None, help="relative series bound (default 1e-6)")
    p.set_defaults(func=_cmd_tuple)

    p = sub.add_parser("zhang", parents=[common],
                       help="smoothed-sieve coefficient at one (k, m, theta, delta)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--tol", type=float, default=None, help="table tolerance (default 1e-9)")
    _add_ignored_log_scale(p)
    p.set_defaults(func=_cmd_zhang)

    p = sub.add_parser("scan", parents=[common],
                       help="coefficient grid over 1 <= k <= k-max, 1 <= m <= m-max")
    p.add_argument("--k-max", type=int, required=True)
    p.add_argument("--m-max", type=int, required=True)
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--tol", type=float, default=None, help="table tolerance (default 1e-6)")
    _add_ignored_log_scale(p)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("verify", parents=[common],
                       help="convergence and identity reports; exit 4 if any verdict fails")
    p.add_argument("--check", choices=("theorem1", "theorem2", "weight", "buchstab", "all"),
                   default="all")
    p.add_argument("--spec", default="one_over_n")
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--q", type=int, default=1)
    p.add_argument("--u", type=float, default=2.0, help="smoothing for theorem2 (z = x^(1/u))")
    p.add_argument("--coeffs", default="1,1", help="polynomial weight coefficients c0,c1,...")
    p.add_argument("--ladder", default=None, help="comma list of x values")
    p.add_argument("--deep", action="store_true", help="extend the default ladder to 1e8")
    p.add_argument("--series-tol", type=float, default=1e-7)
    p.add_argument("--cases", type=int, default=50)
    p.add_argument("--seed", type=int, default=20240817)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None):
    """Entry point; returns 0, or 2/3/4 for usage/tolerance/verdict failures."""
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _resolve(ns)
        return ns.func(ns, cfg)
    except ToleranceError as exc:
        print(f"sievesum: tolerance not reached: {exc}", file=sys.stderr)
        return 3
    except RangeError as exc:
        print(f"sievesum: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"sievesum: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
