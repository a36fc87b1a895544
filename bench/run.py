"""sievesum benchmark: one workload, timed through the command line.

    python3 bench/run.py --workload scan|zhang|verify|buchstab --seed N \
        --seconds S --trace 0|1 [--quick]

Run from the root of a source checkout; the package is imported from its
``src``.  Every CLI call is a fresh single-threaded process (bench/op.py),
as when a user runs ``sievesum``, so each pays its own import and prime
tables.  The run sets up (imports the package) several times, then repeats
whole rounds of the workload's commands while the next round is due to end
within S seconds, runs the checks of workloads.py outside the timed region,
and prints one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones: solve_s (median round
time after set-up), setup_s (median import time) and peak_rss_mb (median
over rounds of the largest peak RSS of a round's processes).  With
--trace 1 rounds alternate untraced and traced, the metrics are the
per-layer ones, per traced round (see tracing.py), and the tracing
overhead (traced minus untraced median round time) goes to stderr.
--quick runs tiny inputs in seconds, for the benchmark's own tests.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import span_names  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 5
RUN_BUDGET_S = 170.0  # the whole run, set-up and checks included, ends within 180 s
ROUND_BUDGET_S = 120.0  # no round starts that would end past this


END_TO_END = [("solve_s", "s", "lower"), ("setup_s", "s", "lower"), ("peak_rss_mb", "MB", "lower")]


DERIVED = [
    ("primes.primes_sieved", "count", "lower"),
    ("dfs.terms", "count", "lower"),
    ("dfs.ns_per_term", "ns", "lower"),
    ("dde.panels", "count", "lower"),
    ("dde.eval_f_many.points", "count", "lower"),
    ("dde.eval_log_f_many.points", "count", "lower"),
    ("quadchev.bary_matrix.rows", "count", "lower"),
    ("iterints.marches", "count", "lower"),
    ("iterints.t_nodes_marched", "count", "lower"),
    ("iterints.ladder_useful", "ratio", "higher"),
]


def per_layer_metrics():
    out = []
    for name in span_names():
        out += [(f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower")]
    return out + DERIVED


class Runner:
    """Starts bench/op.py processes on the checkout's src, one at a time."""

    def __init__(self, root, tmp, deadline):
        self.tmp = Path(tmp)
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env.pop("SIEVESUM_THREADS", None)
        self.env.pop("SIEVESUM_OUTDIR", None)
        self.env["PYTHONPATH"] = str(root / "src")
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = "1"
        self.root = root
        self.n = 0

    def _run(self, tail):
        self.n += 1
        stats = self.tmp / f"{self.n}.json"
        err = self.tmp / f"{self.n}.err"
        cmd = [sys.executable, str(HERE / "op.py"), str(stats), *tail]
        timeout = max(1.0, self.deadline - time.monotonic())
        with open(err, "w", encoding="utf-8") as fh:
            try:
                subprocess.run(cmd, cwd=self.root, env=self.env, stdout=fh, stderr=fh,
                               timeout=timeout, check=False)
            except subprocess.TimeoutExpired:
                pass
        try:
            return json.loads(stats.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            tail_text = err.read_text(encoding="utf-8", errors="replace")[-2000:]
            print(f"bench: {' '.join(tail)} left no stats:\n{tail_text}", file=sys.stderr)
            return None

    def probe(self):
        st = self._run(["--probe"])
        return None if st is None else st["import_s"]

    def op(self, name, argv, trace=False):
        """(stats or None, stdout text) of one CLI call."""
        out = self.tmp / f"{self.n}-{name}.out"
        st = self._run([str(out), *(["--trace"] if trace else []), "--", *argv])
        text = out.read_text(encoding="utf-8") if out.exists() else ""
        if st is not None and st["rc"] != 0:
            print(f"bench: {name} exited with {st['rc']}", file=sys.stderr)
            st = None
        return st, text


def run_round(runner, ops, trace):
    stats, outs = {}, {}
    for name, argv in ops:
        stats[name], outs[name] = runner.op(name, argv, trace)
    return stats, outs


def _layer_values(traced_rounds):
    """Per-layer metrics, each the mean over the traced rounds."""
    totals = {}
    for stats in traced_rounds:
        for st in stats.values():
            tr = st["trace"]
            for name, n in tr["calls"].items():
                totals[f"{name}.calls"] = totals.get(f"{name}.calls", 0) + n
            for name, s in tr["self_s"].items():
                totals[f"{name}.self_s"] = totals.get(f"{name}.self_s", 0.0) + s
            for key, n in tr["counts"].items():
                totals[key] = totals.get(key, 0) + n
    n = len(traced_rounds)
    vals = {k: v / n for k, v in totals.items()}
    terms = vals.get("dfs.terms", 0)
    vals["dfs.ns_per_term"] = 1e9 * vals["dfs.msum_float.self_s"] / terms if terms else 0.0
    marched = vals.get("iterints.t_nodes_marched", 0)
    vals["iterints.ladder_useful"] = vals.get("iterints.t_nodes_final", 0) / marched if marched else 0.0
    return {name: {"value": vals.get(name, 0), "unit": unit} for name, unit, _ in per_layer_metrics()}


def _run_checks(check, outs, params, root):
    sys.path.insert(0, str(root / "src"))
    try:
        import sievesum

        return check(outs, params, sievesum)
    except Exception:  # a check that cannot run is a failed check
        traceback.print_exc()
        return ["a check raised; see the traceback above"]


def bench(args, root):
    make, check = WORKLOADS[args.workload]
    params, ops, check_ops = make(args.seed, args.quick)
    out_root = root / ".bench_out"
    out_root.mkdir(exist_ok=True)
    start = time.monotonic()
    with tempfile.TemporaryDirectory(dir=out_root) as tmp:
        runner = Runner(root, tmp, start + RUN_BUDGET_S)
        runner.probe()  # compiles the package's bytecode once, untimed
        setup = [runner.probe() for _ in range(SETUP_PROBES)]

        # whole rounds (with --trace 1, untraced and traced pairs) while the
        # next one is due to end within the S seconds; the first always runs
        rounds = []  # (traced, stats, outs)
        t0 = time.monotonic()
        while True:
            for traced in ((False, True) if args.trace else (False,)):
                rounds.append((traced, *run_round(runner, ops, traced)))
            elapsed = time.monotonic() - t0
            step = elapsed * (2 if args.trace else 1) / len(rounds)
            if elapsed + step > min(args.seconds, ROUND_BUDGET_S - (t0 - start)):
                break

        check_stats, check_outs = run_round(runner, check_ops, False)

    attempted = sum(len(stats) for _, stats, _ in rounds)
    failed = sum(st is None for _, stats, _ in rounds for st in stats.values())
    problems = [f"check command {n} failed" for n, st in check_stats.items() if st is None]
    first = rounds[0][2]
    for _, _, outs in rounds[1:]:
        problems += [f"{n}: output differs between rounds" for n in outs if outs[n] != first[n]]
    if failed == 0 and not problems:
        problems += _run_checks(check, {**first, **check_outs}, params, root)
    for p in problems:
        print(f"bench: CHECK FAILED: {p}", file=sys.stderr)

    if failed or problems:
        return {"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}
    solve = {traced: [sum(st["solve_s"] for st in stats.values()) for t, stats, _ in rounds
                      if t == traced] for traced in (False, True)}
    print(f"bench: {args.workload} round times {solve}", file=sys.stderr)
    if args.trace:
        overhead = statistics.median(solve[True]) - statistics.median(solve[False])
        print(f"bench: tracing overhead {overhead:.3f} s (traced minus untraced solve_s)",
              file=sys.stderr)
        metrics = _layer_values([stats for traced, stats, _ in rounds if traced])
    else:
        setup += [st["import_s"] for _, stats, _ in rounds for st in stats.values()]
        rss = [max(st["rss_mb"] for st in stats.values()) for _, stats, _ in rounds]
        metrics = {
            "solve_s": {"value": statistics.median(solve[False]), "unit": "s"},
            "setup_s": {"value": statistics.median(s for s in setup if s is not None), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
        }
    return {"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="tiny inputs, for the tests")
    args = ap.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "sievesum" / "cli.py").is_file():
        print(f"bench: no sievesum source under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    print(json.dumps(bench(args, root)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
