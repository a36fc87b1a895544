"""Tests of the benchmark itself: quick runs of every workload, and checks
that reject a perturbed output.  From the repository root:

    python3 -m pytest bench
"""

import csv
import io
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import sievesum  # noqa: E402
import workloads  # noqa: E402

SEED = 5


def _bench(*args, cwd=ROOT):
    cmd = [sys.executable, str(cwd / "bench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(workload, trace):
    proc = _bench("--workload", workload, "--seed", str(SEED), "--seconds", "0.1",
                  "--trace", str(trace), "--quick")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_quick_run_is_correct_and_reports_every_end_to_end_metric(workload):
    res = _result(workload, 0)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    want = {name: unit for name, unit, _ in run.END_TO_END}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_traced_run_reports_every_per_layer_metric():
    res = _result("zhang", 1)
    assert res["correct"] and res["failed"] == 0
    want = {name: unit for name, unit, _ in run.per_layer_metrics()}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    for name in ("iterints.build_table.calls", "dde.solve_f_log.self_s",
                 "dde.eval_log_f_many.points", "iterints.ladder_useful"):
        assert res["metrics"][name]["value"] > 0, name


def test_benchmark_json_lists_the_metrics_and_workloads_the_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == \
        run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        run.per_layer_metrics()
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_fails_without_printing_a_result_where_the_sources_are_missing(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "scan", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""


# ------------------------------------------------------ perturbed outputs

_OUTPUTS = {}


def _outputs(workload, tmp_path):
    """Params and stdout of every command of one quick round, cached."""
    if workload not in _OUTPUTS:
        params, ops, check_ops = workloads.WORKLOADS[workload][0](SEED, True)
        runner = run.Runner(ROOT, tmp_path, time.monotonic() + 170.0)
        stats, outs = run.run_round(runner, ops + check_ops, False)
        assert all(st is not None for st in stats.values())
        _OUTPUTS[workload] = params, outs
    return _OUTPUTS[workload]


def _edit(text, field, fn, where=lambda row: True, block=None):
    """Apply fn to one field of the first data row matching where (and block)."""
    out, header, check, done = [], None, None, False
    for line in text.splitlines():
        if line.startswith("# "):
            header = None
            check = line[len("# check="):] if line.startswith("# check=") else check
        elif line.strip() and header is None:
            header = next(csv.reader([line]))
        elif line.strip() and not done:
            row = dict(zip(header, next(csv.reader([line]))))
            if (block is None or check == block) and where(row):
                row[field] = fn(row[field])
                buf = io.StringIO()
                csv.writer(buf, lineterminator="").writerow([row[h] for h in header])
                line, done = buf.getvalue(), True
        out.append(line)
    assert done, f"no row to edit for {field}"
    return "\n".join(out) + "\n"


def _edit_meta(text, key, value, block=None):
    out, check, done = [], None, False
    for line in text.splitlines():
        if line.startswith("# check="):
            check = line[len("# check="):]
        if line.startswith(f"# {key}=") and (block is None or check == block) and not done:
            line, done = f"# {key}={value}", True
        out.append(line)
    assert done, f"no meta line {key}"
    return "\n".join(out) + "\n"


def _rel(x, eps=1e-3):
    return repr(float(x) * (1.0 + eps))


def _problems(workload, tmp_path, name, text, **kw):
    params, outs = _outputs(workload, tmp_path)
    check = workloads.WORKLOADS[workload][1]
    return check({**outs, name: text}, params, sievesum, **kw)


def test_unperturbed_outputs_pass(tmp_path):
    for workload, (_, check) in workloads.WORKLOADS.items():
        params, outs = _outputs(workload, tmp_path)
        assert check(outs, params, sievesum) == [], workload


def _cell(k, m):
    return lambda row: (row["k"], row["m"]) == (str(k), str(m))


def test_scan_checks_reject_perturbed_cells(tmp_path):
    params, outs = _outputs("scan", tmp_path)
    text = outs["scan"]
    k, m = params["sample"]
    cases = [
        _edit(text, "log_abs", lambda v: repr(float(v) + math.log1p(1e-3)), _cell(k, m)),
        _edit(text, "sign", lambda v: repr(-float(v)), _cell(k, m)),
        _edit(text, "status", lambda v: "ok", _cell(1, 3)),
        _edit(text, "cancellation", lambda v: "0", _cell(2, 4)),
    ]
    for bad in cases:
        assert _problems("scan", tmp_path, "scan", bad)


def test_scan_recursion_check_rejects_a_perturbed_table(tmp_path):
    params, outs = _outputs("scan", tmp_path)

    def i_eval(table, t, v):
        value = sievesum.i_eval(table, t, v)
        return value * (1.0 + 1e-3) if (t, v) == (1.0, 1.0) else value

    problems = _problems("scan", tmp_path, "scan", outs["scan"], i_eval=i_eval)
    assert problems and all("v-recursion" in p for p in problems)


def test_zhang_checks_reject_perturbed_points(tmp_path):
    params, outs = _outputs("zhang", tmp_path)
    k, m = workloads.LOG_VS_FLOAT
    name = f"z{k}_{m}"
    bad = [
        (name, _edit(outs[name], "log_abs", lambda v: repr(float(v) + 1e-3))),
        ("unit_u", _edit(outs["unit_u"], "log_abs", lambda v: repr(float(v) + 1e-3))),
        ("z6_8", _edit(outs["z6_8"], "table_error_2", lambda v: repr(2 * params["tol"]))),
        ("z6_8", _edit(outs["z6_8"], "cancellation", lambda v: "0")),
    ]
    for op, text in bad:
        assert _problems("zhang", tmp_path, op, text), op


def test_verify_checks_reject_perturbed_reports(tmp_path):
    params, outs = _outputs("verify", tmp_path)
    text = outs["verify"]
    at = lambda x: lambda row: float(row["x"]) == x  # noqa: E731
    last = params["ladder"][-1]
    bad = [
        _edit(text, "measured", _rel, at(params["oracle_x"]), block="theorem1"),
        _edit(text, "measured", _rel, at(params["oracle_x"]), block="weight"),
        _edit(text, "residual", _rel, at(last), block="theorem2"),
        _edit(text, "defect", lambda v: "2e-10", block="buchstab"),
        _edit_meta(text, "verdict", "false", block="theorem1"),
        _edit_meta(text, "main_bound", "2e-07", block="weight"),
    ]
    for text_bad in bad:
        assert _problems("verify", tmp_path, "verify", text_bad)


def test_buchstab_checks_reject_perturbed_defects_and_sums(tmp_path):
    params, outs = _outputs("buchstab", tmp_path)
    text = outs["buchstab"]
    worst = max(workloads.parse_csv(text)[0][1], key=lambda r: float(r["defect"]))
    top = lambda row: row == worst  # noqa: E731
    for bad in (_edit(text, "defect", lambda v: "2e-10"), _edit(text, "defect", _rel, top)):
        assert _problems("buchstab", tmp_path, "buchstab", bad)

    def m_sum_smooth(*args):
        res = sievesum.m_sum_smooth(*args)
        return res.__class__(res.value * (1.0 + 1e-3), res.exact_value, res.terms)

    assert _problems("buchstab", tmp_path, "buchstab", text, m_sum_smooth=m_sum_smooth)
