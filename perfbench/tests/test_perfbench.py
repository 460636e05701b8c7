"""Self-test of the benchmark: every named metric is emitted with its unit,
and a corrupted output counts as a failed op.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
for path in (BENCH, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402
from workloads import REFERENCE_DIR, WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def _minimal_cycle(name):
    """One unit of the workload's seeded cycle: the fewest ops that exercise it."""
    return WORKLOADS[name].cycle(seed=1)[:1]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_emitted_with_unit(name, trace):
    result, record = run.run_benchmark(WORKLOADS[name], seed=1, seconds=0, trace=trace,
                                       cycle=_minimal_cycle(name), setup_repeats=1)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, record["failures"]
    assert result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]
    json.dumps(result)


def test_corrupted_series_counts_as_failed_op(monkeypatch):
    """A contraction.csv one part in 1e6 off its reference fails the check."""
    from fde import cli

    def corrupted(argv):
        out = argv[argv.index("--out") + 1]
        os.makedirs(out, exist_ok=True)
        with open(os.path.join(REFERENCE_DIR, "contraction.csv")) as f:
            lines = f.read().splitlines()
        t, norm, rest = lines[5].split(",", 2)
        lines[5] = f"{t},{float(norm) * (1 + 1e-6)!r},{rest}"
        with open(os.path.join(out, "contraction.csv"), "w") as f:
            f.write("\n".join(lines) + "\n")
        with open(os.path.join(out, "contract_report.json"), "w") as f:
            json.dump({"verdict": "PASS"}, f)
        return 0

    monkeypatch.setattr(cli, "run_command", corrupted)
    records, _, _ = run.measure(WORKLOADS["contract"], seed=1, seconds=0, trace=False)
    assert len(records) == 1
    assert not records[0]["ok"]
    assert "norm row 4" in records[0]["reason"]


def test_wrong_K_counts_as_failed_op(tmp_path):
    """A profile K off the closed-form shift of the expansion's K0 fails the check."""
    sweep = WORKLOADS["profile_sweep"]
    unit = _minimal_cycle("profile_sweep")[0]
    dirs = [str(tmp_path / "profile"), str(tmp_path / "expansion")]
    records = run.run_unit(sweep, unit, dirs)
    assert all(r["ok"] for r in records), [r["reason"] for r in records]

    summary_path = os.path.join(dirs[0], "profile_summary.json")
    with open(summary_path) as f:
        summary = json.load(f)
    with open(os.path.join(dirs[1], "expansion_report.json")) as f:
        report = json.load(f)
    beta = sweep.params_of(unit[0])["beta"]
    summary["K"] += 2.0 * (summary["K_error_estimate"] + report["K_error"] / -beta)
    with open(summary_path, "w") as f:
        json.dump(summary, f)
    reasons = sweep.check(unit, [(0, dirs[0]), (records[1]["code"], dirs[1])])
    assert reasons[0] is not None and "closed form" in reasons[0]
    assert reasons[1] is None


def test_refuses_without_sources(tmp_path):
    """Where only BENCHMARK.json and the benchmark exist, it exits non-zero with no result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(SPEC["command"] + ["--workload", "contract", "--seed", "1",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
