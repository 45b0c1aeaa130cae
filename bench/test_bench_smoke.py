"""Smoke tests of the benchmark harness: every workload and both kinds of
run on tiny inputs, the output checks, the seeded generator, and the
refusal to run without the library's sources."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import inputs
import workloads

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run_bench(root, *args):
    return subprocess.run([sys.executable, str(root / "bench" / "run.py"), *args],
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric(workload, trace):
    proc = _run_bench(BENCH.parent, "--workload", workload, "--seed", "7",
                      "--seconds", "0.1", "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    kind = "per_layer" if trace == "1" else "end_to_end"
    assert list(result["metrics"]) == [m["name"] for m in SPEC[kind]]


@pytest.mark.parametrize("workload", ["large_report", "cohort_batch"])
def test_counters_repeat_exactly(workload):
    counters = ("records.parse_events", "records.events_dropped")
    seen = []
    for _ in range(2):
        proc = _run_bench(BENCH.parent, "--workload", workload, "--seed", "3",
                          "--seconds", "0.1", "--trace", "1", "--smoke")
        assert proc.returncode == 0, proc.stderr
        metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
        seen.append([metrics[name]["value"] for name in counters])
    assert seen[0] == seen[1]
    assert any(seen[0])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = _run_bench(tmp_path, "--workload", "cohort_batch", "--seed", "1",
                      "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_generator_is_seeded(tmp_path):
    first = inputs.generate("cohort_batch", 5, tmp_path / "a", smoke=True)
    again = inputs.generate("cohort_batch", 5, tmp_path / "b", smoke=True)
    other = inputs.generate("cohort_batch", 6, tmp_path / "c", smoke=True)
    assert first["records"] == again["records"]
    for record in first["records"]:
        name = record["file"]
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert first["records"] != other["records"]
    # sizes are fixed by slot; only the contents follow the seed
    assert [(r["publications"], r["events"]) for r in first["shape"]] == \
        [(r["publications"], r["events"]) for r in other["shape"]]


def test_checks_reject_a_wrong_value(tmp_path):
    truths = inputs.generate("cohort_batch", 5, tmp_path, smoke=True)
    members = {"members": len(truths["records"])}
    counts = [r["counts"]["include"] for r in truths["records"]]
    members["successive_h"] = workloads.oracle_h([workloads.oracle_h(c) for c in counts])
    members["group_hp"] = workloads.oracle_h([len(c) for c in counts])
    members["group_hc"] = workloads.oracle_h([sum(c) for c in counts])
    text = "".join(f"{key}  {value}\n" for key, value in members.items())
    assert workloads.check_output("group", text, truths) is None
    wrong = text.replace(f"group_hc  {members['group_hc']}",
                         f"group_hc  {members['group_hc'] + 1}")
    assert workloads.check_output("group", wrong, truths) is not None
    assert workloads.check_output("group", "not a table", truths) is not None
