"""citemetrics benchmark harness.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from anywhere; the checkout is the parent of this directory and the
library is taken from its ``src/``.  Workloads (see BENCHMARK.json):

* ``large_report``      ``compute --format json`` (all 23 indices) on three
                        ~5k-publication event-level records, one per
                        self-citation mode;
* ``cohort_batch``      ``compare``, ``matrix`` and ``group`` over ~200 small
                        records, half JSON, half events CSV.

``--trace 0`` runs the workload's batch of CLI commands as a closed loop with
one client (one ``python -m citemetrics`` child at a time) until ``--seconds``
are used, and reports the end-to-end metrics.  ``--trace 1`` runs the batch
once through the CLI (for the ``cli.*`` metrics), then replays the same
library calls in-process, alternating traced and untraced replays, and
reports the per-layer metrics and the tracing overhead.  Every command's
output is checked; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE_DIGESTS = BENCH / "reference_digests.json"
SETUP_REPEATS = 5
STARTUP_PROBES = 5
CHILD_TIMEOUT_S = 150
WARM_UP = ("import citemetrics, citemetrics.cli, numpy; "
           "print(citemetrics.__file__); print(numpy.__version__)")


class BenchError(Exception):
    """The harness cannot run here (no library, a failing generator)."""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv, out_dir):
    """Run one child with stdout/stderr to files and return its wall time,
    peak resident set and CPU time, read with ``os.wait4`` for that child
    alone.  The harness keeps its own memory small: a child's peak RSS
    starts at the parent's peak when it is forked."""
    out_path, err_path = out_dir / "stdout", out_dir / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "rss_mb": usage.ru_maxrss / 1024,
            "cpu_s": usage.ru_utime + usage.ru_stime, "code": proc.returncode,
            "stdout": out_path.read_bytes(), "stderr": err_path.read_bytes()}


def run_cli(args, out_dir):
    return run_child([sys.executable, "-m", "citemetrics", *args], out_dir)


# ---------------------------------------------------------------------------
# Set-up: generate and write the seeded inputs, then warm the CLI up

def set_up(args, in_dir):
    """One set-up: generate and write the seeded inputs into ``in_dir``, then
    start the CLI once to fill the bytecode and file caches.  Returns its
    time, the generator's description of the inputs and the numpy version."""
    argv = [sys.executable, str(BENCH / "inputs.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--out", str(in_dir)]
    start = time.perf_counter()
    generated = subprocess.run(argv + (["--smoke"] if args.smoke else []),
                               capture_output=True, cwd=ROOT)
    warm = subprocess.run([sys.executable, "-c", WARM_UP], capture_output=True,
                          env=child_env(), cwd=ROOT)
    seconds = time.perf_counter() - start
    if generated.returncode != 0:
        raise BenchError(f"input generator failed: {generated.stderr.decode()[-500:]}")
    if warm.returncode != 0:
        raise BenchError(f"cannot import citemetrics: {warm.stderr.decode()[-500:]}")
    library_file, numpy_version = warm.stdout.decode().split()
    if not Path(library_file).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"citemetrics was imported from {library_file}, not from {SRC}")
    return seconds, generated.stdout, numpy_version


def set_up_again(args, work_root, first_output):
    """Time one more set-up into a scratch directory and remove it; the
    seeded generator must describe the same inputs as the first time."""
    in_dir = work_root / "again"
    seconds, output, _ = set_up(args, in_dir)
    shutil.rmtree(in_dir)
    if output != first_output:
        raise BenchError("the generator wrote other inputs for the same seed")
    return seconds


def loop_s():
    """Median time of a fixed pure-Python loop: a gauge of how fast the
    machine runs right now, printed next to the results so that drift of a
    shared host can be told apart from a change in the program."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def environment(args, numpy_version):
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), None)
    except OSError:
        pass
    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, cwd=ROOT,
                            text=True) if (ROOT / ".git").exists() else None
    src_digest = hashlib.sha256()
    for path in sorted((SRC / "citemetrics").glob("*.py")):
        src_digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "smoke": args.smoke, "nproc": os.cpu_count(),
            "cpu_model": cpu_model, "python": platform.python_version(),
            "numpy": numpy_version,
            "commit": commit.stdout.strip() if commit and commit.returncode == 0 else None,
            "src_sha256": src_digest.hexdigest()}


# ---------------------------------------------------------------------------
# Output checks

class Checker:
    """Judges every command run: exit code 0, no traceback on stderr, and
    stdout that passes the oracles and matches the reference digest recorded
    for this seed (when one is recorded) and every earlier run of the same
    command in this run."""

    def __init__(self, args, truths):
        self.truths = truths
        self.reference = {}
        if not args.smoke and REFERENCE_DIGESTS.exists():
            table = json.loads(REFERENCE_DIGESTS.read_text(encoding="utf-8"))
            self.reference = table.get(args.workload, {}).get(str(args.seed), {})
        self.seen = {}  # label -> digest of the first output that passed
        self.outputs = {}  # label -> that output
        self.attempted = 0
        self.errors = []

    def judge(self, label, child):
        self.count(self._error(label, child))

    def count(self, error):
        """Count one attempted command; ``error`` is None when it passed."""
        self.attempted += 1
        if error:
            self.errors.append(error)

    def _error(self, label, child):
        if child["code"] != 0:
            return f"{label}: exit code {child['code']}: {child['stderr'].decode()[-300:]}"
        if b"Traceback" in child["stderr"]:
            return f"{label}: traceback on stderr"
        return self.judge_text(label, child["stdout"])

    def judge_text(self, label, stdout):
        digest = hashlib.sha256(stdout).hexdigest()
        if label in self.seen:
            return None if digest == self.seen[label] else f"{label}: output changed between runs"
        if label in self.reference and digest != self.reference[label]:
            return f"{label}: stdout digest differs from the reference for this seed"
        error = workloads.check_output(label, stdout.decode(), self.truths)
        if error is None:
            self.seen[label] = digest
            self.outputs[label] = stdout
        return error

    @property
    def failed(self):
        return len(self.errors)


def run_batch(cmds, checker, out_dir):
    """Run the batch once, one child at a time, then judge the outputs.
    Returns the batch's wall time and the children's results."""
    start = time.perf_counter()
    children = [(label, run_cli(argv, out_dir)) for label, argv in cmds]
    wall = time.perf_counter() - start
    for label, child in children:
        checker.judge(label, child)
    return wall, [child for _, child in children]


# ---------------------------------------------------------------------------
# The two kinds of run

def end_to_end(args, cmds, checker, out_dir, setup_s, again):
    """Closed loop, one client: run the batch until the next one would end
    after ``args.seconds``.  Between batches, call ``again`` to time another
    set-up until SETUP_REPEATS set-ups (the first took ``setup_s``) are
    timed, spread evenly over the run.  ``wall_s`` is the mean
    wall time of a batch and ``setup_s`` the mean set-up time over the run:
    a shared host's speed changes many times a second and between phases of
    a minute or more, and a mean over the whole run takes in more of that
    than the median or the fastest of a few multi-second samples."""
    start = time.perf_counter()
    setups = [setup_s]
    batch_walls, children = [], []
    while True:
        wall, batch = run_batch(cmds, checker, out_dir)
        batch_walls.append(wall)
        children += batch
        elapsed = time.perf_counter() - start
        if len(setups) < SETUP_REPEATS and elapsed >= len(setups) * args.seconds / SETUP_REPEATS:
            setups.append(again())
        if time.perf_counter() - start + statistics.mean(batch_walls) > args.seconds:
            break
    while len(setups) < SETUP_REPEATS:
        setups.append(again())
    print("batch wall_s: " + json.dumps([round(w, 3) for w in batch_walls]))
    print("command wall_s: " + json.dumps({
        label: [round(c["wall_s"], 3) for c in children[i::len(cmds)]]
        for i, (label, _) in enumerate(cmds)}))
    print("setup_s: " + json.dumps([round(t, 3) for t in setups]))
    # peak_rss_mb is only a child's own peak while it exceeds the harness's
    print(f"harness peak rss MB: {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f}")
    return {"wall_s": statistics.mean(batch_walls),
            "peak_rss_mb": max(c["rss_mb"] for c in children),
            "setup_s": statistics.mean(setups)}


def traced(args, cmds, checker, out_dir, in_dir, truths):
    start = time.perf_counter()
    _, cli_children = run_batch(cmds, checker, out_dir)
    startups = [run_child([sys.executable, "-c", "import citemetrics.cli"], out_dir)
                for _ in range(STARTUP_PROBES)]
    if any(s["code"] != 0 for s in startups):
        raise BenchError("startup probe failed")

    sys.path.insert(0, str(SRC))
    passes, traced_walls, untraced_walls = [], [], []
    # one traced and one untraced replay per round, rounds until the next
    # one would end after args.seconds
    while not passes or (time.perf_counter() - start + traced_walls[-1]
                         + untraced_walls[-1] <= args.seconds):
        # alternate which replay goes first, so drift hits both alike
        order = (True, False) if len(passes) % 2 == 0 else (False, True)
        for tracing in order:
            tracer = spans.Tracer() if tracing else spans.NullTracer()
            t0 = time.perf_counter()
            errors, texts = workloads.replay(tracer, truths, in_dir)
            (traced_walls if tracing else untraced_walls).append(time.perf_counter() - t0)
            for label, _ in cmds:
                if label in texts and texts[label].encode() != checker.outputs.get(label):
                    errors.setdefault(label, f"{label}: in-process output differs from the CLI's")
                checker.count(errors.get(label))
            if tracing:
                passes.append(tracer)

    per_pass = [workloads.layer_metrics(t.spans, t.counts) for t in passes]
    # counters repeat exactly across replays; timings take the median
    metrics = {name: (statistics.median_low if isinstance(value, int) else statistics.median)(
                   p[name] for p in per_pass)
               for name, value in per_pass[0].items()}
    metrics["cli.startup_s"] = statistics.median(s["wall_s"] for s in startups)
    metrics["cli.cpu_s"] = sum(c["cpu_s"] for c in cli_children)
    metrics["cli.commands"] = len(cli_children)
    # the tracing overhead of a replay: its spans times what one span costs,
    # over the untraced replay's time
    metrics["trace.spans"] = len(passes[0].spans)
    metrics["trace.overhead_ratio"] = (metrics["trace.spans"] * spans.span_cost()
                                       / statistics.median(untraced_walls))
    print(f"traced/untraced replay wall: {statistics.median(traced_walls):.4f}"
          f"/{statistics.median(untraced_walls):.4f} s")

    layers = spans.layer_self_times(passes[len(passes) // 2].spans)
    print("layer self time (s): " + json.dumps({k: round(v, 4) for k, v in sorted(layers.items())}))
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    spans_path = out / f"spans-{args.workload}-seed{args.seed}.jsonl"
    spans.write_spans(spans_path, [t.spans for t in passes],
                      {"workload": args.workload, "seed": args.seed, "layers": layers})
    print(f"spans: {spans_path.relative_to(ROOT)}")
    return metrics


def metric_units(trace):
    """Metric name -> unit, from BENCHMARK.json, for the kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, to check the harness in seconds")
    args = parser.parse_args(argv)

    if not (SRC / "citemetrics" / "__init__.py").is_file():
        print(f"error: no citemetrics sources under {SRC}", file=sys.stderr)
        return 2
    work_root = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        work_root.mkdir(parents=True)
        in_dir = work_root / "inputs"
        setup_s, generated, numpy_version = set_up(args, in_dir)
        truths = json.loads(generated)
        print("env: " + json.dumps(environment(args, numpy_version), sort_keys=True))
        for row in truths["shape"]:
            print("shape: " + json.dumps(row))
        out_dir = work_root / "out"
        out_dir.mkdir()
        checker = Checker(args, truths)
        if not checker.reference and not args.smoke:
            print(f"note: no reference digests for seed {args.seed}; "
                  "outputs are checked against the oracles only")
        cmds = workloads.commands(truths, in_dir)
        gauge = loop_s()
        if args.trace:
            metrics = traced(args, cmds, checker, out_dir, in_dir, truths)
        else:
            metrics = end_to_end(args, cmds, checker, out_dir, setup_s,
                                 functools.partial(set_up_again, args, work_root, generated))
        print(f"machine gauge loop_s: before {gauge:.4f}, after {loop_s():.4f}")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    for error in checker.errors[:10]:
        print(f"failed: {error}", file=sys.stderr)
    units = metric_units(args.trace)
    print(json.dumps({
        "correct": checker.failed == 0, "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
