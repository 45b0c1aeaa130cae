"""Record the reference stdout digests the benchmark checks outputs against.

    python3 bench/record_digests.py --seeds 0-49

For every workload and seed it generates the inputs, runs each command of
the batch through the CLI once, checks the output against the oracles and
stores the SHA-256 of its stdout in ``bench/reference_digests.json``, with
one worker process per CPU.  Run it only on a commit whose outputs are known
to be right: a later commit that changes any output byte for these seeds then
fails the benchmark.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import tempfile
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import inputs
import run
import workloads


def digests_for(workload, seed):
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        tmp = Path(tmp)
        truths = inputs.generate(workload, seed, tmp / "in")
        table = {}
        for label, argv in workloads.commands(truths, tmp / "in"):
            child = run.run_cli(argv, tmp)
            error = (f"exit code {child['code']}" if child["code"] != 0
                     else workloads.check_output(label, child["stdout"].decode(), truths))
            if error:
                raise SystemExit(f"{workload} seed {seed} {label}: {error}")
            table[label] = hashlib.sha256(child["stdout"]).hexdigest()
    return workload, seed, table


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-49")
    args = parser.parse_args(argv)
    first, last = (int(x) for x in args.seeds.split("-"))
    table = (json.loads(run.REFERENCE_DIGESTS.read_text(encoding="utf-8"))
             if run.REFERENCE_DIGESTS.exists() else {})
    jobs = [(w, s) for s in range(first, last + 1) for w in workloads.WORKLOADS]
    with ProcessPoolExecutor(max_workers=os.cpu_count(),
                             mp_context=multiprocessing.get_context("spawn")) as pool:
        for workload, seed, digests in pool.map(digests_for, *zip(*jobs)):
            table.setdefault(workload, {})[str(seed)] = digests
            print(workload, seed, flush=True)
    for workload in table:
        table[workload] = dict(sorted(table[workload].items(), key=lambda kv: int(kv[0])))
    run.REFERENCE_DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                                     encoding="utf-8")


if __name__ == "__main__":
    main()
