"""Writes expected.json: what the benchmark checks its runs against.

    python3 perfbench/record.py

For each workload at the default seed it runs one untraced pass and
records every operation's stdout sha256 and, per base network, the
output summary that any seed must reproduce (see workloads.py). It then
runs one traced pass, refuses to record if tracing changed any stdout,
and records the exact per-layer counts, which repeat run to run, and
which routing kernel built the tables. Record only from a commit whose
outputs are known to be right: the benchmark fails every later run
whose outputs differ.
"""

from __future__ import annotations

import json
import sys

import workloads
from run import EXPECTED_FILE, Runner, digest, load_program
from tracer import PER_LAYER, Tracer


def record_workload(runner, tracer, workload):
    ops = workloads.build(workload, workloads.DEFAULT_SEED)
    digests, summaries = {}, {}
    for op, result in zip(ops, runner.run_pass(ops)):
        if result.failure is not None:
            raise SystemExit(f"{op.label} failed: {result.failure}")
        payload = json.loads(result.stdout)
        broken = workloads.rule_violation(workload, payload)
        if broken is not None:
            raise SystemExit(f"{op.label}: {broken}")
        digests[op.label] = digest(result.stdout)
        summaries[op.base] = workloads.summary(workload, payload)
    tracer.install()
    try:
        results = runner.run_pass(ops, tracer)
    finally:
        tracer.remove()
    for op, result in zip(ops, results):
        if digest(result.stdout) != digests[op.label]:
            raise SystemExit(f"{op.label}: tracing changed stdout")
    metrics = tracer.metrics(sum(r.seconds for r in results))
    counts = {name: metrics[name] for name, unit in PER_LAYER if unit == "count"}
    return {"digests": digests, "summaries": summaries, "counts": counts}, dict(tracer.kernels)


def main() -> int:
    program = load_program()
    runner = Runner(program)
    tracer = Tracer(program)
    record = {"default_seed": workloads.DEFAULT_SEED, "kernels": {}, "workloads": {}}
    for workload in workloads.WORKLOADS:
        record["workloads"][workload], kernels = record_workload(runner, tracer, workload)
        record["kernels"][workload] = kernels
        print(f"recorded {workload}", file=sys.stderr)
    with open(EXPECTED_FILE, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
