"""Tests of the benchmark harness itself.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import PER_LAYER, Tracer  # noqa: E402

PROGRAM = run.load_program()

# Small operations that touch every traced layer, one of them failing.
SMALL = [
    ("family", "verify", "2"),
    ("fan", "9", "1,4,7"),
    ("mdd", "enumerate", "41", "8,19,23,40", "--coherent-only"),
    ("lattice", "hilbert", "37", "1,5,11"),
    ("net", "info", "30011", "7,4003"),
    ("fan", "9", "1,4"),
]
SMALL_OPS = [workloads.Op(" ".join(argv), argv, "") for argv in SMALL]

# Time inside an operation but outside every span: copying argv and
# redirecting the output streams.
SELF_TIME_TOLERANCE = (0.02, 0.001)  # share of the operation, plus seconds


def traced_and_plain():
    runner = run.Runner(PROGRAM)
    clock = run.HostClock()
    tracer = Tracer(PROGRAM, clock.now_ns)
    plain = runner.run_pass(SMALL_OPS, clock=clock)
    tracer.install()
    try:
        traced = runner.run_pass(SMALL_OPS, tracer, clock)
    finally:
        tracer.remove()
    return tracer, plain, traced


def test_seeded_sweep_is_reproducible():
    first = workloads.build("sweep", 7)
    assert first == workloads.build("sweep", 7)
    assert first != workloads.build("sweep", 8)
    assert len(first) == workloads.SWEEP_SIZE
    assert len({op.base for op in first}) == workloads.SWEEP_SIZE
    for op in first:
        n, steps = int(op.argv[1]), [int(s) for s in op.argv[2].split(",")]
        assert workloads.SWEEP_N[0] <= n <= workloads.SWEEP_N[1]
        assert len(PROGRAM.network.build_network(n, steps).steps) == 3


def test_every_seed_keeps_the_base_networks():
    for workload in workloads.WORKLOADS:
        bases = sorted(op.base for op in workloads.build(workload, 0))
        assert bases == sorted(op.base for op in workloads.build(workload, 1))


def test_listed_networks_are_the_family_lifts():
    lifts = {q: PROGRAM.fan.build_family(q).lifted for q in (5, 6, 11, 14)}
    assert [(n.n, n.steps) for n in (lifts[5], lifts[6])] == list(
        workloads.ENUMERATE_NETWORKS[:2]
    )
    assert [(n.n, n.steps) for n in (lifts[11], lifts[14])] == list(
        workloads.TABLE_NETWORKS[1:]
    )


def test_self_times_sum_to_each_operation_wall_time():
    tracer, _, traced = traced_and_plain()
    share, floor = SELF_TIME_TOLERANCE
    for op, result in zip(SMALL_OPS, traced):
        assert 0 < result.self_s <= result.seconds, op.label
        assert result.seconds - result.self_s <= share * result.seconds + floor, op.label


def test_tracing_keeps_stdout_and_removes_every_wrapper():
    tracer, plain, traced = traced_and_plain()
    for a, b in zip(plain, traced):
        assert run.digest(a.stdout) == run.digest(b.stdout)
        assert (a.failure is None) == (b.failure is None)
    assert plain[-1].failure.startswith("exit 1")
    assert tracer.removed()
    assert PROGRAM.fan.hilbert_basis is PROGRAM.lattice.hilbert_basis
    assert not hasattr(PROGRAM.fan.build_coherent_mdd, "__circmdd_span__")
    assert tracer.spans["fan.candidate_rays"].raised["UnsupportedArityError"] == 1


def test_traced_counts_match_the_operations():
    tracer, _, traced = traced_and_plain()
    metrics = tracer.metrics(sum(r.seconds for r in traced))
    assert metrics["fan.walls"] <= metrics["fan.candidates"]
    assert metrics["network.routes"] >= 30011 + 9
    assert metrics["coherence.is_coherent.calls"] >= metrics["mdd.diagrams"] > 0
    assert metrics["cli.output_bytes"] == sum(len(r.stdout.encode()) for r in traced)
    assert set(metrics) | {"trace.wall_s", "trace.overhead_s"} == {n for n, _ in PER_LAYER}


def test_host_clock_samples_inside_an_operation_and_restores_the_signal():
    op = SMALL_OPS[4]  # net info on C30011, several ticks long
    clock = run.HostClock()
    before = signal.getsignal(signal.SIGALRM)
    result = run.Runner(PROGRAM).run_op(op, clock=clock)
    assert result.failure is None
    assert len(clock.samples) >= 3
    assert 0 < result.seconds < clock.samples[-1][0] - clock.samples[0][2]
    assert result.scaled_s > 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_gate_rejects_wrong_outputs():
    expected = run.load_expected()
    ops = workloads.build("family-ladder", workloads.DEFAULT_SEED)
    op = next(o for o in ops if o.argv[-1] == "2")
    result = run.Runner(PROGRAM).run_op(op)
    assert run.check("family-ladder", op, result, workloads.DEFAULT_SEED, expected) is None
    wrong = json.loads(result.stdout)
    wrong["fan_mdd_count"] += 1
    result.stdout = json.dumps(wrong, separators=(",", ":"))
    assert "digest" in run.check("family-ladder", op, result, workloads.DEFAULT_SEED, expected)
    assert "fan_mdd_count" in run.check("family-ladder", op, result, 1, expected)


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
