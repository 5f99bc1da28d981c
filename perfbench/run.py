"""End-to-end and per-layer benchmark of circmdd.

Runs one workload (see workloads.py and README.md) through
``circmdd.cli.main`` in this process, checks every output, prints every
metric with its unit, and ends with one JSON line:

    python3 perfbench/run.py --workload enumerate --seed 3 --seconds 40 --trace 0

The program is imported from the ``src/`` directory beside this one and
from nowhere else; without it the benchmark exits 1 and prints no
result. ``--trace 0`` repeats whole passes over the workload for about
``--seconds`` and reports the end-to-end metrics. ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics
of the traced ones, plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import workloads
from tracer import PER_LAYER, Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
EXPECTED_FILE = HERE / "expected.json"

# Fresh interpreters timed for setup_s; the median is reported.
SETUP_PROBES = 9

# The speed of a shared host swings by up to +-30% within seconds, for
# all pure-Python work alike, and one operation can last longer than a
# swing. So the host is sampled while every timed operation runs (see
# HostClock): each stretch of it is scaled by REFERENCE_S / R, where R
# is reference_seconds() timed at the stretch's ends. The metrics read as
# seconds on a host where the reference takes REFERENCE_S, about its
# median on the host the bounds were set on.
REFERENCE_S = 0.0022
# A sample inside an operation times the reference once every TICK_S of
# wall time, which adds about 2% to the operation.
TICK_S = 0.1
# Within a pass an operation is repeated until it has run for MIN_OP_S
# (at most MAX_REPEATS times), so that a short operation's median rests
# on as many samples as a long one's ticks.
MIN_OP_S = 0.2
MAX_REPEATS = 100

END_TO_END = (
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


def load_program():
    """Import circmdd from this checkout's src/ and refuse any other copy."""
    sys.path.insert(0, str(SRC))
    try:
        import circmdd.cli
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import circmdd from {SRC}: {exc}")
    found = Path(circmdd.__file__).resolve().parent.parent
    if found != SRC:
        raise SystemExit(f"perfbench: circmdd came from {found}, not {SRC}")
    return circmdd


def reference_seconds() -> float:
    """Time a fixed computation shaped like the routing kernel's inner loop."""
    start = time.perf_counter()
    seen = set()
    for i in range(2000):
        a = (i % 97, i % 89, i % 83)
        seen.add(a[:1] + (a[1] + 1,) + a[2:])
    sorted(seen)
    return time.perf_counter() - start


class HostClock:
    """Times an operation in seconds of a host of steady speed.

    While the operation runs, a timer signal every TICK_S interrupts it
    between two bytecodes and times a short reference; three more are
    timed just before and just after it. The stretch between two samples
    is scaled by REFERENCE_S over the mean of the references at its ends,
    after a running median of three over the samples, and the samples'
    own time is left out.
    """

    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []  # start, reference, end
        self.previous = signal.SIG_DFL
        self.paused_ns = 0  # time spent sampling, all operations together

    def _sample(self, repeats: int = 1) -> None:
        start = time.perf_counter()
        reference = statistics.median(reference_seconds() for _ in range(repeats))
        end = time.perf_counter()
        self.samples.append((start, reference, end))
        self.paused_ns += round((end - start) * 1e9)

    def now_ns(self) -> int:
        """A clock for the tracer that stands still while sampling."""
        return time.perf_counter_ns() - self.paused_ns

    def _tick(self, signum, frame) -> None:
        self._sample()

    def start(self) -> None:
        self.samples = []
        self.previous = signal.signal(signal.SIGALRM, self._tick)
        self._sample(3)

    def stop(self, begin: float, end: float) -> tuple[float, float]:
        """Unscaled and scaled seconds of the operation timed from
        `begin` to `end`, the ticks' own time left out."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)
        self._sample(3)
        first, *ticks, last = self.samples
        # A tick that fired after the operation returned is not inside it.
        ticks = [tick for tick in ticks if tick[0] < end]
        edges = [begin] + [t for start, _, stop in ticks for t in (start, stop)] + [end]
        references = [first[1]] + [r for _, r, _ in ticks] + [last[1]]
        # A pause of the host during one short sample would scale a whole
        # stretch down; a running median of three drops such a sample.
        references = [
            statistics.median(references[max(i - 1, 0):i + 2]) for i in range(len(references))
        ]
        raw = scaled = 0.0
        for i, (r0, r1) in enumerate(zip(references, references[1:])):
            stretch = edges[2 * i + 1] - edges[2 * i]
            raw += stretch
            scaled += stretch * 2 * REFERENCE_S / (r0 + r1)
        return raw, scaled

    @staticmethod
    def arm() -> None:
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)


@dataclass
class OpResult:
    seconds: float
    stdout: str
    failure: str | None  # why the operation failed, None if it exited 0
    self_s: float | None = None  # sum of span self times, when traced
    scaled_s: float | None = None  # seconds at the reference speed, when clocked


class Runner:
    """Runs operations the way separate CLI processes would see them."""

    def __init__(self, program):
        self.cli = program.cli
        # Held here so that clearing still works while the tracer has
        # replaced the module attribute with a wrapper.
        self.table_cache = program.network.distance_table

    def run_op(
        self, op: workloads.Op, tracer: Tracer | None = None, clock: HostClock | None = None
    ) -> OpResult:
        # Every CLI call pays for its own table, so none is reused.
        self.table_cache.cache_clear()
        gc.collect()
        if tracer is not None:
            tracer.begin_op()
        out, err = io.StringIO(), io.StringIO()
        failure = None
        if clock is not None:
            clock.start()
        start = time.perf_counter()
        if clock is not None:
            clock.arm()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = self.cli.main(list(op.argv))
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = None
            failure = traceback.format_exc(limit=-4)
        end = time.perf_counter()
        seconds, scaled = end - start, None
        if clock is not None:
            seconds, scaled = clock.stop(start, end)
        stdout = out.getvalue()
        if failure is None and code != 0:
            failure = f"exit {code}: {err.getvalue().strip()[:400]}"
        result = OpResult(seconds, stdout, failure, scaled_s=scaled)
        if tracer is not None:
            result.self_s = tracer.end_op(len(stdout.encode()))
        return result

    def run_pass(
        self, ops, tracer: Tracer | None = None, clock: HostClock | None = None
    ) -> list[OpResult]:
        return [self.run_op(op, tracer, clock) for op in ops]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_expected() -> dict:
    with open(EXPECTED_FILE, encoding="utf-8") as handle:
        return json.load(handle)


def check(workload: str, op: workloads.Op, result: OpResult, seed: int, expected) -> str | None:
    """Why the operation's output is wrong, or None when it is right."""
    if result.failure is not None:
        return result.failure
    recorded = expected["workloads"][workload]
    if seed == workloads.DEFAULT_SEED and digest(result.stdout) != recorded["digests"].get(op.label):
        return "stdout digest differs from the recorded one"
    try:
        payload = json.loads(result.stdout)
        broken = workloads.rule_violation(workload, payload)
        if broken is None and workloads.summary(workload, payload) != recorded["summaries"].get(op.base):
            broken = f"summary {workloads.summary(workload, payload)} differs from the recorded one"
    except (ValueError, KeyError, TypeError) as exc:
        broken = f"unexpected output: {exc!r}"
    return broken


class Tally:
    """Operations attempted and the reasons of those that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []

    def add(self, label: str, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failures.append((label, reason))


def setup_seconds(workload: str, seed: int) -> float:
    """Median over fresh interpreters of import plus input generation,
    each scaled by the reference timed in the same interpreter."""
    times = []
    for _ in range(SETUP_PROBES):
        probe = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=False,
        )
        if probe.returncode != 0:
            raise SystemExit(f"perfbench: setup probe failed: {probe.stderr.strip()}")
        setup, reference = map(float, probe.stdout.split()[-2:])
        times.append(setup * REFERENCE_S / reference)
    return statistics.median(times)


def measure_end_to_end(runner, workload, ops, seed, seconds, expected, tally):
    """Whole passes for about `seconds`; each operation's median latency."""
    clock = HostClock()
    raw: list[list[float]] = [[] for _ in ops]
    scaled: list[list[float]] = [[] for _ in ops]
    passes = 0
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for op, raw_times, scaled_times in zip(ops, raw, scaled):
            spent = 0.0
            for _ in range(MAX_REPEATS):
                result = runner.run_op(op, clock=clock)
                raw_times.append(result.seconds)
                scaled_times.append(result.scaled_s)
                tally.add(op.label, check(workload, op, result, seed, expected))
                spent += result.seconds
                if spent >= MIN_OP_S:
                    break
        passes += 1
        now = time.perf_counter()
        if now - start + (now - pass_start) > seconds:
            break
    raw_s = sum(statistics.median(times) for times in raw)
    latencies_ms = [statistics.median(times) * 1e3 for times in scaled]
    percentiles = statistics.quantiles(latencies_ms, n=20, method="inclusive")
    wall_s = sum(latencies_ms) / 1e3
    return {
        "wall_s": wall_s,
        "op_p50_ms": statistics.median(latencies_ms),
        "op_p95_ms": percentiles[18],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "setup_s": setup_seconds(workload, seed),
    }, (
        f"{passes} passes over {len(ops)} operations; unscaled wall {raw_s} s, "
        f"host scale {wall_s / raw_s}"
    )


def measure_traced(runner, program, workload, ops, seed, seconds, expected, tally):
    """Untraced and traced passes in turn; per-layer medians and overhead.

    The per-layer times leave the host's samples out but are not scaled;
    trace.wall_s and the overhead are scaled like the end-to-end times."""
    clock = HostClock()
    tracer = Tracer(program, clock.now_ns)
    plain_walls, traced_walls, per_pass = [], [], []
    untraced_digests: dict[str, str] = {}
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        results = runner.run_pass(ops, clock=clock)
        plain_walls.append(sum(r.scaled_s for r in results))
        for op, result in zip(ops, results):
            tally.add(op.label, check(workload, op, result, seed, expected))
            untraced_digests[op.label] = digest(result.stdout)
        tracer.install()
        try:
            results = runner.run_pass(ops, tracer, clock)
        finally:
            tracer.remove()
        if not tracer.removed():
            tally.failures.append(("tracer", "wrappers left installed"))
        traced_walls.append(sum(r.scaled_s for r in results))
        for op, result in zip(ops, results):
            reason = check(workload, op, result, seed, expected)
            if reason is None and digest(result.stdout) != untraced_digests[op.label]:
                reason = "tracing changed stdout"
            tally.add(op.label, reason)
        per_pass.append(tracer.metrics(sum(r.seconds for r in results)))
        now = time.perf_counter()
        if now - start + (now - pass_start) > seconds:
            break
    metrics = {
        name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]
    }
    metrics["trace.wall_s"] = statistics.median(traced_walls)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(plain_walls)
    kernels = ", ".join(f"{k} x{v}" for k, v in sorted(tracer.kernels.items()))
    note = f"{len(traced_walls)} traced and untraced pass pairs; kernel: {kernels or 'none'}"
    if seed == workloads.DEFAULT_SEED:
        recorded = expected["workloads"][workload]["counts"]
        moved = {k: (v, metrics[k]) for k, v in recorded.items() if metrics[k] != v}
        note += f"; counts that moved from the record (was, now): {moved or 'none'}"
    return metrics, note


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        start = time.perf_counter()
        load_program()
        workloads.build(args.workload, args.seed)
        setup = time.perf_counter() - start
        print(setup, statistics.median(reference_seconds() for _ in range(15)))
        return 0

    program = load_program()
    expected = load_expected()
    ops = workloads.build(args.workload, args.seed)
    runner = Runner(program)
    tally = Tally()
    if args.trace:
        metrics, note = measure_traced(
            runner, program, args.workload, ops, args.seed, args.seconds, expected, tally
        )
        units = dict(PER_LAYER)
    else:
        metrics, note = measure_end_to_end(
            runner, args.workload, ops, args.seed, args.seconds, expected, tally
        )
        units = dict(END_TO_END)

    failed = len(tally.failures)
    for label, reason in tally.failures[:10]:
        print(f"FAILED {label}: {reason}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}: {note}")
    print(f"failed_frac {failed / tally.attempted} ({failed} of {tally.attempted} operations)")
    for name, unit in units.items():
        print(f"{name} {metrics[name]} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
