"""Benchmark for the amalgam decider.

Usage, from the repository root:

    python3 bench/run.py --workload shapes --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --workload diagrams --seed 1 --seconds 50 --trace 1
    python3 bench/run.py --smoke            # every workload, tiny sizes, traced too

One operation is one in-process call of ``amalgam.cli.main(argv)`` on a JSON
document generated from the seed, with ``--out`` naming a scratch file.  The
load is a closed loop with a single client: the next call starts when the
previous one has returned and its output has been re-verified by
``verify.py``.  Checking is the client's think time and is not timed.

Times are reported at a reference machine speed.  Between operations the
runner times a fixed job of its own; every time it reports is divided by the
run's slowdown, the median time of that job over ``REFERENCE_S``.  The
unscaled figures are printed too.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the same
operations in alternating untraced and traced passes, and reports the
per-layer metrics of ``spans.py``.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import inputs
import spans
import verify

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

MIN_PASSES = 3  # each input's median latency then has at least three samples
COLD_STARTS = 11
WARMUP_OPS = 5
REFERENCE_EVERY = 25  # operations between two runs of the reference job
# Median seconds of the reference job on the machine the benchmark was
# written on (Python 3.11.7, 2 vCPUs of a shared host).
REFERENCE_S = 0.020


class SetupError(Exception):
    pass


@dataclass
class Tally:
    """One latency sample per input and pass, the failures seen, and the
    times of the reference job run in between."""

    samples: list[list[float]]
    failures: list[str] = field(default_factory=list)
    passes: int = 0
    reference: list[float] = field(default_factory=list)

    @classmethod
    def over(cls, ops) -> "Tally":
        return cls([[] for _ in ops])

    @property
    def attempted(self) -> int:
        return sum(map(len, self.samples))

    def per_pass(self) -> float:
        return sum(map(sum, self.samples)) / self.passes


# -- machine speed -------------------------------------------------------------

class ReferenceJob:
    """A fixed job of the benchmark's own code, timed alongside the
    operations.  The host's other tenants change the speed this process sees
    by tens of percent between runs; dividing by this job's time reports
    every run at one reference speed.

    The job mixes the three kinds of work the decider does, because each
    reacts to the host differently: pure-Python computation (one poset per
    isomorphism class up to 5 elements), a dictionary larger than the
    per-core caches read in random order, and a JSON document written to
    and read back from a file.  The collector is off while it runs, so its
    time does not depend on how many objects the program keeps alive."""

    def __init__(self, workdir: Path) -> None:
        self.path = workdir / "reference.json"
        names = [f"o{i}" for i in range(24)]
        self.doc = inputs.poset_as_category(inputs.chain(24), names,
                                            lambda a, b: f"{names[a]}_{names[b]}")
        self.keys = [(i, j) for i in range(150) for j in range(150)]
        random.Random(0).shuffle(self.keys)

    def __call__(self) -> float:
        gc.disable()
        try:
            start = perf_counter()
            inputs.all_posets(5)
            table = {k: k[0] ^ k[1] for k in self.keys}
            sum(table[k] for k in self.keys)
            self.path.write_text(json.dumps(self.doc))
            json.loads(self.path.read_text())
            return perf_counter() - start
        finally:
            gc.enable()


def slowdown(reference: list[float]) -> float:
    """How much slower than the reference speed the machine ran."""
    return statistics.median(reference) / REFERENCE_S


# -- one operation -------------------------------------------------------------

def attempt(cli, op: inputs.Op, workdir: Path) -> tuple[float, str | None]:
    """Run one operation; returns its duration and a failure reason or None."""
    out = workdir / "out.json"
    out.unlink(missing_ok=True)
    argv = [str(workdir / a) if a in op.files else a for a in op.argv]
    argv += ["--out", str(out)]
    start = perf_counter()
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects its arguments this way
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a crash is a failed operation, not a failed run
        return perf_counter() - start, f"{op.label}: {type(exc).__name__}: {exc}"
    elapsed = perf_counter() - start
    if code != op.expected:
        return elapsed, f"{op.label}: exit code {code}, expected {op.expected}"
    try:
        doc = json.loads(out.read_text())
    except (OSError, ValueError) as exc:
        return elapsed, f"{op.label}: unreadable output: {exc}"
    reason = verify.verify(op.check, op.files[op.subject], code, doc)
    return elapsed, None if reason is None else f"{op.label}: {reason}"


def run_passes(cli, ops, workdir: Path, seconds: float, min_passes: int, tally: Tally,
               reference: ReferenceJob) -> None:
    """Whole passes over the input set until ``seconds`` have elapsed and at
    least ``min_passes`` passes have run."""
    start = perf_counter()
    first = True
    while first or perf_counter() - start < seconds or tally.passes < min_passes:
        first = False
        for i, (op, samples) in enumerate(zip(ops, tally.samples)):
            if i % REFERENCE_EVERY == 0:
                tally.reference.append(reference())
            elapsed, failure = attempt(cli, op, workdir)
            samples.append(elapsed)
            if failure is not None:
                tally.failures.append(failure)
        tally.passes += 1


# -- set-up --------------------------------------------------------------------

def cold_start_seconds(starts: int, reference: ReferenceJob) -> tuple[float, float]:
    """Median wall time of a fresh interpreter importing ``amalgam.cli``: the
    cost every CLI invocation pays before any work.  Bytecode caches are
    allowed, as for an installed package, so the first start writes them and
    is not counted.  Returns that median and the slowdown measured by the
    reference job run before each counted start."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    cmd = [sys.executable, "-c", "import amalgam.cli"]
    times, reference_times = [], []
    for k in range(starts + 1):
        if k:
            reference_times.append(reference())
        start = perf_counter()
        # No timeout: waiting with one polls in sleeps of up to 50 ms, which
        # would round every start up to the next poll.
        subprocess.run(cmd, env=env, cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        if k:
            times.append(perf_counter() - start)
    return statistics.median(times), slowdown(reference_times)


def import_cli():
    if not (SRC / "amalgam" / "cli.py").is_file():
        raise SetupError(f"no amalgam sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from amalgam import cli
    return cli


def stamp() -> str:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((SRC / "amalgam").rglob("*")):
        if path.suffix in (".py", ".json"):
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return (f"python {platform.python_version()}, nproc {os.cpu_count()}, "
            f"commit {commit}, source sha256 {digest.hexdigest()[:12]}")


# -- runs ----------------------------------------------------------------------

def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: the mean of the order
    statistics weighted by the Beta((n+1)p, (n+1)(1-p)) distribution.  The
    plain sample quantile rests on the one or two inputs at its rank and
    moves with their noise; this estimate spreads its weight over the inputs
    around that rank."""
    xs = sorted(values)
    n = len(xs)
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    # Each order statistic weighs the Beta mass of its 1/n interval, taken by
    # the midpoint rule in 16 steps, in logs so that no density underflows.
    steps = 16
    logs = [(a - 1) * math.log(x) + (b - 1) * math.log1p(-x)
            for x in ((k + 0.5) / (n * steps) for k in range(n * steps))]
    top = max(logs)
    weights = [sum(math.exp(v - top) for v in logs[i * steps:(i + 1) * steps])
               for i in range(n)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def latency_figures(latencies: list[float]) -> tuple[float, float, float]:
    """Throughput over the input set, median and 90th percentile."""
    return len(latencies) / sum(latencies), quantile(latencies, 0.5), quantile(latencies, 0.9)


def end_to_end(cli, ops, workdir: Path, seconds: float, smoke: bool):
    reference = ReferenceJob(workdir)
    setup, setup_slowdown = cold_start_seconds(2 if smoke else COLD_STARTS, reference)
    for op in ops[:WARMUP_OPS]:
        attempt(cli, op, workdir)
    tally = Tally.over(ops)
    run_passes(cli, ops, workdir, seconds, 1 if smoke else MIN_PASSES, tally, reference)
    # One latency per input: its median over the passes.
    measured = [statistics.median(s) for s in tally.samples]
    scale = slowdown(tally.reference)
    throughput, p50, p90 = latency_figures([t / scale for t in measured])
    failed = len(tally.failures)
    attempted = tally.attempted
    metrics = {
        "throughput_ops_s": (throughput, "ops/s"),
        "latency_p50_ms": (p50 * 1000, "ms"),
        "latency_p90_ms": (p90 * 1000, "ms"),
        "verified_share": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup / setup_slowdown, "s"),
    }
    raw = latency_figures(measured)
    notes = [
        f"{attempted} operations in {tally.passes} passes of {len(ops)} inputs; "
        "an input's latency is its median over the passes",
        f"latency samples: {len(measured)}, beyond p90: "
        f"{sum(1 for t in measured if t > raw[2])}",
        f"failed_share: {failed / attempted:.6f} ({failed}/{attempted})",
        f"slowdown: {scale:.4f} over the operations ({len(tally.reference)} reference "
        f"jobs), {setup_slowdown:.4f} over the cold starts",
        f"unscaled: throughput {raw[0]:.4f} ops/s, p50 {raw[1] * 1000:.4f} ms, "
        f"p90 {raw[2] * 1000:.4f} ms, setup {setup:.6f} s",
    ]
    return tally, metrics, notes


def traced(cli, ops, workdir: Path, seconds: float, smoke: bool):
    """Untraced and traced passes alternate, so both see the same machine
    conditions; their per-pass times give the tracing overhead."""
    for op in ops[:WARMUP_OPS]:
        attempt(cli, op, workdir)
    plain, with_spans = Tally.over(ops), Tally.over(ops)
    reference = ReferenceJob(workdir)
    tracer = spans.Tracer()
    start = perf_counter()
    while not with_spans.passes or perf_counter() - start < seconds:
        run_passes(cli, ops, workdir, 0, 0, plain, reference)
        tracer.install()
        try:
            run_passes(cli, ops, workdir, 0, 0, with_spans, reference)
        finally:
            tracer.uninstall()
    overhead = with_spans.per_pass() / plain.per_pass() - 1
    scale = slowdown(with_spans.reference)
    units = spans.metric_units()
    values = tracer.metrics(with_spans.passes, overhead)
    metrics = {name: (values[name] / scale if units[name] == "ms" else values[name],
                      units[name]) for name in units}
    notes = [
        f"{plain.passes} untraced and {with_spans.passes} traced passes of {len(ops)} "
        "inputs, alternating; per-layer figures are per traced pass",
        f"slowdown over the traced passes: {scale:.4f}",
        "missing targets: " + (", ".join(tracer.missing) or "none"),
        "unreadable counters: " + (", ".join(sorted(tracer.unreadable)) or "none"),
    ]
    tally = Tally([a + b for a, b in zip(plain.samples, with_spans.samples)],
                  plain.failures + with_spans.failures, plain.passes + with_spans.passes)
    return tally, metrics, notes


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    cli = import_cli()
    ops = inputs.build(workload, seed, smoke, SRC / "amalgam" / "corpus")
    workdir = Path(tempfile.mkdtemp(prefix=".bench-", dir=ROOT))
    try:
        for op in ops:
            for name, doc in op.files.items():
                (workdir / name).write_text(json.dumps(doc))
        # The inputs stay in memory for the checker; keep the collector from
        # walking them during the measured operations.
        gc.collect()
        gc.freeze()
        measure = traced if trace else end_to_end
        tally, metrics, notes = measure(cli, ops, workdir, seconds, smoke)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"workload {workload}, seed {seed}, trace {int(trace)}: {stamp()}")
    for line in notes + tally.failures[:5]:
        print(f"  {line}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:45s} {value:14.6f} {unit}")
    return {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, one pass; with no --workload, run every "
                             "workload both untraced and traced")
    args = parser.parse_args(argv)
    if args.workload is None and not args.smoke:
        parser.error("--workload is required outside smoke mode")
    try:
        if args.workload is None:
            ok = True
            for workload in inputs.WORKLOADS:
                for trace in (False, True):
                    result = run(workload, args.seed, 0, trace, True)
                    ok = ok and result["correct"]
                    print(json.dumps(result))
            return 0 if ok else 1
        seconds = 0 if args.smoke else args.seconds
        result = run(args.workload, args.seed, seconds, bool(args.trace), args.smoke)
    except (SetupError, ImportError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
