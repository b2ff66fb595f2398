"""tradelab benchmark: four seeded workloads against the public entry points.

Run from the repository root (standard library only):

    python3 perfbench/run.py --workload evolve --seed 1 --seconds 28 --trace 0

Workloads: evolve, tune, replay, xor (see perfbench/README.md). Load is one
process, one thread and a closed loop: jobs run back to back, each after
the previous one finished, until ``--seconds`` have passed. The program's
set-up is timed repeatedly between them, for 15% of the time. Every job's
outputs are checked and digested outside its timed window. The host's
speed is probed with a fixed reference loop around every set-up sample and
job and between a job's ops, and the gated times are reported at reference
speed (see ``REF_PASS_S``).

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs the same
untraced jobs, then one traced set-up and job, prints the per-layer metrics
and writes the spans to ``.perfbench_work/trace-<workload>-<seed>.json``.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics (name -> value and unit).
"""

from __future__ import annotations

import argparse
import array
import contextlib
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracing import PER_LAYER, Tracer, instrument, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# Gated by BENCHMARK.json and reported in the result object.
END_TO_END = [
    ("wall_s", "s"), ("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p90_us", "us"),
    ("peak_rss_mb", "MB"),
]
# Printed but not gated. raw_wall_s is wall_s as measured, and ref_pass_ms
# the median reference pass. failed_ratio is 0 on a correct run, and the
# result object carries it as failed / attempted. An evolve genome either
# trades often or rarely, and the two cost about 17 and 10 ms, so op_p50_us
# jumps between them as the mix crosses one half; ops_per_s carries the mean.
# op_p99_us is printed where a run has at least 1,000 ops.
PRINTED_ONLY = [("op_p50_us", "us"), ("op_p99_us", "us"), ("raw_wall_s", "s"),
                ("ref_pass_ms", "ms"), ("failed_ratio", "ratio")]

clock = time.perf_counter
# Share of a run's time spent timing set-ups, interleaved with the jobs.
SETUP_SHARE = 0.15
MIN_SETUP_SAMPLES = 5
# A set-up sample repeats set-up until it has lasted this long.
SETUP_SAMPLE_S = 0.05
# The shared host's speed swings by up to 2x within seconds, and a fixed
# pure-Python loop slows with the workloads (see README). The host's speed
# is therefore probed with REF_PASSES passes of that loop before and after
# every set-up sample, and before, during and after every job: at the first
# op that ends PROBE_EVERY_S or more after the last probe. A stretch of time
# is reported at reference speed: its measured time x REF_PASS_S / the mean
# reference pass of the probes around it. Probe time is left out.
REF_PASSES = 5
REF_PASS_S = 0.005
PROBE_EVERY_S = 0.5


def reference_pass() -> float:
    """The reference: a fixed pure-Python loop that does not touch tradelab."""
    total = 0.0
    slots = {}
    for i in range(20000):
        total += (i * 1.0001) ** 0.5
        slots[i & 255] = total
    return total


def reference_s() -> float:
    """Seconds per reference pass, over REF_PASSES passes."""
    start = clock()
    for _ in range(REF_PASSES):
        reference_pass()
    return (clock() - start) / REF_PASSES


def import_tradelab():
    """Import tradelab from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "tradelab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no tradelab package under {SRC}")
    sys.path.insert(0, str(SRC))
    import tradelab

    if Path(tradelab.__file__).resolve().parent != SRC / "tradelab":
        sys.exit(f"perfbench: imported tradelab from {tradelab.__file__}, not {SRC}")


def git_commit() -> str:
    """The checkout's commit, or "unknown" outside a git work tree."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


class SetupTimer:
    """Times the program's set-up in samples.

    One untimed set-up comes first, so imports and the file cache are warm,
    and a second one sets how many set-ups a sample holds. Each sample is
    the mean of as many back-to-back set-ups as last at least
    SETUP_SAMPLE_S, so that a set-up of a fraction of a millisecond is not
    lost in timer and scheduler noise. Samples are kept at reference speed.
    The last set-up's state is the one the next job uses."""

    def __init__(self, workload):
        self.workload = workload
        workload.setup()
        start = clock()
        workload.setup()
        self.reps = max(1, math.ceil(SETUP_SAMPLE_S / (clock() - start)))
        self.samples: list[float] = []  # seconds per set-up, one per sample
        self.spent = 0.0  # seconds spent in samples, collection included

    def sample(self) -> None:
        begin = clock()
        gc.collect()
        before = reference_s()
        start = clock()
        for _ in range(self.reps):
            self.workload.setup()
        end = clock()
        ref = (before + reference_s()) / 2
        self.spent += clock() - begin
        self.samples.append((end - start) / self.reps * REF_PASS_S / ref)


class OpLog:
    """The ops of one job, with the host's speed probed between them.

    A workload appends each op's latency. The job is cut into stretches at
    the probes, and each stretch and its ops are scaled to reference speed
    by the mean of the probes at its two ends."""

    def __init__(self):
        self.ops = array.array("d")  # op latencies at reference speed
        self.wall = 0.0  # job time at reference speed
        self.raw_wall = 0.0  # job time as measured, probes left out
        self.refs: list[float] = []  # reference pass seconds of each probe
        self.pending: list[float] = []  # latencies of the open stretch

    def start(self) -> None:
        self.refs.append(reference_s())
        self.since = clock()

    def append(self, latency: float) -> None:
        self.pending.append(latency)
        if clock() - self.since >= PROBE_EVERY_S:
            self.probe()

    def probe(self) -> None:
        """Close the open stretch with a probe."""
        end = clock()
        self.refs.append(reference_s())
        scale = 2 * REF_PASS_S / (self.refs[-2] + self.refs[-1])
        self.raw_wall += end - self.since
        self.wall += (end - self.since) * scale
        self.ops.extend(op * scale for op in self.pending)
        self.pending.clear()
        self.since = clock()


def one_job(workload, log: OpLog, around=contextlib.nullcontext):
    """Run one timed job inside ``around()``, logging its ops in ``log``.

    Returns (outputs or None, problems)."""
    gc.collect()
    try:
        with around():
            log.start()
            out = workload.job(log)
            problems = []
    except Exception as exc:  # a failing job is counted in failed, not fatal
        out, problems = None, [f"job raised {exc!r}"]
    if not log.refs:  # around() itself failed
        log.start()
    log.probe()
    return out, problems


def check_job(workload, out, ops) -> tuple[list[str], str | None]:
    """Check and digest a job's outputs, untimed. Returns (problems, digest)."""
    try:
        problems = workload.check(out)
        digest = workload.digest(out)
    except Exception as exc:  # an unreadable output is a failed check
        return [f"check raised {exc!r}"], None
    if not ops:
        problems.append("the job recorded no ops")
    return problems, digest


class Tally:
    """Jobs, op latencies and failures of one run. Job times and op
    latencies are kept at reference speed, and job times as measured in
    raw_walls."""

    def __init__(self):
        self.walls: list[float] = []
        self.raw_walls: list[float] = []
        self.refs: list[float] = []  # reference pass seconds of every probe
        self.latencies = array.array("d")
        self.attempted = 0
        self.failed = 0
        self.digest: str | None = None
        self.problems: list[str] = []

    def add(self, log: OpLog, problems: list[str], digest) -> None:
        if digest is not None:
            if self.digest is None:
                self.digest = digest
            elif digest != self.digest:
                problems = problems + ["output digest differs from the run's first job"]
        self.walls.append(log.wall)
        self.raw_walls.append(log.raw_wall)
        self.refs.extend(log.refs)
        self.latencies.extend(log.ops)
        count = max(len(log.ops), 1)
        self.attempted += count
        if problems:
            self.failed += count
            self.problems.extend(problems)


def measure(workload, seconds: float) -> tuple[list[float], Tally, float]:
    """Time set-ups and jobs, interleaved, for ``seconds`` (at least one job).

    A job starts only while it is expected to end less than half a job
    after ``seconds``, so a run ends close to its deadline. Before each
    job, set-up is timed until set-up samples have taken SETUP_SHARE of
    the time so far, and at least MIN_SETUP_SAMPLES times, so that
    set-ups and jobs sample the same stretch of the machine's time.
    Returns the set-up samples, the tally of jobs and the peak memory in MB,
    read right after the first job's timed window, before its outputs are
    checked."""
    begin = clock()
    setup = SetupTimer(workload)
    tally = Tally()
    rss = None
    while (not tally.walls
           or clock() - begin + statistics.fmean(tally.raw_walls) / 2 < seconds):
        while (len(setup.samples) < MIN_SETUP_SAMPLES
               or setup.spent < SETUP_SHARE * (clock() - begin)):
            setup.sample()
        log = OpLog()
        out, problems = one_job(workload, log)
        if rss is None:
            rss = peak_rss_mb()
        digest = None
        if not problems:
            problems, digest = check_job(workload, out, log.ops)
        del out
        tally.add(log, problems, digest)
    return setup.samples, tally, rss


def end_to_end(setups: list[float], tally: Tally, rss_mb: float) -> dict[str, float]:
    ordered = sorted(tally.latencies)
    values = {
        "wall_s": statistics.fmean(tally.walls),
        "setup_s": statistics.median(setups),
        "ops_per_s": len(ordered) / sum(tally.walls),
        "op_p50_us": percentile(ordered, 0.50) * 1e6,
        "op_p90_us": percentile(ordered, 0.90) * 1e6,
        "peak_rss_mb": rss_mb,
        "raw_wall_s": statistics.fmean(tally.raw_walls),
        "ref_pass_ms": statistics.median(tally.refs) * 1e3,
    }
    if len(ordered) >= 1000:  # ten samples beyond p99
        values["op_p99_us"] = percentile(ordered, 0.99) * 1e6
    return values


def traced_job(workload, meta: dict, untraced_wall: float, tally: Tally):
    """One traced set-up and job; returns the per-layer metrics, which
    cover the set-up and the job together."""
    tracer = Tracer()
    log = OpLog()
    with instrument(tracer):
        workload.setup()
    out, problems = one_job(workload, log, lambda: instrument(tracer))
    digest = None
    if not problems:
        problems, digest = check_job(workload, out, log.ops)
    tally.add(log, problems, digest)
    metrics = layer_metrics(tracer, log.wall / untraced_wall)
    path = WORK / f"trace-{meta['workload']}-{meta['seed']}.json"
    tracer.write(path, {"meta": meta, "traced_wall_s": log.wall,
                        "traced_raw_wall_s": log.raw_wall, "untraced_wall_s": untraced_wall})
    print(f"trace written to {path.relative_to(ROOT)}")
    return metrics


def main(argv=None, sizes: str = "full") -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("evolve", "tune", "replay", "xor"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_tradelab()
    from workloads import SIZES, WORKLOADS

    WORK.mkdir(exist_ok=True)
    size = SIZES[sizes]
    with tempfile.TemporaryDirectory(dir=WORK, prefix=f"{args.workload}-") as tmp:
        workload = WORKLOADS[args.workload](args.seed, size[args.workload], Path(tmp))
        meta = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "inputs": workload.input_sizes(),
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(), "git_commit": git_commit(),
        }
        print("meta " + json.dumps(meta, sort_keys=True))
        setups, tally, rss_mb = measure(workload, args.seconds)
        if not tally.latencies:
            sys.exit("perfbench: no op completed: " + "; ".join(tally.problems[:3]))
        values = end_to_end(setups, tally, rss_mb)
        gated = dict(END_TO_END)
        if args.trace:
            values = traced_job(workload, meta, values["wall_s"], tally)
            gated = dict(PER_LAYER)
    values["failed_ratio"] = tally.failed / tally.attempted
    units = {**gated, **dict(PRINTED_ONLY)}

    for problem in tally.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(f"jobs {len(tally.walls)}  ops {len(tally.latencies)}  "
          f"failed {tally.failed}/{tally.attempted} ops")
    print("job walls s " + " ".join(f"{wall:.4f}" for wall in tally.raw_walls))
    print(f"probes {len(tally.refs)}, reference pass ms: min {min(tally.refs) * 1e3:.4g}  "
          f"median {statistics.median(tally.refs) * 1e3:.4g}  max {max(tally.refs) * 1e3:.4g}")
    print(f"set-up samples {len(setups)}, s: min {min(setups):.6g}  "
          f"median {statistics.median(setups):.6g}  max {max(setups):.6g}")
    for name, value in values.items():
        print(f"{name:<36} {value:>16.6f} {units[name]}")
    print(f"digest {args.workload} {tally.digest}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in gated.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
