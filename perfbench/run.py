"""bcclab benchmark: closed-loop workloads with an exact-answer gate.

Usage, from the repository root:

    python3 perfbench/run.py --workload rank --seed 1 --seconds 28 --trace 0

One process, one thread: the jobs of a workload run back to back, and the
job list repeats for as long as ``--seconds`` allows (at least once).
With ``--trace 0`` the last stdout line carries the end-to-end metrics
(``wall_ref_s``, ``setup_s``, ``peak_rss_mb``); with ``--trace 1`` it
carries the per-layer metrics of a traced run, plus the tracing overhead
measured against untraced repetitions in the same process. The traced run
also writes its spans and per-name aggregates to ``perfbench/traces/``.

A shared host's speed drifts by 10-40% over seconds to minutes. So a
fixed calibration computation runs every ``SEGMENT_S`` seconds, from a
timer signal, also in the middle of a job. The job time between two
calibrations is rescaled to the reference speed by their mean:
``wall_ref_s`` is the job list's time on a machine whose calibration takes
``CALIB_REF_S``. Set-up probes are rescaled by the calibrations run just
before and after each. The raw times are printed too.
"""

import argparse
import gc
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import NamedTuple

# BLAS pools pinned to one thread before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 7
SEGMENT_S = 0.5  # wall time between two calibrations
CALIB_REF_S = 0.011  # one `reference_work` on the reference machine


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


if not (SRC / "bcclab" / "__init__.py").is_file():
    fail(f"no bcclab sources under {SRC}; run from a full checkout")
sys.path.insert(0, str(SRC))

import numpy  # noqa: E402

import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

PINNED = HERE / "pinned.json"
TRACES = HERE / "traces"


def git_commit():
    """HEAD's commit from the checkout's .git files, or None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def fingerprint():
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "blas_threads": {
            v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def load_pinned():
    with open(PINNED) as f:
        return json.load(f)


def reference_work():
    """A fixed mix of the kinds of work the library does, in three equal parts.

    Small-dict and integer work, small-array arithmetic, a working set of
    about a megabyte of tuples looked up and sorted, and tuple building
    and hashing. A shared host slows these by different amounts, so the
    mix follows the library's slow-down better than any one of them.
    """
    table = {}
    acc = 0
    for i in range(8000):
        key = (i * 7919) % 997
        table[key] = table.get(key, 0) + i
        acc ^= key << 3
    row = numpy.arange(512)
    for _ in range(250):
        row = (row * 5 + 3) % 1021
    objs = [(i, (i * 7919) % 65521, str(i)) for i in range(8000)]
    index = {o[1]: o for o in objs}
    for i in range(0, 65521, 9):
        o = index.get(i)
        if o is not None:
            acc += o[0]
    objs.sort(key=lambda o: o[1])
    tuples = [tuple(((i * r) ^ 0x5BD1) & 0xFF for i in range(300)) for r in range(110)]
    seen = set()
    for tup in tuples:
        acc += hash(tup) & 0xFFFF
        for x in tup[::5]:
            seen.add((x, len(seen) & 63))
    return acc, len(seen), int(row.sum())


def calibrate():
    """Median time of three runs of `reference_work`: the machine's speed now."""
    samples = []
    for _ in range(3):
        start = time.perf_counter()
        reference_work()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


class Calibrator:
    """While armed, runs `calibrate` every ``SEGMENT_S`` seconds of wall time.

    A timer signal triggers it, so it also runs inside a job of several
    seconds. Each calibration is kept as a mark (start, end, seconds).
    """

    def __init__(self):
        self.marks = []
        self.paused = 0.0  # total time spent calibrating
        self._armed = False
        self._previous = None

    def mark(self, *_signal):
        start = time.perf_counter()
        seconds = calibrate()
        end = time.perf_counter()
        self.marks.append((start, end, seconds))
        self.paused += end - start
        if self._armed:
            signal.setitimer(signal.ITIMER_REAL, SEGMENT_S)

    def clock(self):
        """perf_counter less the time spent calibrating so far."""
        while True:  # retry if a calibration ran between the two reads
            paused = self.paused
            now = time.perf_counter()
            if paused == self.paused:
                return now - paused

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.mark)
        self._armed = True
        self.mark()
        return self

    def __exit__(self, *exc):
        self._armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.mark()


def rescale(intervals, marks):
    """(raw, rescaled) seconds of the (start, end) `intervals`.

    Calibration time inside an interval is left out. The time between two
    consecutive marks is rescaled by ``CALIB_REF_S`` over the mean of the
    two calibrations.
    """
    raw = ref = 0.0
    for (_s0, end0, c0), (start1, _e1, c1) in zip(marks, marks[1:]):
        scale = CALIB_REF_S / ((c0 + c1) / 2)
        for start, end in intervals:
            piece = min(end, start1) - max(start, end0)
            if piece > 0:
                raw += piece
                ref += piece * scale
    return raw, ref


class Rep(NamedTuple):
    wall_s: float  # time in the jobs' library calls
    ref_s: float  # the same, rescaled to the reference speed
    calibrations: int
    failed: list  # ids of the jobs that raised or failed the gate


def run_rep(jobs, pinned, tracer=None, calibrator=None):
    """Run one repetition of the job list.

    Only ``run`` is timed; the exact-answer gate runs between jobs. A
    tracer should read `calibrator.clock`, so that calibrations that
    interrupt a job do not count as its time.
    """
    ctx = wl.RepContext(machine=tracer.wrap_machine) if tracer else wl.RepContext()
    calibrator = calibrator or Calibrator()
    intervals = []
    failed = []
    with calibrator:
        for job in jobs:
            start = time.perf_counter()
            raised = False
            try:
                if tracer:
                    with tracer.job(job.id):
                        result = job.run(ctx)
                else:
                    result = job.run(ctx)
            except Exception:  # a job that raises counts as failed; keep running
                raised = True
                traceback.print_exc()
                failed.append(job.id)
            intervals.append((start, time.perf_counter()))
            if not raised:
                try:
                    canonical = job.check(result)
                    wl.gate(pinned.get(job.id) == wl.digest(canonical), f"{job.id}: digest mismatch")
                except wl.GateError as e:
                    print(f"perfbench: gate failed: {e}", file=sys.stderr)
                    failed.append(job.id)
    wall, ref = rescale(intervals, calibrator.marks)
    return Rep(wall, ref, len(calibrator.marks), failed)


def measure(jobs, pinned, seconds, trace):
    """Repeat the job list within `seconds`; with `trace`, alternate plain and traced reps.

    Wrappers are installed only for the duration of a traced rep, so plain
    reps run the library untouched. Returns (reps, attempted, failed),
    reps being (Rep, tracer or None) per repetition.
    """
    reps = []
    attempted = failed = longest = 0
    start = time.perf_counter()
    while True:
        calibrator = Calibrator()
        tracer = tr.Tracer(calibrator.clock) if trace and len(reps) % 2 == 1 else None
        gc.collect()
        rep_start = time.perf_counter()
        if tracer:
            tracer.install()
        try:
            rep = run_rep(jobs, pinned, tracer, calibrator)
        finally:
            if tracer:
                tracer.restore()
        attempted += len(jobs)
        failed += len(rep.failed)
        reps.append((rep, tracer))
        now = time.perf_counter()
        longest = max(longest, now - rep_start)
        if not (trace and len(reps) < 2) and now - start + longest > seconds:
            return reps, attempted, failed


def setup_probe(workload, seed):
    """Child side of the set-up measurement: inputs made, ready for job 1."""
    wl.build_jobs(workload, seed)
    load_pinned()
    print(repr(time.monotonic()))


def measure_setup(workload, seed):
    """Median over fresh interpreters of start -> inputs generated.

    Each probe is rescaled to the reference speed by the calibrations run
    just before and just after it. Returns (median rescaled, raw samples).
    """
    samples, rescaled = [], []
    before = calibrate()
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]) - start)
        after = calibrate()
        rescaled.append(samples[-1] * CALIB_REF_S / ((before + after) / 2))
        before = after
    return statistics.median(rescaled), samples


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    if not args.trace:
        setup_s, setup_samples = measure_setup(args.workload, args.seed)
    jobs = wl.build_jobs(args.workload, args.seed)
    pinned = load_pinned()
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "jobs": len(jobs), "fingerprint": fingerprint(),
    }), flush=True)

    reps, attempted, failed = measure(jobs, pinned, args.seconds, bool(args.trace))
    for i, (rep, tracer) in enumerate(reps):
        print(json.dumps({
            "rep": i, "traced": tracer is not None, "wall_s": rep.wall_s, "wall_ref_s": rep.ref_s,
            "calibrations": rep.calibrations,
        }))
    plain = [rep.ref_s for rep, tracer in reps if tracer is None]

    if args.trace:
        traced = [(rep, tracer) for rep, tracer in reps if tracer is not None]
        values = tr.median_values([tr.layer_values(tracer) for _rep, tracer in traced])
        values[tr.OVERHEAD_METRIC[0]] = (
            statistics.median(rep.ref_s for rep, _ in traced) / statistics.median(plain) - 1.0
        )
        units = {m: u for m, u, _value in tr.LAYER_METRICS}
        units.update([tr.OVERHEAD_METRIC])
        absent = sorted(m for m, v in values.items() if v is None)
        if absent:
            print(json.dumps({"absent_metrics": absent}))
        metrics = {m: metric(v, units[m]) for m, v in values.items() if v is not None}
        TRACES.mkdir(exist_ok=True)
        with open(TRACES / f"{args.workload}-seed{args.seed}.json", "w") as f:
            json.dump({
                "workload": args.workload, "seed": args.seed,
                "fingerprint": fingerprint(), "per_layer": values,
                "traced_reps": [
                    {"wall_s": rep.wall_s, "wall_ref_s": rep.ref_s, **tracer.snapshot(),
                     "spans": tracer.spans}
                    for rep, tracer in traced
                ],
            }, f, indent=1)
    else:
        metrics = {
            "wall_ref_s": metric(statistics.median(plain), "s"),
            "setup_s": metric(setup_s, "s"),
            "peak_rss_mb": metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
            ),
        }
        print(json.dumps({"setup_samples_s": setup_samples}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
