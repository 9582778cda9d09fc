"""qdigamma benchmark: one workload, one run.

    python3 bench/run.py --workload suites|near-one|pq-large --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
The run repeats one round of operations (see workloads.py; its inputs
come from the seed) until ``--seconds`` have passed (by default the
``run_seconds`` of BENCHMARK.json), checks every output, and prints the
metrics, the last line being one JSON object with the keys correct,
attempted, failed and metrics.  An operation that fails other than through a
known program fault makes the run incorrect, as does a check that fails.

The machine this was tuned on alternates between two speeds about 1.8x
apart, for spells from under a second to minutes.  So every operation is
timed right after a fixed reference loop of the benchmark's own code, and its
time is scaled to reference seconds: the time it would take where the loop
takes REF_S, the loop's time at that machine's fast speed.  An operation's
time in a run is the median of its scaled times over the repeats.
--trace 0 prints the end-to-end metrics:
  setup_s      median of 20 fresh interpreters, started between repeats
               evenly over the run, timing start, ``import qdigamma`` and the
               workload's warm-up, which import none of the benchmark's
               checks; scaled like the operations (unscaled, the best of 20
               spread 0.38 over ten runs);
  points_per_s the round's points over the sum of its operations' times;
  job_s.p50    median over the round's operations of their times;
  peak_rss_mb  peak resident memory of this process.
--trace 1 alternates untraced and traced copies of the round and prints the
per-layer metrics of the traced copies (see tracing.py); the spans go to
``.bench_out/spans-<workload>.npy``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 20
REF_S = 0.75e-3  # the reference loop's time at the fast speed of the tuning machine
_REF_ARG = np.arange(1.0, 40.0)

sys.path.insert(0, str(Path(__file__).resolve().parent))

from program import WORKLOADS, CliOutcome, Program, warm_up  # noqa: E402


def load_program():
    """Import qdigamma from this checkout's src/, or exit 2 if it is not there."""
    if not (SRC / "qdigamma" / "__init__.py").is_file():
        sys.stderr.write(f"error: no qdigamma package under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import qdigamma
    import qdigamma.cli  # noqa: F401  (submodules the workloads call)

    if Path(qdigamma.__file__).resolve().parent != (SRC / "qdigamma").resolve():
        sys.stderr.write(f"error: imported qdigamma from {qdigamma.__file__}, not {SRC}\n")
        sys.exit(2)
    return qdigamma


def setup_probe(workload: str) -> float:
    """Time of a fresh interpreter to import qdigamma and warm up, in reference seconds."""
    ref = reference_loop()
    start = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--setup-probe"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        child.stdout.read()
    finally:
        child.stdout.close()
        code = child.wait()
    if line.strip() != "ready" or code != 0:
        sys.stderr.write(f"error: set-up probe exited {code} without getting ready\n")
        sys.exit(2)
    return elapsed * REF_S / ref


def reference_loop() -> float:
    """Time a fixed loop like the program's short series: Python-level steps on
    40-element numpy arrays and a small dict rendered to text."""
    start = time.perf_counter()
    total = 0.0
    for i in range(100):
        terms = 0.5 ** (1.3 * _REF_ARG)
        total += float(np.sum(terms / (1.0 - 0.5 ** _REF_ARG)))
        str({"i": i, "total": total})
    return time.perf_counter() - start


class Runner:
    """Repeats the round and keeps per-operation times, counts and check results."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.times: list = []  # per operation of the round: its scaled time in every repeat
        self.points: list = []
        self.render_bytes = 0

    def _check(self, label: str, fn, *args) -> None:
        try:
            fn(*args)
        except Exception:  # a check that breaks reports the output as wrong
            self.correct = False
            sys.stderr.write(f"check failed: {label}\n{traceback.format_exc()}")

    def run_round(self, rnd) -> float:
        """Run one repeat of the round; return its total job time, unscaled."""
        if not self.times:
            self.times = [[] for _ in rnd.ops]
        total = 0.0
        points = []
        for op, samples in zip(rnd.ops, self.times):
            ref = reference_loop()
            start = time.perf_counter()
            op.outcome = op.call()
            elapsed = time.perf_counter() - start
            total += elapsed
            samples.append(elapsed * REF_S / ref)
            self.attempted += 1
            if isinstance(op.outcome, CliOutcome):
                self.render_bytes += len(op.outcome.out.encode())
            if op.failed:
                self.failed += 1
                points.append(0)
                if op.fault is None or not op.fault(op.outcome):
                    self.correct = False
                    sys.stderr.write(f"unexpected failure: {op.label}: {_describe(op.outcome)}\n")
            else:
                points.append(op.points)
                if op.check is not None:
                    self._check(op.label, op.check, op.outcome)
        for label, fn, needs in rnd.group_checks:
            if not any(op.failed for op in needs):
                self._check(label, fn)
        self.points = points
        return total

    def op_times(self) -> list:
        return [statistics.median(samples) for samples in self.times]


def _describe(outcome) -> str:
    if isinstance(outcome, Exception):
        return f"{type(outcome).__name__}: {outcome}"
    return f"exit {outcome.code}: {outcome.err.strip()[:300]}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length; default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")

    qd = load_program()
    prog = Program(qd)
    warm_up(prog, args.workload)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    # imported only now, so the set-up probe above times none of the checks or mpmath
    import workloads as wl
    from tracing import Tracer

    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    runner = Runner()
    tracer = Tracer(qd) if args.trace else None
    setup = []
    overheads = []
    start = time.perf_counter()
    repeats = 0
    while True:
        plain = runner.run_round(wl.make_round(prog, args.workload, args.seed))
        if tracer is not None:
            tracer.install()
            try:
                traced = runner.run_round(wl.make_round(prog, args.workload, args.seed))
            finally:
                tracer.uninstall()
            tracer.record = False  # spans of the first traced repeat are kept
            overheads.append(traced - plain)
        else:
            while (len(setup) < SETUP_SAMPLES
                   and time.perf_counter() - start >= len(setup) * args.seconds / SETUP_SAMPLES):
                setup.append(setup_probe(args.workload))
        repeats += 1
        if time.perf_counter() - start >= args.seconds:
            break

    if tracer is None:
        while len(setup) < SETUP_SAMPLES:
            setup.append(setup_probe(args.workload))
        times = runner.op_times()
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "points_per_s": {"value": sum(runner.points) / sum(times), "unit": "1/s"},
            "job_s.p50": {"value": statistics.median(times), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
    else:
        # render bytes were counted over both copies of each repeat
        metrics = tracer.metrics(repeats, runner.render_bytes // 2, statistics.mean(overheads))
        tracer.save(OUT / f"spans-{args.workload}", metrics)

    print(f"workload {args.workload}  seed {args.seed}  repeats {repeats}  "
          f"attempted {runner.attempted}  failed {runner.failed}  correct {runner.correct}")
    for name, m in metrics.items():
        print(f"  {name:24s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": runner.correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
