"""Run one workload of the planecubic benchmark and print its metrics.

    python3 perfbench/run.py --workload chain4 --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout; the program is imported from ./src.
One client, one process, no threads: after one untimed warm-up item, items
run back to back (a closed loop) until their summed time reaches --seconds
reference seconds, and at least the workload's minimum number of items has
run.  Outputs are checked after
the loop.  The last line of stdout is one JSON object with the keys
"correct", "attempted", "failed" and "metrics": the end-to-end metrics with
--trace 0, the per-layer metrics of a traced run with --trace 1.

An item's time is the sum of its CLI calls' times, in reference seconds
(see Speed): on a 2-core VM the speed of each core was seen to switch
between two levels about 1.6x apart every 10-60 s, which moves raw wall
times of whole runs by more than any useful bound.  Raw wall times are
printed too, on the lines before the result.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import arith  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_RUNS = 5
IMPORT_RUNS = 5
SUBPROCESS_TIMEOUT_S = 60
SETUP_SNIPPET = "import sys; from planecubic.cli import main; sys.exit(main(['noether']))"
SETUP_PAYLOAD = '{"d": 2, "mults": [1, 1, 1]}'
SETUP_EXPECT = {"de_jonquieres": True, "ok": True, "square_sum": 3,
                "square_sum_expected": 3, "sum": 3, "sum_expected": 3}
IMPORT_SNIPPET = ("import time; t0 = time.perf_counter(); import sympy; t1 = time.perf_counter(); "
                  "import planecubic.cli; t2 = time.perf_counter(); print(t1 - t0, t2 - t1)")
TAIL_BEYOND = 10  # item_tail_s: the highest percentile with this many items above it
WALL_CAP = 1.25  # no item starts after WALL_CAP * --seconds of wall time (past min_items)
SPAN_DIR = HERE / "out"

REF_SECOND = 0.030  # one reference second: the reference work takes this long
REF_SHARE = 0.05  # share of the timed loop spent on reference work between calls
REF_NEAR = 3  # reference samples on each side of a timed call
_REF_FORM = {(a, b, 10 - a - b): Fraction(7 * a + 3, b + 2) for a in range(11) for b in range(11 - a)}


def reference_work():
    """Fixed work shaped like the program's own: the product of two dense
    ternary forms of degree 10 with Fraction coefficients."""
    return arith.pmul(_REF_FORM, _REF_FORM)


class Speed:
    """Samples of the reference work taken between timed calls, on the same
    core (the run pins itself to one core).

    A call's time in reference seconds is its wall time times REF_SECOND
    over the median of the REF_NEAR samples before it and the REF_NEAR
    after it: the time it would take on a core where the reference work
    takes REF_SECOND.  In a probe on a 2-core VM, raw times of a fixed
    base_forest call varied 1.75x, while their ratio to this reference
    stayed within a few percent.
    """

    def __init__(self, share=0.0):
        self.share = share
        self.start = time.perf_counter()
        self.spent = 0.0
        self.starts, self.samples = [], []

    def gap(self, minimum=0):
        """Run the reference work at least `minimum` times, and until it has
        taken `share` of the time since the start."""
        n = 0
        while n < minimum or self.spent < self.share * (time.perf_counter() - self.start):
            start = time.perf_counter()
            reference_work()
            self.starts.append(start)
            self.samples.append(time.perf_counter() - start)
            self.spent += self.samples[-1]
            n += 1

    def scale(self, start, end):
        """Reference seconds per wall second for work done from start to end."""
        i, j = bisect.bisect_left(self.starts, start), bisect.bisect_left(self.starts, end)
        near = self.samples[max(0, i - REF_NEAR):i] + self.samples[j:j + REF_NEAR]
        return REF_SECOND / statistics.median(near)

    def ref_seconds(self, calls):
        return sum(c.seconds * self.scale(c.start, c.start + c.seconds) for c in calls)


def fresh_python(snippet, runs, stdin_text=""):
    """Run a fresh interpreter on ./src `runs` times; yield (wall seconds,
    reference seconds, completed process) for each."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    speed = Speed()
    speed.gap(REF_NEAR)
    for _ in range(runs):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", snippet], input=stdin_text, text=True,
                              capture_output=True, cwd=ROOT, env=env, timeout=SUBPROCESS_TIMEOUT_S)
        secs = time.perf_counter() - start
        speed.gap(REF_NEAR)
        yield secs, secs * speed.scale(start, start + secs), proc


def measure_setup():
    """Medians (reference seconds, wall seconds) of a fresh `import
    planecubic.cli` plus one noether call, and how many answered wrongly."""
    ref, wall, wrong = [], [], 0
    for secs, ref_secs, proc in fresh_python(SETUP_SNIPPET, SETUP_RUNS, SETUP_PAYLOAD):
        ref.append(ref_secs)
        wall.append(secs)
        try:
            ok = proc.returncode == 0 and json.loads(proc.stdout) == SETUP_EXPECT
        except ValueError:
            ok = False
        wrong += not ok
    return statistics.median(ref), statistics.median(wall), wrong


def measure_imports():
    """Medians in reference seconds of `import sympy`, then `import
    planecubic.cli`, in fresh interpreters."""
    sympy_s, package_s = [], []
    for secs, ref_secs, proc in fresh_python(IMPORT_SNIPPET, IMPORT_RUNS):
        if proc.returncode != 0:
            raise RuntimeError(f"import probe failed: {proc.stderr.strip()[-300:]}")
        a, b = proc.stdout.split()
        sympy_s.append(float(a) * ref_secs / secs)
        package_s.append(float(b) * ref_secs / secs)
    return statistics.median(sympy_s), statistics.median(package_s)


@dataclass
class Record:
    item: object
    calls: list


def run_item(workload, item, cli):
    """Run one item's chain of calls.  A chain stops at the first output the
    next call cannot be built from; the calls it skips count as failed."""
    cli.calls = []
    try:
        workload.run(item, cli)
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError):
        pass
    return Record(item, cli.calls)


def run_loop(workload, seed, seconds, cli_module, tracer=None):
    """The warm-up record, the timed records, the timed wall seconds (with
    the reference gaps) and the Speed sampled between the timed calls.

    Items run until their summed time reaches `seconds` reference seconds,
    so that the number of items, and with it the tail percentile and the
    memory peak, does not follow the speed of the core."""
    items = workload.items(seed)
    warm = run_item(workload, next(items), workloads.CLI(cli_module))
    speed = Speed(share=REF_SHARE)
    speed.gap(REF_NEAR)
    cli = workloads.CLI(cli_module, before=speed.gap)
    timed = []
    done = 0.0  # reference seconds so far, from the samples before each call
    while len(timed) < workload.min_items or (
            done < seconds and time.perf_counter() - speed.start < WALL_CAP * seconds):
        item = next(items)
        if tracer is not None:
            tracer.begin_item(len(timed))
        timed.append(run_item(workload, item, cli))
        done += speed.ref_seconds(timed[-1].calls)
    wall = time.perf_counter() - speed.start
    speed.gap(REF_NEAR)
    return warm, timed, wall, speed


def tail(times):
    """(value, percentile): the highest percentile of `times` with at least
    TAIL_BEYOND items above it.  Up to 2 * TAIL_BEYOND items that percentile
    would not lie above the median, so the maximum stands in for it."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 2 * TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def digest(records):
    h = hashlib.sha256()
    for rec in records:
        for call in rec.calls:
            h.update(call.out.encode())
    return h.hexdigest()


def _versions():
    import sympy

    return (f"nproc={os.cpu_count()} python={platform.python_version()} "
            f"sympy={sympy.__version__}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "planecubic" / "__init__.py").is_file():
        print(f"error: no program at {SRC / 'planecubic'}; run from a checkout", file=sys.stderr)
        return 2
    # The reference samples must run on the core the program runs on.
    cores = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cores)})
    try:
        return _run(args)
    finally:
        os.sched_setaffinity(0, cores)


def _run(args) -> int:
    sys.path.insert(0, str(SRC))
    import planecubic
    import planecubic.cli

    if Path(planecubic.__file__).resolve().parent != (SRC / "planecubic").resolve():
        print(f"error: imported planecubic from {planecubic.__file__}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    print(f"workload {workload.name} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print(f"env {_versions()}")
    print(f"why {workload.why}")
    print(f"dims {json.dumps(workload.dims, sort_keys=True)}")

    setup_wrong = 0
    if args.trace:
        sympy_s, package_s = measure_imports()
        with tracing.Tracer().install(planecubic) as tracer:
            warm, timed, wall, speed = run_loop(workload, args.seed, args.seconds, planecubic.cli, tracer)
        missing = tracing.EXPECTED[workload.name] - tracer.fired()
        if missing:
            print(f"error: expected spans never fired: {sorted(missing)}", file=sys.stderr)
            return 3
    else:
        setup_s, setup_wall_s, setup_wrong = measure_setup()
        warm, timed, wall, speed = run_loop(workload, args.seed, args.seconds, planecubic.cli)

    wrong = setup_wrong
    failed = 0
    reasons = {}
    for index, rec in enumerate([warm] + timed):
        for label, (v, detail) in zip(workload.calls, workload.check(rec.item, rec.calls)):
            wrong += v == workloads.WRONG
            if v != workloads.OK and index > 0:
                failed += 1
                reasons.setdefault((label, v), [0, detail])[0] += 1
    attempted = len(timed) * len(workload.calls)
    wall_times = [sum(c.seconds for c in rec.calls) for rec in timed]
    times = [speed.ref_seconds(rec.calls) for rec in timed]
    tail_s, tail_pct = tail(times)

    print(f"items {len(timed)} timed (+1 warm-up) in {wall:.3f} s; calls attempted {attempted}, "
          f"failed {failed}, wrong {wrong}; failed_frac {failed / attempted:.6f}")
    for (label, v), (count, detail) in sorted(reasons.items()):
        print(f"  {v} {label} x{count}: {detail}")
    print(f"digest {digest([warm] + timed[: workload.min_items])} "
          f"(stdout of the warm-up and the first {workload.min_items} items)")
    print(f"reference median sample {statistics.median(speed.samples):.6f} s (one reference second: "
          f"{REF_SECOND} s); {speed.spent:.3f} s of reference work in the loop")
    print(f"wall items_per_s {len(timed) / wall!r} 1/s (loop wall time, gaps included)")
    print(f"wall item_p50_s {statistics.median(wall_times)!r} s")

    if args.trace:
        layer = tracer.metrics([t / w for t, w in zip(times, wall_times)])
        layer["import.sympy_s"] = (sympy_s, "s")
        layer["import.planecubic_s"] = (package_s, "s")
        layer["trace.items_per_s"] = (len(timed) / sum(times), "1/s")
        SPAN_DIR.mkdir(exist_ok=True)
        span_file = SPAN_DIR / f"spans-{workload.name}-{args.seed}.jsonl"
        tracer.dump(span_file)
        print(f"spans {len(tracer.spans)} written to {span_file.relative_to(ROOT)}")
        metrics = layer
    else:
        metrics = {
            "items_per_s": (len(timed) / sum(times), "1/s"),
            "item_p50_s": (statistics.median(times), "s"),
            "item_tail_s": (tail_s, "s"),
            "ok_frac": ((attempted - failed) / attempted, "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": (setup_s, "s"),
        }
        print(f"wall setup_s {setup_wall_s!r} s")
        print(f"item_tail_s is p{tail_pct:.1f} of {len(timed)} items")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"metric {name} {value!r} {unit}")
    result = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
