"""Same-process A/B timing of two checkouts on benchmark workloads.

    python3 tools/ab_inprocess.py A B --workload chain4 [--seed 1] [--items 100]
    python3 tools/ab_inprocess.py A B --workload all

A and B are checkout roots (each with src/planecubic).  Their packages are
copied into a temporary directory as `planecubic_a` and `planecubic_b`, so
both load into this one interpreter.  The workload's seeded items come from
perfbench/workloads.py next to this script; each item runs on both
packages, in the order A B for even items and B A for odd ones, so a change
in core speed or a warm cache favours neither side.  One warm-up item runs
untimed on both first.  `--workload all` runs every workload in turn.

Prints, per workload, the median per-item time ratio B / A, the items on
which B was faster, the summed times, the median ratio B / A of each call
by its position in the item (compose#1, compose#2, dec-check#1: the
command and its count among the item's calls of that command), and
whether every call gave the same exit code and printed the same stdout
bytes on both sides; when not, the first call that differs, by its item
and position.  Exits 1 when a call differs on any workload.  Nothing is
written outside the temporary directory; the perfbench modules are
imported, not changed.
"""

from __future__ import annotations

import argparse
import importlib
import shutil
import statistics
import sys
import tempfile
from collections import Counter
from itertools import zip_longest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(checkout: Path, name: str, into: Path):
    """The checkout's planecubic package, imported as `name`; returns its cli."""
    src = checkout / "src" / "planecubic"
    if not (src / "__init__.py").is_file():
        raise SystemExit(f"error: no package at {src}")
    shutil.copytree(src, into / name, ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(f"{name}.cli")


def run_item(workload, item, cli) -> tuple:
    """(seconds in main, [(position, exit code, stdout)], {position:
    seconds}) of one item's chain of calls; a call's position is its
    command and its count among the item's calls of that command, as
    compose#2."""
    cli.calls = []
    try:
        workload.run(item, cli)
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError):
        pass  # a broken chain stops early; the call comparison shows it
    seen, by_position, results = Counter(), {}, []
    for c in cli.calls:
        seen[c.cmd] += 1
        position = f"{c.cmd}#{seen[c.cmd]}"
        by_position[position] = c.seconds
        results.append((position, c.rc, c.out))
    return sum(by_position.values()), results, by_position


def first_difference(calls_a, calls_b) -> str:
    """The position of the first call whose exit code or stdout differs
    between the sides, or that only one side made."""
    for a, b in zip_longest(calls_a, calls_b):
        if a != b:
            return (a or b)[0]


def compare(workloads, name: str, sides, seed: int, count: int) -> bool:
    """Print one workload's block; whether every call's exit code and
    stdout bytes were equal."""
    workload = workloads.WORKLOADS[name]
    items = workload.items(seed)
    warm = next(items)
    for cli in sides:
        run_item(workload, warm, cli)
    ratios, totals, first_diff = [], [0.0, 0.0], None
    per_call = {}  # position -> B/A ratios, on items where both sides reached it
    for i in range(count):
        item = next(items)
        got = [None, None]
        for k in ((0, 1) if i % 2 == 0 else (1, 0)):
            got[k] = run_item(workload, item, sides[k])
        (ta, results_a, calls_a), (tb, results_b, calls_b) = got
        ratios.append(tb / ta)
        for position in calls_a.keys() & calls_b.keys():
            per_call.setdefault(position, []).append(calls_b[position] / calls_a[position])
        totals[0] += ta
        totals[1] += tb
        if first_diff is None and results_a != results_b:
            first_diff = f"item {i} {first_difference(results_a, results_b)}"
    print(f"workload {name} seed {seed} items {count}")
    print(f"A total {totals[0]:.3f} s  B total {totals[1]:.3f} s")
    print(f"median B/A {statistics.median(ratios):.4f}  "
          f"B faster on {sum(r < 1 for r in ratios)} of {len(ratios)}")
    print("per call median B/A " + "  ".join(
        f"{position} {statistics.median(r):.4f}" for position, r in sorted(per_call.items())))
    print(f"exit codes and stdout bytes equal: {first_diff is None}")
    if first_diff is not None:
        print(f"first differing call: {first_diff}")
    return first_diff is None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("a", type=Path, help="checkout root of side A (the baseline)")
    parser.add_argument("b", type=Path, help="checkout root of side B (the change)")
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--items", type=int, default=100)
    args = parser.parse_args(argv)

    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if not set(names) <= set(workloads.WORKLOADS):
        raise SystemExit(f"error: workload must be all or one of {sorted(workloads.WORKLOADS)}")
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        sides = [workloads.CLI(load(root.resolve(), name, Path(tmp)))
                 for root, name in ((args.a, "planecubic_a"), (args.b, "planecubic_b"))]
        same = [compare(workloads, name, sides, args.seed, args.items) for name in names]
    return 0 if all(same) else 1


if __name__ == "__main__":
    sys.exit(main())
