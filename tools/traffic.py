"""Statements of the library that no seeded benchmark item executes.

    python3 tools/traffic.py [--items 25] [--seeds 1 2 3]

Each workload of perfbench/workloads.py next to this script draws its
seeded items for every seed, and the first --items of them run in process
through planecubic.cli, all under the stdlib tracer (trace.Trace(count=1)).
The package is imported under the tracer too, so statements that run at
import count as executed.  Per module of src/planecubic it prints the
executable statements that no item executed, grouped into line ranges: a
route that shows there is traffic nobody sends.  Only the package's own
frames are traced.  The perfbench modules are imported, not changed, and nothing is written.
"""

from __future__ import annotations

import argparse
import dis
import importlib
import sys
import trace
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PKG = ROOT / "src" / "planecubic"


def statements(path: Path) -> set:
    """The line numbers at which a statement of the module starts."""
    lines, stack = set(), [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def ranges(missed: set, lines: set) -> str:
    """The missed statements as ranges, "12-15, 40": a range runs over
    statements that follow one another with no executed statement between."""
    runs, current = [], []
    for line in sorted(lines):
        if line in missed:
            current.append(line)
        elif current:
            runs.append(current)
            current = []
    runs += [current] if current else []
    return ", ".join(str(r[0]) if len(r) == 1 else f"{r[0]}-{r[-1]}" for r in runs)


class PackageTrace(trace.Trace):
    """trace.Trace counting lines in the package's frames alone.  Its own
    ignore list caches each verdict by module base name, so an ignored
    re/__init__.py would hide the package's __init__.py."""

    def globaltrace_lt(self, frame, why, arg):
        if why == "call" and frame.f_code.co_filename.startswith(f"{PKG}/"):
            return self.localtrace
        return None


def run_items(workloads, seeds, count):
    """Import every module of the package, then run `count` seeded items of
    each workload per seed."""
    package = importlib.import_module("planecubic")
    if Path(package.__file__).resolve().parent != PKG:
        raise SystemExit(f"error: planecubic was imported from {package.__file__}, not {PKG}")
    for path in sorted(PKG.glob("*.py")):
        if path.stem != "__init__":
            importlib.import_module(f"planecubic.{path.stem}")
    cli = workloads.CLI(sys.modules["planecubic.cli"])
    for workload in workloads.WORKLOADS.values():
        for seed in seeds:
            items = workload.items(seed)
            for _ in range(count):
                try:
                    workload.run(next(items), cli)
                except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError):
                    pass  # a broken chain stops early, as in the benchmark


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--items", type=int, default=25, help="items per workload and seed")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = parser.parse_args(argv)

    sys.dont_write_bytecode = True
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads

    tracer = PackageTrace(count=1, trace=0)
    tracer.runfunc(run_items, workloads, args.seeds, args.items)
    counts = tracer.results().counts
    print(f"{args.items} items per workload and seed, seeds {' '.join(map(str, args.seeds))}")
    for path in sorted(PKG.glob("*.py")):
        lines = statements(path)
        missed = {line for line in lines if not counts.get((str(path), line))}
        print(f"{path.name}: {len(missed)} of {len(lines)} statements not executed"
              + (f": {ranges(missed, lines)}" if missed else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
