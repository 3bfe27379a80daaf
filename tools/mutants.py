"""Mutation check: each seeded mutant of the library must fail its tests.

    python3 tools/mutants.py

A mutant is a file under src/planecubic, an exact old -> new snippet, and the
test ids that must fail with it.  The named tests first run on the checkout
as it is, where each must pass.  Then, for each mutant, src/ is copied into
a temporary directory, the snippet is replaced there once, and the mutant's
test ids run with pytest on that copy (the checkout's own tests, with
PYTHONPATH pointing at the copy); every one of them must fail.  Exits 1 when
a mutant survives (some id passes), when its old snippet does not occur
exactly once, or when a test fails on the unmutated checkout.  Nothing is
written outside the temporary directory.  It is stdlib only, and not part
of the tier-1 tests: it runs pytest once per mutant.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to src/planecubic
    old: str
    new: str
    tests: tuple  # pytest ids, relative to the checkout root


_MEMO = "tests/test_cremona.py::TestForestMemo::"
_SUB = "tests/test_exact.py::TestIntegerKernels::test_substitute_"
_SIGN = "tests/test_exact.py::TestHeuristicGcd::test_negative_raw_gcd_takes_the_sign"
_START = "tests/test_sarkisov.py::TestStuckAndCap::test_non_homaloidal_start_is_refused"

MUTANTS = [
    Mutant(
        "memo-key-without-cubic",
        "cremona.py",
        "@functools.lru_cache(maxsize=_FOREST_MEMO_SIZE)\n",
        '''def _memo_by_map(build):
    memo = {}

    def lookup(f, cubic, weierstrass):
        if f not in memo:
            memo[f] = build(f, cubic, weierstrass)
        return memo[f]

    lookup.cache_clear = memo.clear
    return lookup


@_memo_by_map
''',
        (_MEMO + "test_memo_keys_on_the_cubic",),
    ),
    Mutant(
        "memo-serves-hints",
        "cremona.py",
        "        return _forest_from(f, proper, cubic)\n",
        "        return _searched_forest(f, cubic, weierstrass)\n",
        (_MEMO + "test_hints_are_not_memoized",),
    ),
    Mutant(
        "gcd-sign-flip-dropped",
        "exact.py",
        "    if g[max(g)] < 0:\n",
        "    if False:\n",
        (_SIGN + "[heuristic]", _SIGN + "[sympy]",
         "tests/test_exact.py::TestHeuristicGcd::test_cofactors_take_the_sign"),
    ),
    Mutant(
        "start-state-unchecked",
        "sarkisov.py",
        "    check_start_state(state)\n\n    initial = state\n",
        "\n    initial = state\n",
        (_START + "[d1-mult5]", _START + "[d2-one-point]", _START + "[d2-extra-child]"),
    ),
    Mutant(
        "packing-base-without-plus-one",
        "exact.py",
        "    base = max(degrees) + 1\n",
        "    base = max(degrees)\n",
        ("tests/test_cremona.py::TestCompose::test_standard_quadratic_involution",
         "tests/test_exact.py::TestHeuristicGcd::test_planted_factor_is_proved[3-0]",
         "tests/test_exact.py::TestHeuristicGcd::test_compose_content_gcd_is_proved"),
    ),
    Mutant(
        "gcd-monomial-dropped",
        "exact.py",
        "    g = {tuple(map(add, e, low)): c for e, c in homogenized(g, d).items()}\n",
        "    g = homogenized(g, d)\n",
        ("tests/test_cremona.py::TestCompose::test_standard_quadratic_involution",
         "tests/test_exact.py::TestSympyBridge::test_gcd_keeps_repeated_factors",
         "tests/test_exact.py::TestCoprimeCertificate::test_planted_factor_is_found[last]"),
    ),
    Mutant(
        "substitute-bound-one-power-short",
        "exact.py",
        " * norm**top\n",
        " * norm ** (top - 1)\n",
        tuple(f"{_SUB}coefficient_at_the_bound[{slot}-{sign}]"
              for slot in range(3) for sign in (1, -1)),
    ),
    Mutant(
        "balanced-digit-sign-fix-dropped",
        "exact.py",
        """    raw = (v + int.from_bytes(half.to_bytes(w, "little") * n, "little")).to_bytes(n * w, "little")
    out = {}
    for k in range(0, n * w, w):
        d = int.from_bytes(raw[k : k + w], "little") - half
""",
        """    raw = v.to_bytes(n * w, "little", signed=True)
    out = {}
    for k in range(0, n * w, w):
        d = int.from_bytes(raw[k : k + w], "little")
""",
        (_SUB + "rational_maps_and_rational_p", _SUB + "zero_map_in_the_riding_slot"),
    ),
    Mutant(
        "riding-exponent-misplaced",
        "exact.py",
        "                num[(i, *mid, rest - i)] = c\n",
        "                num[(*mid, i, rest - i)] = c\n",
        (_SUB + "rows_of_one_digit", _SUB + "rational_maps_and_rational_p",
         _SUB + "involution_squared_cancels"),
    ),
]


def run_tests(src: Path, ids) -> dict:
    """{test id: passed} for the given ids, run with pytest on the package
    under src; an id pytest did not report reads as not passed."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider", *ids],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    passed = set()
    for line in proc.stdout.splitlines():
        status, _, rest = line.partition(" ")
        if status == "PASSED":
            passed.add(rest.strip())
    return {i: i in passed for i in ids}


def main() -> int:
    ok = True
    ids = sorted({i for m in MUTANTS for i in m.tests})
    for i, passed in run_tests(ROOT / "src", ids).items():
        if not passed:
            print(f"BROKEN   {i} does not pass on the unmutated checkout")
            ok = False
    with tempfile.TemporaryDirectory() as tmp:
        for m in MUTANTS:
            copy = Path(tmp) / m.name
            shutil.copytree(ROOT / "src", copy, ignore=shutil.ignore_patterns("__pycache__"))
            target = copy / "planecubic" / m.path
            text = target.read_text()
            if text.count(m.old) != 1:
                print(f"STALE    {m.name}: its snippet occurs {text.count(m.old)} times in {m.path}")
                ok = False
                continue
            target.write_text(text.replace(m.old, m.new))
            survivors = [i for i, passed in run_tests(copy, m.tests).items() if passed]
            if survivors or not m.tests:
                print(f"SURVIVED {m.name}: {', '.join(survivors) or 'no tests named'}")
                ok = False
            else:
                print(f"killed   {m.name}: all {len(m.tests)} of its tests fail")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
