"""The README's examples run as written: each inline-JSON CLI example gives the
output or exit code its `# ->` comment states, and the library quick start
prints the values its comments state."""

import contextlib
import io
import json
import re
from pathlib import Path

from planecubic.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()

# echo '<payload>' [\ newline] | planecubic <command> ..., then an optional "# -> <expected>"
CLI_EXAMPLE = re.compile(
    r"echo '(?P<payload>[^']*)'\s*\\?\s*\|\s*planecubic (?P<command>[\w-]+)[^\n]*\n"
    r"(?:# -> (?P<expect>[^\n]*))?"
)


def cli_examples():
    return [m.groupdict() for m in CLI_EXAMPLE.finditer(README)]


def test_cli_examples_match_their_comments():
    examples = cli_examples()
    assert [e["command"] for e in examples] == [
        "curve-add", "translate", "vp-verify", "threefold-check",
    ]
    outcomes = {}
    for e in examples:
        out = io.StringIO()
        code = main([e["command"]], stdin=io.StringIO(e["payload"]), stdout=out)
        expect = e["expect"] or ""
        if expect.startswith("exit="):
            assert code == int(expect.split()[0].removeprefix("exit="))
        else:
            assert code == 0
        if expect.startswith("{"):
            assert json.loads(out.getvalue()) == json.loads(expect)
        outcomes[e["command"]] = (code, json.loads(out.getvalue()))

    assert outcomes["curve-add"] == (0, {"result": {"x": "-1", "y": "0"}})
    code, report = outcomes["vp-verify"]
    assert code == 2 and report["all_vp"] is False and report["routes_agree"] is True
    code, report = outcomes["threefold-check"]
    assert code == 0 and report["ok"] is True


def test_library_quick_start():
    (block,) = re.findall(r"```python\n(.*?)```", README, re.S)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(block, {})
    lines = printed.getvalue().splitlines()
    assert len(lines) == 4
    assert lines[0] == "(4; 3,1,1,1,1,1,1)"
    assert lines[2] == str(["I"] + ["II"] * 6 + ["III"]) + " True"
    assert lines[3] == "10"
    # the comments in the block state the same values
    assert "# (4; 3,1,1,1,1,1,1)" in block and "# 10" in block
