"""The README's examples run as written: each inline-JSON CLI example gives the
output or exit code its `# ->` comment states, each `jq` example succeeds on
the translate example's output, and the library quick start prints the
values its comments state."""

import contextlib
import io
import json
import re
from pathlib import Path

from planecubic.cli import main
from planecubic.jsonio import type_from_json

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()

# echo '<payload>' [\ newline] | planecubic <command> ..., then an optional "# -> <expected>"
CLI_EXAMPLE = re.compile(
    r"echo '(?P<payload>[^']*)'\s*\\?\s*\|\s*planecubic (?P<command>[\w-]+)[^\n]*\n"
    r"(?:# -> (?P<expect>[^\n]*))?"
)


# jq -c '<filter>' phi_p.json | planecubic <command>: the filter wraps the
# translate output, written as `.`, in an object with bare keys
JQ_EXAMPLE = re.compile(r"jq -c '(?P<filter>[^']*)' phi_p\.json \| planecubic (?P<command>[\w-]+)")


def cli_examples():
    return [m.groupdict() for m in CLI_EXAMPLE.finditer(README)]


def run(command, payload):
    out = io.StringIO()
    code = main([command], stdin=io.StringIO(payload), stdout=out)
    return code, out.getvalue()


def jq_payload(jq_filter, document):
    """The object the filter builds: bare keys quoted, `.` the document."""
    text = re.sub(r"(\w+):", r'"\1":', jq_filter)
    return re.sub(r"(?<=: )\.(?=[,}])", lambda _m: document, text)


def test_cli_examples_match_their_comments():
    examples = cli_examples()
    assert [e["command"] for e in examples] == [
        "curve-add", "translate", "vp-verify", "threefold-check",
    ]
    outcomes = {}
    for e in examples:
        code, out = run(e["command"], e["payload"])
        expect = e["expect"] or ""
        if expect.startswith("exit="):
            assert code == int(expect.split()[0].removeprefix("exit="))
        else:
            assert code == 0
        if expect.startswith("{"):
            assert json.loads(out) == json.loads(expect)
        outcomes[e["command"]] = (code, json.loads(out))

    assert outcomes["curve-add"] == (0, {"result": {"x": "-1", "y": "0"}})
    code, report = outcomes["vp-verify"]
    assert code == 2 and report["all_vp"] is False and report["routes_agree"] is True
    code, report = outcomes["threefold-check"]
    assert code == 0 and report["ok"] is True


def test_jq_examples_on_the_translate_output():
    (translate,) = [e for e in cli_examples() if e["command"] == "translate"]
    code, phi_p = run("translate", translate["payload"])
    assert code == 0
    examples = [m.groupdict() for m in JQ_EXAMPLE.finditer(README)]
    assert [e["command"] for e in examples] == ["base-forest", "factorize", "vp-verify"]
    outputs = {}
    for e in examples:
        code, out = run(e["command"], jq_payload(e["filter"], phi_p))
        assert code == 0, e
        outputs[e["command"]] = [json.loads(line) for line in out.splitlines()]

    (forest,) = outputs["base-forest"]
    assert str(type_from_json(forest["type"])) == "(4; 3,1,1,1,1,1,1)"
    assert outputs["factorize"][-1]["all_vp"] is True
    (report,) = outputs["vp-verify"]
    assert report["ok"] is True


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
