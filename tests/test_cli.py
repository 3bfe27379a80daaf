import hashlib
import io
import json

import pytest

from planecubic.cli import COMMANDS, EX_MALFORMED, EX_OK, EX_USAGE, EX_VERIFY, main


def run(cmd_args, payload=None):
    out = io.StringIO()
    raw = json.dumps(payload) if payload is not None else ""
    code = main(cmd_args, stdin=io.StringIO(raw), stdout=out)
    return code, out.getvalue()


CURVE = {"p": "0", "q": "1"}
P = {"x": "2", "y": "3"}
Q = {"x": "0", "y": "1"}


def desk_payload(**extra):
    from planecubic import jsonio, threefold

    q = threefold.desk_instance()
    return dict({k: jsonio.poly_to_json(getattr(q, k)) for k in "ABC"}, **extra)


@pytest.fixture(scope="module")
def translate_output():
    code, out = run(["translate"], {"curve": CURVE, "P": P})
    assert code == EX_OK
    return json.loads(out)


class TestExitCodes:
    @pytest.mark.parametrize("flag", ["--help", "-h", "help"])
    def test_help_prints_usage_to_stdout(self, flag, capsys):
        from planecubic.cli import _USAGE

        assert run([flag]) == (EX_OK, _USAGE + "\n")
        assert capsys.readouterr().err == ""

    def test_unknown_command_is_64(self):
        code, _ = run(["frobnicate"], {})
        assert code == EX_USAGE

    def test_unknown_flag_is_64(self):
        code, _ = run(["curve-add", "--json"], {"curve": CURVE, "P": P, "Q": Q})
        assert code == EX_USAGE

    def test_parser_built_once_per_command(self, capsys):
        # the second call reuses the first one's parser: same usage and error
        from planecubic.cli import _parser

        errors = []
        for _ in range(2):
            assert run(["compose", "--json"], {})[0] == EX_USAGE
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert errors[0].startswith("usage: planecubic compose [-h] [--config CONFIG]")
        assert "unrecognized arguments: --json" in errors[0]
        assert _parser("compose") is _parser("compose") is not _parser("translate")

    def test_seed_flag_is_64(self, translate_output):
        code, out = run(["factorize", "--seed", "7"], {"curve": CURVE, "map": translate_output})
        assert code == EX_USAGE and out == ""

    def test_seed_in_config_is_1(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 3}))
        code, out = run_with_config(["curve-add", "--config", str(cfg)])
        assert code == EX_MALFORMED and out == ""
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "error" in json.loads(err[0])

    def test_sample_count_in_config_is_1(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sample_count": 5}))
        code, out = run_with_config(["curve-add", "--config", str(cfg)])
        assert code == EX_MALFORMED and out == ""
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "error" in json.loads(err[0])

    @pytest.mark.parametrize(
        "raw", ["true", "2.5", "1e400", '"64"'], ids=["bool", "float", "overflow", "string"]
    )
    def test_non_integer_step_cap_is_1(self, raw, tmp_path, capsys):
        # a cast would run true as a cap of 1 and 1e400 (inf) as no cap at all
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"step_cap": %s}' % raw)
        code, out = run_with_config(["curve-add", "--config", str(cfg)])
        assert code == EX_MALFORMED and out == ""
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and json.loads(err[0])["error"].startswith("bad config")

    def test_unwritable_trace_file_is_1(self, translate_output, tmp_path, capsys):
        target = tmp_path / "missing" / "trace.jsonl"
        payload = {"curve": CURVE, "map": translate_output}
        code, out = run(["factorize", "--trace-file", str(target)], payload)
        assert code == EX_MALFORMED and out == ""
        err = capsys.readouterr().err
        assert "error" in json.loads(err)  # one JSON object, no traceback

    def test_unwritable_trace_file_fails_before_the_engine(self, tmp_path, capsys, monkeypatch):
        # the path is checked first: the engine never runs, and an input the
        # engine would reject does not hide the bad path
        from planecubic import sarkisov

        def engine(*args, **kwargs):
            raise AssertionError("the engine ran before the trace file was opened")

        monkeypatch.setattr(sarkisov, "factorize", engine)
        target = tmp_path / "missing" / "trace.jsonl"
        state = {"degree": 2, "points": [{"mult": 1, "on_cubic": True}] * 3}
        code, out = run(["factorize", "--trace-file", str(target)], {"state": state})
        assert code == EX_MALFORMED and out == ""
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and json.loads(err[0])["error"].startswith("ValueError: bad trace file")

    def test_engine_error_leaves_the_trace_file_empty(self, tmp_path, capsys):
        # a writable path, then an engine error (the cap stops a 4-link trace at 1)
        target = tmp_path / "trace.jsonl"
        target.write_text("stale\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"step_cap": 1}))
        state = {"degree": 2, "points": [{"mult": 1, "on_cubic": True}] * 3}
        out = io.StringIO()
        code = main(
            ["factorize", "--config", str(cfg), "--trace-file", str(target)],
            stdin=io.StringIO(json.dumps({"state": state})),
            stdout=out,
        )
        assert code == EX_MALFORMED and out.getvalue() == ""
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and json.loads(err[0])["error"].startswith("StepCapExceeded")
        assert target.read_text() == ""

    @pytest.mark.parametrize("command", ["factorize", "vp-verify"])
    @pytest.mark.parametrize("track", [True, False])
    def test_track_cubic_in_state_is_1(self, command, track, capsys):
        # the engine always tracks the boundary cubic, so the key is not a
        # field; without it the engine runs this off-cubic state to the end
        state = {"degree": 2, "points": [{"mult": 1, "on_cubic": False}] * 3,
                 "track_cubic": track}
        code, out = run([command], {"state": state})
        assert code == EX_MALFORMED and out == ""
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "error" in json.loads(err[0])

    def test_zero_component_map_is_1(self, translate_output, capsys):
        from planecubic import jsonio
        from planecubic.exact import HomPoly, variables

        _, y, z = variables(3)
        f = {"components": [jsonio.poly_to_json(c) for c in (HomPoly.zero(3), y, z)]}
        code, out = run(["compose"], {"f": f, "g": translate_output})
        assert code == EX_MALFORMED and out == ""
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "error" in json.loads(err[0])

    @pytest.mark.parametrize("command", ["dec-check", "base-forest"])
    def test_two_variable_cubic_is_1(self, command, translate_output, capsys):
        cubic = {"vars": 2, "terms": [{"exp": [3, 0], "coef": "1"}, {"exp": [0, 3], "coef": "1"}]}
        code, out = run([command], {"map": translate_output, "cubic": cubic})
        assert code == EX_MALFORMED and out == ""
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "error" in json.loads(err[0])

    @pytest.mark.parametrize(
        "poly",
        [
            {"vars": 3, "terms": [{"exp": [1.9, 0, 0], "coef": "1"}]},
            {"vars": 3, "terms": [{"exp": [True, 0, 0], "coef": "1"}]},
            {"vars": 3, "terms": [{"exp": [1, "0", 0], "coef": "1"}]},
            {"vars": 3.7, "terms": [{"exp": [1, 0, 0], "coef": "1"}]},
        ],
    )
    def test_non_integer_json_field_is_1(self, poly, capsys):
        # each poly is a mis-typed x; a cast would read it as x and exit 0
        from planecubic import jsonio
        from planecubic.exact import variables

        x, y, z = (jsonio.poly_to_json(v) for v in variables(3))
        payload = {"f": {"components": [poly, y, z]}, "g": {"components": [x, y, z]}}
        code, out = run(["compose"], payload)
        assert code == EX_MALFORMED and out == ""
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "error" in json.loads(err[0])

    @pytest.mark.parametrize(
        "command, payload",
        [
            ("noether", {"d": 2.9, "mults": [1, 1, 1.5]}),
            ("noether", {"d": True, "mults": []}),
            ("noether", {"d": 2, "mults": [1, 1, "1"]}),
            ("factorize", {"state": {"degree": 2.0, "points": [{"mult": 1}] * 3}}),
            ("factorize", {"state": {"degree": 2, "points": [{"mult": 1.0}] * 3}}),
            ("vp-verify", {"state": {"degree": 2, "points": [
                {"mult": 1, "on_cubic": True}, {"mult": 1, "on_cubic": True},
                {"mult": 1, "on_cubic": "false"}]}}),
            ("threefold-check", desk_payload(validate="false")),
        ],
        ids=["noether-float", "noether-bool", "noether-string", "state-degree", "state-mult",
             "state-on-cubic", "threefold-validate"],
    )
    def test_non_integer_field_is_1(self, command, payload, capsys):
        # a cast would read each of these as an integer or a boolean and exit 0
        code, out = run([command], payload)
        assert code == EX_MALFORMED and out == ""
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "error" in json.loads(err[0])

    @pytest.mark.parametrize(
        "command, payload",
        [
            ("noether", {"d": 2, "mults": [1, 1, 1, 0]}),
            ("noether", {"d": 2, "mults": [1, 1, 1, -1, 1]}),
            ("noether", {"d": 0, "mults": []}),
            ("factorize", {"state": {"degree": 2, "points": [{"mult": 1}] * 3 + [{"mult": 0}]}}),
            ("factorize", {"state": {"degree": 0, "points": []}}),
            ("vp-verify", {"state": {"degree": 2, "points": [
                {"mult": 1, "children": [{"mult": 0}]}, {"mult": 1}, {"mult": 1}]}}),
        ],
        ids=["noether-mult-0", "noether-mult-negative", "noether-degree-0", "state-mult-0",
             "state-degree-0", "state-child-mult-0"],
    )
    def test_degree_or_multiplicity_below_1_is_1(self, command, payload, capsys):
        # (2; 1^3, 0) would read as (2; 1^3) and a mult-0 point as a base point
        code, out = run([command], payload)
        assert code == EX_MALFORMED and out == ""
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "error" in json.loads(err[0])

    @pytest.mark.parametrize(
        "payload",
        [
            {"state": {"degree": 1, "points": [{"mult": 5, "on_cubic": True}]}},
            {"state": {"degree": 2, "points": [{"mult": 1}, {"mult": 1}]}},
            {"state": {"degree": 2, "points": [{"mult": 1, "children": [{"mult": 1}]},
                                               {"mult": 1}, {"mult": 1}]}},
            {"state": {"degree": 3, "points": [{"mult": 2}] + [{"mult": 1}] * 3}},
        ],
        ids=["d1-mult5", "d2-two-points", "d2-extra-child", "d3-sum-ok-squares-not"],
    )
    @pytest.mark.parametrize("command", ["factorize", "vp-verify"])
    def test_state_failing_the_equations_of_condition_is_1(self, command, payload, capsys):
        # (1; 5) once ran no link and reported all_vp true
        code, out = run([command], payload)
        assert code == EX_MALFORMED and out == ""
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "equations of condition" in json.loads(err[0])["error"]

    @pytest.mark.parametrize(
        "points",
        [[{"mult": 1}] * 3, [{"mult": 1, "children": [{"mult": 1}]}, {"mult": 1}]],
        ids=["three-points", "infinitely-near"],
    )
    def test_homaloidal_states_still_factorize(self, points):
        code, out = run(["factorize"], {"state": {"degree": 2, "points": points}})
        assert code == EX_OK and json.loads(out.strip().splitlines()[-1])["links"] > 0

    def test_non_integer_map_degree_is_1(self, translate_output, capsys):
        f = dict(translate_output, deg=4.0)
        code, out = run(["compose"], {"f": f, "g": translate_output})
        assert code == EX_MALFORMED and out == ""
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "error" in json.loads(err[0])

    def test_no_command_is_64(self):
        assert main([], stdin=io.StringIO(""), stdout=io.StringIO()) == EX_USAGE

    def test_malformed_json_is_1(self):
        out = io.StringIO()
        code = main(["curve-add"], stdin=io.StringIO("{oops"), stdout=out)
        assert code == EX_MALFORMED

    def test_missing_field_is_1(self):
        code, _ = run(["curve-add"], {"curve": CURVE})
        assert code == EX_MALFORMED

    @pytest.mark.parametrize("raw", ["[1]", "5", '"x"', "null"])
    def test_non_object_payload_is_1(self, raw, capsys):
        for command in COMMANDS:
            out = io.StringIO()
            assert main([command], stdin=io.StringIO(raw), stdout=out) == EX_MALFORMED
            assert out.getvalue() == ""
            err = capsys.readouterr().err.strip().splitlines()
            assert len(err) == 1 and "error" in json.loads(err[0])

    def test_bad_rational_is_1(self):
        code, _ = run(["curve-add"], {"curve": {"p": "z", "q": "1"}, "P": P, "Q": Q})
        assert code == EX_MALFORMED

    def test_verification_failure_is_2(self):
        payload = {
            "state": {
                "degree": 2,
                "points": [
                    {"mult": 1, "on_cubic": True},
                    {"mult": 1, "on_cubic": True},
                    {"mult": 1, "on_cubic": False},
                ],
            }
        }
        code, out = run(["vp-verify"], payload)
        assert code == EX_VERIFY
        report = json.loads(out)
        assert report["all_vp"] is False and report["ok"] is False


class TestCurveAdd:
    def test_chord(self):
        code, out = run(["curve-add"], {"curve": CURVE, "P": P, "Q": Q})
        assert code == EX_OK
        assert json.loads(out) == {"result": {"x": "-1", "y": "0"}}

    def test_neutral(self):
        code, out = run(["curve-add"], {"curve": CURVE, "P": "O", "Q": P})
        assert json.loads(out) == {"result": {"x": "2", "y": "3"}}

    def test_inverse_gives_o(self):
        code, out = run(
            ["curve-add"], {"curve": CURVE, "P": P, "Q": {"x": "2", "y": "-3"}}
        )
        assert json.loads(out) == {"result": "O"}


class TestTranslate:
    def test_degree_four(self, translate_output):
        assert translate_output["deg"] == 4
        assert len(translate_output["components"]) == 3

    def test_round_trip(self, translate_output):
        from planecubic import jsonio
        from planecubic.elliptic import CurvePoint, WeierstrassCurve, translation_map

        f = jsonio.map_from_json(translate_output)
        expect = translation_map(WeierstrassCurve(0, 1), CurvePoint.affine(2, 3))
        assert f == expect
        assert jsonio.map_to_json(f) == translate_output


class TestCompose:
    def test_degree_ten_report(self, translate_output):
        code, out = run(["compose"], {"f": translate_output, "g": translate_output})
        assert code == EX_OK
        report = json.loads(out)
        assert report["deg"] == 10
        assert report["deg_f"] == report["deg_g"] == 4


class TestDecCheck:
    def test_translation(self, translate_output):
        code, out = run(["dec-check"], {"curve": CURVE, "map": translate_output})
        assert code == EX_OK
        report = json.loads(out)
        assert report["in_dec"] is True and report["quotient_deg"] == 9

    def test_linear_map_not_member(self):
        lin = {
            "components": [
                {"vars": 3, "terms": [{"exp": [1, 0, 0], "coef": "1"},
                                       {"exp": [0, 1, 0], "coef": "1"}]},
                {"vars": 3, "terms": [{"exp": [0, 1, 0], "coef": "1"}]},
                {"vars": 3, "terms": [{"exp": [0, 0, 1], "coef": "1"}]},
            ]
        }
        code, out = run(["dec-check"], {"curve": CURVE, "map": lin})
        assert code == EX_OK
        assert json.loads(out)["in_dec"] is False

    @pytest.mark.parametrize("command", ["dec-check", "vp-verify"])
    @pytest.mark.parametrize("y_sign", ["1", "-1"], ids=["identity", "inversion"])
    def test_linear_member_needs_no_curve_points(self, command, y_sign):
        # y^2 = x^3 + 7 has no affine rational point to sample; a linear map
        # whose pullback the cubic divides is an automorphism of the cubic
        comps = [{"vars": 3, "terms": [{"exp": e, "coef": c}]}
                 for e, c in (([1, 0, 0], "1"), ([0, 1, 0], y_sign), ([0, 0, 1], "1"))]
        code, out = run([command], {"curve": {"p": "0", "q": "7"}, "map": {"components": comps}})
        assert code == EX_OK
        assert json.loads(out)["in_dec"] is True

    def test_samples_off_the_cubic_are_1(self, translate_output, capsys):
        from planecubic import jsonio

        cubic = jsonio.poly_to_json(jsonio.curve_from_json(CURVE).equation)
        samples = [[1, 1, 1], [2, 5, 1], [3, 7, 1]]
        payload = {"cubic": cubic, "map": translate_output, "samples": samples}
        code, out = run(["dec-check"], payload)
        assert (code, out) == (EX_MALFORMED, "")
        assert "not on the cubic" in capsys.readouterr().err

    def test_repeated_samples_count_once(self, translate_output, capsys):
        # (0:1:1) and (0:2:2) are one point: with (-1:0:1) and (0:-1:1) that
        # leaves two usable samples, which decide; without them, one is too few
        from planecubic import jsonio

        cubic = jsonio.poly_to_json(jsonio.curve_from_json(CURVE).equation)
        payload = {"cubic": cubic, "map": translate_output}
        repeated = [[0, 1, 1], [0, 2, 2], [-1, 0, 1], [0, -1, 1]]
        code, out = run(["dec-check"], dict(payload, samples=repeated))
        assert code == EX_OK and json.loads(out)["in_dec"] is True
        code, out = run(["dec-check"], dict(payload, samples=[[0, 1, 1], [0, 2, 2]]))
        assert (code, out) == (EX_MALFORMED, "")
        assert "fewer than two usable sample points" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "samples", [["011", "231"], [{"x": "0", "y": "1"}, [2, 3, 1]]], ids=["strings", "object"]
    )
    def test_samples_not_lists_are_1(self, samples, capsys):
        # "011" and "231" are not read as (0:1:1) and (2:3:1), two points of
        # the cubic that show the map below contracting it
        from planecubic import jsonio
        from planecubic.exact import variables

        x, y, z = variables(3)
        cubic = jsonio.curve_from_json(CURVE).equation
        h = x**3 + y**3 + 2 * z**3
        coeffs = ((2, 1), (3, 0), (1, 5))
        f = {"components": [jsonio.poly_to_json(a * h + b * cubic) for a, b in coeffs]}
        payload = {"cubic": jsonio.poly_to_json(cubic), "map": f, "samples": samples}
        assert run(["dec-check"], payload) == (EX_MALFORMED, "")
        assert "DecodeError: bad projective point" in capsys.readouterr().err
        listed = dict(payload, samples=[[0, 1, 1], [2, 3, 1]])
        assert run(["dec-check"], listed) == (EX_OK, '{"in_dec": false}\n')

    @pytest.mark.parametrize(
        "curve, P",
        [(CURVE, P), ({"p": "-1/4", "q": "1/4"}, {"x": "1/2", "y": "1/2"})],
        ids=["integral", "fractional"],
    )
    def test_curve_and_its_weierstrass_cubic_agree(self, curve, P):
        # a Weierstrass "cubic" draws the same group-law samples as its "curve"
        from planecubic import jsonio
        from planecubic.exact import variables

        x, y, z = variables(3)
        cubic = jsonio.poly_to_json(jsonio.curve_from_json(curve).equation)
        _, added = run(["curve-add"], {"curve": curve, "P": P, "Q": P})
        _, phi = run(["translate"], {"curve": curve, "P": P})
        _, phi_2 = run(["translate"], {"curve": curve, "P": json.loads(added)["result"]})
        _, composite = run(["compose"], {"f": json.loads(phi_2), "g": json.loads(phi)})
        shear = {"deg": 1, "components": [jsonio.poly_to_json(c) for c in (x + y, y, z)]}
        verdicts = []
        for m in (json.loads(phi), json.loads(composite)["map"], shear):
            by_curve = run(["dec-check"], {"curve": curve, "map": m})
            assert by_curve == run(["dec-check"], {"cubic": cubic, "map": m})
            verdicts.append(json.loads(by_curve[1])["in_dec"])
        assert verdicts == [True, True, False]

    @pytest.mark.parametrize("key", ["curve", "cubic"])
    @pytest.mark.parametrize(
        "q, coeffs, expected",
        [
            # y^2 = x^3 + 1 to (2:3:1): the samples show the contraction
            ("1", ((2, 1), (3, 0), (1, 5)), (EX_OK, '{"in_dec": false}\n')),
            # y^2 = x^3 + 7 to O: no small rational point to sample
            ("7", ((0, 1), (1, 0), (0, 5)), (EX_MALFORMED, "")),
        ],
        ids=["samples", "no-samples"],
    )
    def test_map_contracting_the_cubic(self, key, q, coeffs, expected):
        # f_i = a_i h + b_i C with h = x^3 + y^3 + 2z^3: C divides C(f), and
        # only samples tell the contraction apart, for a curve and its cubic
        from planecubic import jsonio
        from planecubic.exact import variables

        curve = {"p": "0", "q": q}
        cubic = jsonio.curve_from_json(curve).equation
        x, y, z = variables(3)
        h = x**3 + y**3 + 2 * z**3
        f = {"components": [jsonio.poly_to_json(a * h + b * cubic) for a, b in coeffs]}
        given = curve if key == "curve" else jsonio.poly_to_json(cubic)
        assert run(["dec-check"], {key: given, "map": f}) == expected


SIGMA = {"components": [
    {"vars": 3, "terms": [{"exp": e, "coef": "1"}]} for e in ([0, 1, 1], [1, 0, 1], [1, 1, 0])
]}


def poly_json(terms):
    """A polynomial payload from (exponent list, integer coefficient) pairs."""
    return {"vars": len(terms[0][0]), "terms": [{"exp": e, "coef": str(c)} for e, c in terms]}


class TestBaseForestCmd:
    def test_hints_give_the_searched_forest(self):
        # sigma = (yz : xz : xy) has its base points at the vertices; hints
        # in any scaling and order give the forest the search finds
        searched = run(["base-forest"], {"map": SIGMA})
        assert searched[0] == EX_OK
        assert json.loads(searched[1])["type"] == {"d": 2, "mults": [1, 1, 1]}
        for hints in ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[0, 0, "3"], ["-1/2", 0, 0], [0, 7, 0]]):
            assert run(["base-forest"], {"map": SIGMA, "hints": hints}) == searched

    def test_hint_off_the_base_locus_is_1(self, capsys):
        hints = [[1, 0, 0], [0, 1, 0], [1, 1, 1]]
        assert run(["base-forest"], {"map": SIGMA, "hints": hints}) == (EX_MALFORMED, "")
        assert "is not a base point" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "hints",
        [["100", "010", "001"], "100", [{"0": 1, "1": 0, "2": 0}], [[1, 0, 0], 5]],
        ids=["digit-strings", "string", "object", "number"],
    )
    def test_hints_not_lists_are_1(self, hints, capsys):
        # a string or an object is not read as its characters or its keys
        assert run(["base-forest"], {"map": SIGMA, "hints": hints}) == (EX_MALFORMED, "")
        assert "DecodeError: bad projective point" in capsys.readouterr().err

    @pytest.mark.parametrize("hints", [None, [[0, 1, 0], [2, 3, 1]]], ids=["searched", "hinted"])
    @pytest.mark.parametrize(
        "cubic, reason",
        [
            (poly_json([([0, 2, 1], 1), ([3, 0, 0], -1)]), "singular"),  # cuspidal y^2 z - x^3
            (poly_json([([3, 0, 0, 0], 1)]), "not a plane cubic: 4 variables"),  # x0^3
            (poly_json([([2, 0, 0], 1)]), "not a plane cubic: 3 variables, degree 2"),  # x^2
        ],
        ids=["cuspidal", "four-variable", "conic"],
    )
    def test_bad_cubic_is_1_as_in_dec_check(self, cubic, reason, hints, translate_output, capsys):
        payload = {"map": translate_output, "cubic": cubic}
        if hints is not None:
            payload["hints"] = hints  # phi_P's proper base points
        assert run(["base-forest"], payload) == (EX_MALFORMED, "")
        assert reason in capsys.readouterr().err
        assert run(["dec-check"], {"map": translate_output, "cubic": cubic}) == (EX_MALFORMED, "")
        assert reason in capsys.readouterr().err

    def test_type_and_flags(self, translate_output):
        code, out = run(["base-forest"], {"curve": CURVE, "map": translate_output})
        assert code == EX_OK
        report = json.loads(out)
        assert report["type"] == {"d": 4, "mults": [3, 1, 1, 1, 1, 1, 1]}
        assert len(report["forest"]) == 7
        assert all(n["on_cubic"] for n in report["forest"])
        levels = sorted(n["level"] for n in report["forest"])
        assert levels == [0, 0, 1, 2, 3, 4, 5]


class TestNoetherCmd:
    def test_valid(self):
        code, out = run(["noether"], {"d": 4, "mults": [3, 1, 1, 1, 1, 1, 1]})
        report = json.loads(out)
        assert report["ok"] is True and report["de_jonquieres"] is True

    def test_invalid(self):
        code, out = run(["noether"], {"d": 4, "mults": [3, 3]})
        assert json.loads(out)["ok"] is False


class TestFactorizeCmd:
    def test_trace_lines(self, translate_output):
        code, out = run(["factorize"], {"curve": CURVE, "map": translate_output})
        assert code == EX_OK
        lines = [json.loads(l) for l in out.strip().splitlines()]
        summary = lines[-1]
        links = lines[:-1]
        assert summary["all_vp"] is True and summary["links"] == 8
        assert [l["kind"] for l in links] == ["I"] + ["II"] * 6 + ["III"]
        assert all(l["vp"] for l in links)
        assert links[1]["case"] == 3

    def test_identity_empty_trace(self):
        ident = {
            "components": [
                {"vars": 3, "terms": [{"exp": [1, 0, 0], "coef": "1"}]},
                {"vars": 3, "terms": [{"exp": [0, 1, 0], "coef": "1"}]},
                {"vars": 3, "terms": [{"exp": [0, 0, 1], "coef": "1"}]},
            ]
        }
        code, out = run(["factorize"], {"curve": CURVE, "map": ident})
        assert code == EX_OK
        lines = [json.loads(l) for l in out.strip().splitlines()]
        assert len(lines) == 1 and lines[0]["links"] == 0

    def test_trace_file(self, translate_output, tmp_path):
        target = tmp_path / "trace.jsonl"
        out = io.StringIO()
        payload = json.dumps({"curve": CURVE, "map": translate_output})
        code = main(
            ["factorize", "--trace-file", str(target)],
            stdin=io.StringIO(payload),
            stdout=out,
        )
        assert code == EX_OK
        lines = [json.loads(l) for l in target.read_text().splitlines()]
        assert len(lines) == 8

    def test_enriched_state_input(self):
        payload = {
            "state": {
                "degree": 2,
                "points": [{"mult": 1, "on_cubic": True}] * 3,
            }
        }
        code, out = run(["factorize"], payload)
        assert code == EX_OK
        lines = [json.loads(l) for l in out.strip().splitlines()]
        assert [l["kind"] for l in lines[:-1]] == ["I", "II", "II", "III"]


class TestVpVerifyCmd:
    def test_translation_all_green(self, translate_output):
        code, out = run(["vp-verify"], {"curve": CURVE, "map": translate_output})
        assert code == EX_OK
        report = json.loads(out)
        assert report == {
            "all_vp": True,
            "cy_invariant": True,
            "in_dec": True,
            "links": 8,
            "models_admissible": True,
            "ok": True,
            "routes_agree": True,
        }


class TestJonquieresCmd:
    def test_single_center(self, translate_output):
        code, out = run(["jonquieres"], {"curve": CURVE, "map": translate_output})
        assert code == EX_OK
        report = json.loads(out)
        assert report["grouped"] is True
        assert len(report["centers"]) == 1
        assert report["centers"][0]["on_cubic"] is True


class TestThreefoldCmd:
    def test_desk_instance(self):
        code, out = run(["threefold-check"], {"instance": "desk"})
        assert code == EX_OK
        report = json.loads(out)
        assert report["ok"] is True
        assert report["checks"] == {
            "bs_not_in_quartic": True,
            "involution": True,
            "preserves_quartic": True,
            "quotient_degree_8": True,
            "six_distinct_base_lines": True,
            "tangent_cone_rank_3": True,
        }

    def test_rigged_instance_fails_verification(self):
        from planecubic import jsonio
        from planecubic.threefold import rigged_instance

        q = rigged_instance()
        payload = {
            "A": jsonio.poly_to_json(q.A),
            "B": jsonio.poly_to_json(q.B),
            "C": jsonio.poly_to_json(q.C),
            "validate": False,
        }
        code, out = run(["threefold-check"], payload)
        assert code == EX_VERIFY
        assert json.loads(out)["checks"]["bs_not_in_quartic"] is False

    def test_shared_component_is_a_verdict(self):
        # B = A (x1 + x2): base_lines finds a common curve, not six points;
        # the report says so and exits 2 (it used to exit 1 with an error)
        from planecubic import jsonio
        from planecubic.exact import variables

        x1, x2, _ = variables(3)
        payload = desk_payload()
        A = jsonio.poly_from_json(payload["A"])
        payload["B"] = jsonio.poly_to_json(A * (x1 + x2))
        code, out = run(["threefold-check"], payload)
        assert code == EX_VERIFY
        checks = json.loads(out)["checks"]
        assert checks["six_distinct_base_lines"] is False
        assert checks["bs_not_in_quartic"] is False
        assert checks["base_lines_error"] == (
            "B not general enough: conic and cubic share the component x1*x3 - x2^2"
        )


    @pytest.mark.parametrize("name", ["desk", "tangent", "rigged"])
    def test_quotient_degree_without_a_second_pullback(self, name):
        from planecubic import jsonio, threefold
        from planecubic.exact import poly_divide, substitute

        q = getattr(threefold, f"{name}_instance")()
        phi = threefold.build_involution(q)
        quotient, divides = poly_divide(substitute(q.D, phi.components), q.D)
        expected = threefold.preserves_quartic(phi, q) and divides and quotient.degree == 8
        payload = {k: jsonio.poly_to_json(getattr(q, k)) for k in "ABC"}
        payload["validate"] = False
        code, out = run(["threefold-check"], payload)
        assert code in (EX_OK, EX_VERIFY)
        assert json.loads(out)["checks"]["quotient_degree_8"] is expected


def fresh_interpreter(script):
    """stdout of the script run in a new interpreter on this checkout."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parents[1] / "src"
    res = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert res.returncode == 0, res.stderr
    return res.stdout


class TestLazySympy:
    def test_commands_without_polynomial_algebra_skip_sympy(self):
        noether = json.dumps({"d": 2, "mults": [1, 1, 1]})
        curve_add = json.dumps({"curve": CURVE, "P": P, "Q": Q})
        script = f"""
import io, sys
from planecubic.cli import main
for cmd, raw in (("noether", {noether!r}), ("curve-add", {curve_add!r})):
    assert main([cmd], stdin=io.StringIO(raw), stdout=io.StringIO()) == 0
print("sympy" in sys.modules)
"""
        assert fresh_interpreter(script).strip() == "False"

    def test_translate_and_dec_check_skip_sympy(self):
        # the coprimality certificate decides the content gcd of a
        # translation map, so neither command needs sympy's gcd; the base
        # point (1 : 1 : 1) of the second map lies on no line it tries
        cases = [
            ({"p": "0", "q": "-2"}, {"x": "3", "y": "5"}),
            ({"p": "-1", "q": "1"}, {"x": "1", "y": "1"}),
        ]
        script = f"""
import io, json, sys
from planecubic.cli import main
for curve, P in {cases!r}:
    out = io.StringIO()
    raw = json.dumps({{"curve": curve, "P": P}})
    assert main(["translate"], stdin=io.StringIO(raw), stdout=out) == 0
    translate = "sympy" in sys.modules
    raw = json.dumps({{"curve": curve, "map": json.loads(out.getvalue())}})
    assert main(["dec-check"], stdin=io.StringIO(raw), stdout=io.StringIO()) == 0
    print(translate, "sympy" in sys.modules)
"""
        assert fresh_interpreter(script).split() == ["False"] * 4

    def test_readme_pipeline_skips_sympy(self):
        # the README's maps: phi_P and phi_Q o phi_P (16 -> 10) on y^2 = x^3 + 1;
        # _heu_gcd proves the composite's content gcd, and every root search
        # of the forests ends in a squarefree part of degree <= 2
        script = f"""
import io, json, sys
from planecubic.cli import main
def run(cmd, payload):
    out = io.StringIO()
    assert main([cmd], stdin=io.StringIO(json.dumps(payload)), stdout=out) in (0, 2)
    print(cmd, "sympy" in sys.modules)
    return out.getvalue()
curve = {CURVE!r}
phi_p = json.loads(run("translate", {{"curve": curve, "P": {P!r}}}))
phi_q = json.loads(run("translate", {{"curve": curve, "P": {Q!r}}}))
h = json.loads(run("compose", {{"f": phi_q, "g": phi_p}}))["map"]
for f in (phi_p, h):
    for cmd in ("dec-check", "base-forest", "factorize", "vp-verify"):
        run(cmd, {{"curve": curve, "map": f}})
"""
        lines = fresh_interpreter(script).splitlines()
        assert len(lines) == 11
        assert all(line.split()[1] == "False" for line in lines), lines

    def test_canonical_maps_decode_without_the_ring(self, translate_output, monkeypatch):
        from planecubic import exact, jsonio
        from planecubic.cremona import compose
        from planecubic.elliptic import CurvePoint, WeierstrassCurve, add, translation_map

        curve = WeierstrassCurve(0, -2)
        G = CurvePoint.affine(3, 5)
        composite = compose(translation_map(curve, add(curve, G, G)), translation_map(curve, G))
        encoded = json.loads(json.dumps(jsonio.map_to_json(composite)))

        def no_ring(nvars):
            raise AssertionError("sympy's ring was reached")

        monkeypatch.setattr(exact, "_ring", no_ring)
        assert jsonio.map_from_json(encoded) == composite
        assert jsonio.map_to_json(jsonio.map_from_json(translate_output)) == translate_output


class TestDeterminism:
    def test_byte_identical_output(self, translate_output):
        payload = {"curve": CURVE, "map": translate_output}
        code1, out1 = run(["factorize"], payload)
        code2, out2 = run(["factorize"], payload)
        assert code1 == code2 == EX_OK
        assert out1 and out1 == out2

    def test_input_from_file(self, tmp_path):
        path = tmp_path / "in.json"
        path.write_text(json.dumps({"curve": CURVE, "P": P, "Q": Q}))
        out = io.StringIO()
        code = main(
            ["curve-add", "--in", str(path)], stdin=io.StringIO(""), stdout=out
        )
        assert code == EX_OK
        assert json.loads(out.getvalue())["result"] == {"x": "-1", "y": "0"}

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"step_cap": 32}))
        code, _ = run_with_config(["curve-add", "--config", str(cfg)])
        assert code == EX_OK

    def test_bad_config_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"step_cap": 0}))
        code, _ = run_with_config(["curve-add", "--config", str(cfg)])
        assert code == EX_MALFORMED


class TestBytePin:
    """compose -> dec-check -> base-forest -> factorize on phi_Q o phi_P over
    y^2 = x^3 - 2, P = G = (3, 5), Q = 2G: the sha256 of each call's stdout
    (and of factorize's stderr, which stays empty) must not move when a
    kernel changes.  vp-verify on phi_P itself, which factorizes and runs
    is_in_dec with group-law samples, is pinned beside them."""

    CURVE = {"p": "0", "q": "-2"}
    G = {"x": "3", "y": "5"}
    EXPECTED = {
        "compose": (0, "76aea6bb2f47fdd34344c7ac17bc927be34de1fde0392cdce259af6c3ecd98bc"),
        "dec-check": (0, "0e72a34551e36697ddd839bc758ff0ef32b0c56911a965b9da6b84424825e646"),
        "base-forest": (0, "0eb3397327f2faf5bd20415e00286cacdfb8dbf5c1242d5a87a989b045c4f95e"),
        "factorize": (0, "f4a845a53e17413b3a9b65db885ce512cad65c9a58a40f285fe6d3af2dc74a22"),
    }
    FACTORIZE_STDERR = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    VP_VERIFY_PHI_P = (0, "6b2835cafe836a336bf7f35ab25c6e922abf905dc6b5fd179c1a6140b882f8c0")
    # threefold-check on the library's instances, the desk one validated
    # (irreducibility certificate included), recorded before the integer
    # shortcuts in rational_roots, _coprime_on_line and is_involution
    THREEFOLD = {
        "desk": (0, "682701f6f2916c8b5944774c93477780f6f5d65c87cd896c7472a092935cb776"),
        "tangent": (2, "758e47b24c20ec164cd57851c3ac62b2fa8c30350868518e9f69059c092ca9c8"),
        "rigged": (2, "f2ea36cd83a2b9993222a612ca18001eee41eaf6a946aee62d233262359e03e6"),
    }

    def test_pipeline_digests(self, capsys):
        def sha(text):
            return hashlib.sha256(text.encode()).hexdigest()

        _, added = run(["curve-add"], {"curve": self.CURVE, "P": self.G, "Q": self.G})
        Q = json.loads(added)["result"]
        assert Q == {"x": "129/100", "y": "-383/1000"}
        _, phi_p = run(["translate"], {"curve": self.CURVE, "P": self.G})
        _, phi_q = run(["translate"], {"curve": self.CURVE, "P": Q})
        code, out = run(["vp-verify"], {"curve": self.CURVE, "map": json.loads(phi_p)})
        assert (code, sha(out)) == self.VP_VERIFY_PHI_P
        code, out = run(["compose"], {"f": json.loads(phi_q), "g": json.loads(phi_p)})
        got = {"compose": (code, sha(out))}
        payload = {"curve": self.CURVE, "map": json.loads(out)["map"]}
        for command in ("dec-check", "base-forest", "factorize"):
            capsys.readouterr()
            code, out = run([command], payload)
            got[command] = (code, sha(out))
        assert got == self.EXPECTED
        assert sha(capsys.readouterr().err) == self.FACTORIZE_STDERR

    @pytest.mark.parametrize("name", sorted(THREEFOLD))
    def test_threefold_digests(self, name):
        from planecubic import jsonio, threefold

        q = getattr(threefold, f"{name}_instance")()
        payload = {k: jsonio.poly_to_json(getattr(q, k)) for k in "ABC"}
        if name != "desk":
            payload["validate"] = False
        code, out = run(["threefold-check"], payload)
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == self.THREEFOLD[name]


def run_with_config(args):
    out = io.StringIO()
    payload = json.dumps({"curve": CURVE, "P": P, "Q": Q})
    code = main(args, stdin=io.StringIO(payload), stdout=out)
    return code, out.getvalue()


RATIONAL_TEXTS = ["007", "-0", "+5", " 5", "1_0", "\u0661\u0662", "\u00b2", "-", "--1", "", "1/2",
                  "1e3", "-12", "3/0", "0.5", 7, -3]


class TestStrictDecoders:
    """The rational decoder's integer fast path accepts what Fraction accepts."""

    @pytest.mark.parametrize("text", RATIONAL_TEXTS)
    def test_rational_parity_with_fraction(self, text):
        # integers take a faster parse; what is accepted, and its value, must not change
        from fractions import Fraction

        from planecubic import jsonio

        try:
            expected = Fraction(str(text))
        except (ValueError, ZeroDivisionError):
            with pytest.raises(jsonio.DecodeError):
                jsonio.rat_from_json(text)
        else:
            got = jsonio.rat_from_json(text)
            assert type(got) is Fraction and got == expected

    @pytest.mark.parametrize("text", RATIONAL_TEXTS)
    def test_coefficient_parity_with_fraction(self, text):
        # integer coefficients reach HomPoly as ints: the same texts, the same values
        from fractions import Fraction

        from planecubic import jsonio
        from planecubic.exact import HomPoly

        obj = {"vars": 3, "terms": [{"exp": [2, 0, 1], "coef": text}]}
        try:
            expected = HomPoly(3, {(2, 0, 1): Fraction(str(text))})
        except (ValueError, ZeroDivisionError):
            with pytest.raises(jsonio.DecodeError):
                jsonio.poly_from_json(obj)
        else:
            assert jsonio.poly_from_json(obj) == expected

    @pytest.mark.parametrize("text", ["1e5000", "-1E5000", "1e-5000", "0.5e5000"])
    def test_exponent_above_the_integer_limit_is_1(self, text, capsys):
        # past the integer-string limit such a value could not be printed back
        from planecubic import jsonio

        with pytest.raises(jsonio.DecodeError, match="exponent"):
            jsonio.rat_from_json(text)
        lin = [{"vars": 3, "terms": [{"exp": e, "coef": "1"}]} for e in ([0, 1, 0], [0, 0, 1])]
        f = {"components": [{"vars": 3, "terms": [{"exp": [1, 0, 0], "coef": text}]}] + lin}
        assert run(["compose"], {"f": f, "g": f}) == (EX_MALFORMED, "")
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "exponent" in json.loads(err[0])["error"]

    @pytest.mark.parametrize("text", ["1e4300", "1e-4300", "12e4299"])
    def test_value_past_the_integer_limit_is_1(self, text, capsys):
        # the exponent is within the limit, but the numerator or denominator
        # has 4301 digits: refused at decode, not after the work by the printer
        lin = [{"vars": 3, "terms": [{"exp": e, "coef": "1"}]} for e in ([0, 1, 0], [0, 0, 1])]
        f = {"components": [{"vars": 3, "terms": [{"exp": [1, 0, 0], "coef": text}]}] + lin}
        ident = {"components": [{"vars": 3, "terms": [{"exp": [1, 0, 0], "coef": "1"}]}] + lin}
        assert run(["compose"], {"f": f, "g": ident}) == (EX_MALFORMED, "")
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert "DecodeError" in err[0] and "bad rational" in json.loads(err[0])["error"]

    def test_value_at_the_integer_limit_composes(self):
        lin = [{"vars": 3, "terms": [{"exp": e, "coef": "1"}]} for e in ([0, 1, 0], [0, 0, 1])]
        f = {"components": [{"vars": 3, "terms": [{"exp": [1, 0, 0], "coef": "1e4299"}]}] + lin}
        ident = {"components": [{"vars": 3, "terms": [{"exp": [1, 0, 0], "coef": "1"}]}] + lin}
        code, out = run(["compose"], {"f": f, "g": ident})
        assert code == EX_OK
        assert json.loads(out)["map"]["components"][0]["terms"][0]["coef"] == "1" + "0" * 4299

    def test_no_exponent_limit_where_python_has_none(self):
        import sys
        from fractions import Fraction

        from planecubic import jsonio

        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert jsonio.rat_from_json("1e-5000") == Fraction(1, 10**5000)
        finally:
            sys.set_int_max_str_digits(limit)

    @pytest.mark.parametrize("coefs", [("1", "2"), ("1", "1"), ("3", "-3")])
    def test_repeated_exponent_is_1(self, coefs, capsys):
        # x + 2x is not read as its last term 2x, nor x - x as 0 or -3x
        from planecubic import jsonio

        repeated = {"vars": 3, "terms": [{"exp": [1, 0, 0], "coef": c} for c in coefs]}
        with pytest.raises(jsonio.DecodeError, match="repeated"):
            jsonio.poly_from_json(repeated)
        lin = {"components": [repeated] + [
            {"vars": 3, "terms": [{"exp": e, "coef": "1"}]} for e in ([0, 1, 0], [0, 0, 1])
        ]}
        assert run(["compose"], {"f": lin, "g": lin}) == (EX_MALFORMED, "")
        assert "repeated" in capsys.readouterr().err


MALFORMED_POLYS = {
    "bool-exponent": [{"exp": [True, 0, 0], "coef": "1"}],
    "negative-exponent": [{"exp": [2, -1, 0], "coef": "1"}],
    "float-exponent": [{"exp": [1.0, 0, 0], "coef": "1"}],
    "short-exponent": [{"exp": [1, 0], "coef": "1"}],
    "short-exponent-zero-coefficient": [{"exp": [1, 0], "coef": "0"}],
    "negative-exponent-zero-coefficient": [{"exp": [2, -1, 0], "coef": "0"}],
    "long-exponent": [{"exp": [1, 0, 0, 0], "coef": "1"}],
    "repeated-exponent": [{"exp": [1, 0, 0], "coef": "1"}, {"exp": [1, 0, 0], "coef": "0"}],
    "mixed-degrees": [{"exp": [1, 0, 0], "coef": "1"}, {"exp": [0, 2, 0], "coef": "1"}],
    "float-coefficient": [{"exp": [1, 0, 0], "coef": 1.5}],
    "integral-float-coefficient": [{"exp": [1, 0, 0], "coef": 2.0}],
    "bool-coefficient": [{"exp": [1, 0, 0], "coef": True}],
    "null-coefficient": [{"exp": [1, 0, 0], "coef": None}],
}


class TestPolynomialDecoder:
    """poly_from_json checks each term once and wraps its integers as they are."""

    @pytest.mark.parametrize("terms", MALFORMED_POLYS.values(), ids=MALFORMED_POLYS.keys())
    def test_malformed_polynomial_is_1(self, terms, capsys):
        from planecubic import jsonio

        with pytest.raises(jsonio.DecodeError):
            jsonio.poly_from_json({"vars": 3, "terms": terms})
        lin = [{"vars": 3, "terms": [{"exp": e, "coef": "1"}]} for e in ([0, 1, 0], [0, 0, 1])]
        payload = {"f": {"components": [{"vars": 3, "terms": terms}] + lin},
                   "g": {"components": [{"vars": 3, "terms": [{"exp": [1, 0, 0], "coef": "1"}]}] + lin}}
        assert run(["compose"], payload) == (EX_MALFORMED, "")
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "error" in json.loads(err[0])

    def test_zero_term_of_another_degree_is_dropped(self):
        # a zero coefficient imposes no degree, as in HomPoly
        from planecubic import jsonio
        from planecubic.exact import HomPoly

        obj = {"vars": 3, "terms": [{"exp": [1, 0, 0], "coef": "2"}, {"exp": [0, 3, 0], "coef": "0"}]}
        assert jsonio.poly_from_json(obj) == HomPoly(3, {(1, 0, 0): 2})

    @pytest.mark.parametrize(
        "coefs",
        [
            (["6", "-4", "2"], ["2", "8", "-10"], ["4", "6", "0"]),  # a common integer factor 2
            (["-1", "2", "3"], ["1", "0", "1"], ["5", "1", "7"]),  # a negative lex-leading term
            (["1/2", "-3/4", "1"], ["5/6", "1", "0"], ["-1/3", "2", "1/4"]),  # fractions
            (["2", "3", "5"], ["7", "0", "11"], ["1", "13", "0"]),  # canonical already
        ],
        ids=["integer-content", "negative-lead", "fractions", "canonical"],
    )
    def test_map_decodes_to_the_canonical_map(self, coefs):
        from fractions import Fraction

        from planecubic import jsonio
        from planecubic.cremona import CremonaMap
        from planecubic.exact import HomPoly

        exps = ([2, 0, 0], [0, 1, 1], [0, 0, 2])
        comps = [{"vars": 3, "terms": [{"exp": e, "coef": c} for e, c in zip(exps, row)]}
                 for row in coefs]
        reference = CremonaMap([
            HomPoly(3, {tuple(t["exp"]): Fraction(t["coef"]) for t in comp["terms"]})
            for comp in comps
        ])
        got = jsonio.map_from_json({"components": comps})
        assert got == reference
        assert all(c.den == 1 for c in got.components)
        assert jsonio.map_from_json(jsonio.map_to_json(got)) == got

    def test_canonical_components_come_back_unchanged(self, translate_output):
        from planecubic import jsonio
        from planecubic.exact import content_normalize

        f = jsonio.map_from_json(translate_output)
        out = content_normalize(f.components)
        assert all(a is b for a, b in zip(out, f.components))


class TestRoundTrips:
    def test_trace_links_decode_to_their_fields(self):
        # every kind and every type II case tag, from real traces
        from planecubic import jsonio
        from planecubic.elliptic import CurvePoint, WeierstrassCurve, translation_map
        from planecubic.sarkisov import (
            FactorizationState,
            apply_link,
            factorize,
            plane_state,
        )
        from planecubic.surfaces import SurfaceModel

        curve = WeierstrassCurve(0, 1)
        links = list(factorize(translation_map(curve, CurvePoint.affine(2, 3)), curve).links)
        links += factorize(plane_state(2, [(1, True), (1, True), (1, False)])).links
        f0 = FactorizationState(SurfaceModel.hirzebruch(0), (3, 1), (), (2, 2))
        links.append(apply_link(f0, "IV")[0])
        assert {l.kind for l in links} == {"I", "II", "III", "IV"}
        assert {l.case_tag for l in links if l.kind == "II"} == {1, 3, "off-cubic"}
        for link in links:
            decoded = json.loads(json.dumps(jsonio.link_to_json(link)))
            assert decoded.pop("case", None) == link.case_tag
            assert decoded == {
                "kind": link.kind,
                "center": link.center,
                "vp": link.vp,
                "from": jsonio.model_to_json(link.from_model),
                "to": jsonio.model_to_json(link.to_model),
                "system": list(link.system_after),
            }

    def test_curve_point_round_trip(self):
        from planecubic import jsonio

        for obj in ("O", {"x": "-7/2", "y": "3"}):
            pt = jsonio.curve_point_from_json(obj)
            assert jsonio.curve_point_to_json(pt) == obj
