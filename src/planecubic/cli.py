"""Batch command-line interface: JSON in, JSON out, byte-identical for a fixed
input.  Exit codes: 0 success, 1 malformed input, 2 verification failure,
64 unknown command."""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass

from . import cremona, elliptic, jsonio, sarkisov, threefold
from .cremona import CremonaError
from .elliptic import EllipticError
from .exact import ExactError
from .jsonio import DecodeError
from .sarkisov import EngineError
from .surfaces import SurfaceError, canonical_class
from .threefold import ThreefoldError

EX_OK = 0
EX_MALFORMED = 1
EX_VERIFY = 2
EX_USAGE = 64

_INPUT_ERRORS = (
    DecodeError,
    ExactError,
    CremonaError,
    EllipticError,
    EngineError,
    SurfaceError,
    ThreefoldError,
    KeyError,
    TypeError,
    ValueError,
)


@dataclass
class Config:
    step_cap: int = 64

    def __post_init__(self):
        if jsonio._json_int(self.step_cap) < 1:
            raise ValueError("step_cap must be >= 1")


def _emit(obj, stream=None):
    print(json.dumps(obj, sort_keys=True), file=stream or sys.stdout)


# -- command handlers -----------------------------------------------------------


def cmd_curve_add(payload, cfg, out):
    curve = jsonio.curve_from_json(payload["curve"])
    P = jsonio.curve_point_from_json(payload["P"])
    Q = jsonio.curve_point_from_json(payload["Q"])
    result = elliptic.add(curve, P, Q)
    _emit({"result": jsonio.curve_point_to_json(result)}, out)
    return EX_OK


def cmd_translate(payload, cfg, out):
    curve = jsonio.curve_from_json(payload["curve"])
    P = jsonio.curve_point_from_json(payload["P"])
    f = elliptic.translation_map(curve, P)
    _emit(jsonio.map_to_json(f), out)
    return EX_OK


def cmd_compose(payload, cfg, out):
    f = jsonio.map_from_json(payload["f"])
    g = jsonio.map_from_json(payload["g"])
    h = cremona.compose(f, g)
    _emit(
        {
            "map": jsonio.map_to_json(h),
            "deg": h.degree,
            "deg_f": f.degree,
            "deg_g": g.degree,
        },
        out,
    )
    return EX_OK


def cmd_dec_check(payload, cfg, out):
    f = jsonio.map_from_json(payload["map"])
    samples = None
    if "curve" in payload:
        cubic = jsonio.curve_from_json(payload["curve"]).equation
    else:
        cubic = jsonio.poly_from_json(payload["cubic"])
        samples = [jsonio.proj_point_from_json(p) for p in payload.get("samples", [])] or None
    in_dec = cremona.is_in_dec(f, cubic, samples=samples)
    report = {"in_dec": in_dec}
    if in_dec:
        # the pullback is nonzero, of degree deg(cubic) deg(f), and the cubic divides it
        report["quotient_deg"] = cubic.degree * (f.degree - 1)
    _emit(report, out)
    return EX_OK


def cmd_base_forest(payload, cfg, out):
    f = jsonio.map_from_json(payload["map"])
    cubic = None
    if "curve" in payload:
        cubic = jsonio.curve_from_json(payload["curve"]).equation
    elif "cubic" in payload:
        cubic = jsonio.poly_from_json(payload["cubic"])
    hints = None
    if "hints" in payload:
        hints = [jsonio.proj_point_from_json(p) for p in payload["hints"]]
    forest = cremona.base_forest(f, cubic=cubic, hints=hints)
    t = cremona.homaloidal_type(f, forest)
    _emit({"forest": jsonio.forest_to_json(forest), "type": jsonio.type_to_json(t)}, out)
    return EX_OK


def cmd_noether(payload, cfg, out):
    t = jsonio.type_from_json(payload)
    ok = cremona.noether_check(t)
    report = {
        "ok": ok,
        "sum": sum(t.mults),
        "sum_expected": 3 * t.d - 3,
        "square_sum": sum(m * m for m in t.mults),
        "square_sum_expected": t.d * t.d - 1,
    }
    if ok:
        report["de_jonquieres"] = cremona.is_de_jonquieres(t)
    _emit(report, out)
    return EX_OK


def _run_factorize(payload, cfg):
    if "state" in payload:
        state = jsonio.state_from_json(payload["state"])
        trace = sarkisov.factorize(state, step_cap=cfg.step_cap)
        return trace, None, None
    f = jsonio.map_from_json(payload["map"])
    curve = jsonio.curve_from_json(payload["curve"])
    trace = sarkisov.factorize(f, curve, step_cap=cfg.step_cap)
    return trace, f, curve


def cmd_factorize(payload, cfg, out, trace_file=None):
    """Link lines go to stdout, or to --trace-file.  The file is opened before
    the engine runs, so a bad path fails first; an engine error leaves it
    empty."""
    if trace_file:
        try:
            with open(trace_file, "w") as fh:
                trace = _write_links(payload, cfg, fh)
        except OSError as e:
            raise ValueError(f"bad trace file: {e}") from e
    else:
        trace = _write_links(payload, cfg, out)
    _emit(
        {
            "all_vp": trace.all_vp,
            "links": len(trace.links),
            "final_system": list(trace.final.system),
            "lints": list(trace.lints),
        },
        out,
    )
    return EX_OK


def _write_links(payload, cfg, stream):
    trace, _f, _curve = _run_factorize(payload, cfg)
    for link in trace.links:
        _emit(jsonio.link_to_json(link), stream)
    return trace


def cmd_vp_verify(payload, cfg, out):
    from .surfaces import is_mf_cy_admissible

    trace, f, curve = _run_factorize(payload, cfg)
    in_dec = None
    if f is not None:
        in_dec = cremona.is_in_dec(f, curve.equation)
    neg_k = lambda m: tuple(-k for k in canonical_class(m))
    cy = all(s.cubic == neg_k(s.model) for s in trace.states)
    # the per-link discrepancy route against the boundary-class route
    routes = trace.all_vp == cy
    admissible = all(is_mf_cy_admissible(s.model) for s in trace.states)
    ok = trace.all_vp and cy and routes and admissible and in_dec is not False
    _emit(
        {
            "in_dec": in_dec,
            "all_vp": trace.all_vp,
            "cy_invariant": cy,
            "routes_agree": routes,
            "models_admissible": admissible,
            "links": len(trace.links),
            "ok": ok,
        },
        out,
    )
    return EX_OK if ok else EX_VERIFY


def cmd_jonquieres(payload, cfg, out):
    trace, _f, _curve = _run_factorize(payload, cfg)
    rep = sarkisov.jonquieres_centers(trace)
    _emit(
        {
            "centers": [{"center": c, "on_cubic": oc} for c, oc in rep.centers],
            "grouped": rep.grouped,
            "note": "grouping is the maximal I II* III block convention",
        },
        out,
    )
    return EX_OK


def cmd_threefold_check(payload, cfg, out):
    if payload.get("instance") == "desk":
        q = threefold.desk_instance()
    else:
        q = threefold.QuarticData.build(
            jsonio.poly_from_json(payload["A"]),
            jsonio.poly_from_json(payload["B"]),
            jsonio.poly_from_json(payload["C"]),
            validate=jsonio._json_bool(payload.get("validate", True)),
        )
    phi = threefold.build_involution(q)
    checks = {}
    checks["involution"] = threefold.is_involution(phi)
    checks["preserves_quartic"] = threefold.preserves_quartic(phi, q)
    # the pullback is nonzero, of degree 4 deg(phi), and D divides it
    checks["quotient_degree_8"] = checks["preserves_quartic"] and 4 * (phi.degree - 1) == 8
    try:
        lines = threefold.base_lines(q)
        checks["six_distinct_base_lines"] = True
        checks["bs_not_in_quartic"] = threefold.bs_not_in_quartic(lines, q)
    except ThreefoldError as e:
        checks["six_distinct_base_lines"] = False
        checks["bs_not_in_quartic"] = False
        checks["base_lines_error"] = str(e)
    checks["tangent_cone_rank_3"] = q.tangent_cone_rank_at_p() == 3
    ok = all(v is True for k, v in checks.items() if k != "base_lines_error")
    _emit({"checks": checks, "ok": ok}, out)
    return EX_OK if ok else EX_VERIFY


COMMANDS = {
    "curve-add": cmd_curve_add,
    "translate": cmd_translate,
    "compose": cmd_compose,
    "dec-check": cmd_dec_check,
    "base-forest": cmd_base_forest,
    "noether": cmd_noether,
    "factorize": cmd_factorize,
    "vp-verify": cmd_vp_verify,
    "jonquieres": cmd_jonquieres,
    "threefold-check": cmd_threefold_check,
}

_USAGE = """usage: planecubic <command> [--config PATH] [--in PATH] [--trace-file PATH]

commands:
  curve-add        group law on a Weierstrass cubic
  translate        the degree-4 translation map of a curve point
  compose          compose two plane Cremona maps
  dec-check        decomposition-group membership against a cubic
  base-forest      proper and infinitely near base points with multiplicities
  noether          check the equations of condition for a homaloidal type
  factorize        Sarkisov factorization trace (JSON lines)
  vp-verify        factorize and verify every volume-preserving assertion
  jonquieres       de Jonquieres centers of a factorization trace
  threefold-check  the quartic-with-A1-point involution report

input is JSON on stdin or --in PATH."""


@functools.cache
def _parser(command: str) -> argparse.ArgumentParser:
    """The flag parser of one command, built on its first use."""
    parser = argparse.ArgumentParser(prog=f"planecubic {command}", add_help=True)
    parser.add_argument("--config", default=None)
    parser.add_argument("--in", dest="input_path", default=None)
    parser.add_argument("--trace-file", default=None)
    return parser


def main(argv=None, stdin=None, stdout=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    stdin = stdin if stdin is not None else sys.stdin
    out = stdout if stdout is not None else sys.stdout
    if not argv:
        print(_USAGE, file=sys.stderr)
        return EX_USAGE
    if argv[0] in ("-h", "--help", "help"):
        print(_USAGE, file=out)
        return EX_OK
    command = argv[0]
    if command not in COMMANDS:
        print(f"unknown command: {command}", file=sys.stderr)
        print(_USAGE, file=sys.stderr)
        return EX_USAGE

    try:
        opts = _parser(command).parse_args(argv[1:])
    except SystemExit:
        return EX_USAGE

    try:
        cfg_data = {}
        if opts.config:
            with open(opts.config) as fh:
                cfg_data = json.load(fh)
        cfg = Config(**cfg_data)
    except (OSError, json.JSONDecodeError, TypeError, ValueError) as e:
        print(json.dumps({"error": f"bad config: {e}"}), file=sys.stderr)
        return EX_MALFORMED

    try:
        if opts.input_path:
            with open(opts.input_path) as fh:
                raw = fh.read()
        else:
            raw = stdin.read()
        payload = json.loads(raw) if raw.strip() else {}
    except (OSError, json.JSONDecodeError) as e:
        print(json.dumps({"error": f"bad input: {e}"}), file=sys.stderr)
        return EX_MALFORMED
    if not isinstance(payload, dict):
        print(json.dumps({"error": "bad input: expected a JSON object"}), file=sys.stderr)
        return EX_MALFORMED

    handler = COMMANDS[command]
    try:
        if command == "factorize":
            return handler(payload, cfg, out, trace_file=opts.trace_file)
        return handler(payload, cfg, out)
    except _INPUT_ERRORS as e:
        print(json.dumps({"error": f"{type(e).__name__}: {e}"}), file=sys.stderr)
        return EX_MALFORMED


if __name__ == "__main__":
    sys.exit(main())
