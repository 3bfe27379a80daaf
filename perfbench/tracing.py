"""The traced run: spans around the public functions of each planecubic
module, recorded from the benchmark's side only (``src/`` is not touched).

Wrapping replaces a function object at every module attribute that holds it,
found by identity, so a name bound with ``from .exact import substitute`` in
``cremona`` and ``threefold`` is wrapped there too.  Methods are wrapped on
their class.  Spans are kept in memory; self time (span time minus the time
of its child spans) and the per-layer metrics are derived when the run ends.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# (module, attribute or Class.method, span name)
SPANS = [
    ("cli", "main", "cli.main"),
    ("elliptic", "translation_map", "elliptic.translation_map"),
    ("exact", "poly_gcd", "exact.poly_gcd"),
    ("exact", "content_normalize", "exact.content_normalize"),
    ("exact", "substitute", "exact.substitute"),
    ("exact", "poly_divide", "exact.poly_divide"),
    ("exact", "common_zeros_plane", "exact.common_zeros_plane"),
    ("exact", "rational_roots", "exact.rational_roots"),
    ("exact", "AffinePoly.shift", "exact.AffinePoly.shift"),
    ("exact", "AffinePoly.substitute_two", "exact.AffinePoly.substitute_two"),
    ("cremona", "compose", "cremona.compose"),
    ("cremona", "base_forest", "cremona.base_forest"),
    ("cremona", "is_in_dec", "cremona.is_in_dec"),
    ("sarkisov", "factorize", "sarkisov.factorize"),
    ("threefold", "QuarticData.build", "threefold.build"),
    ("threefold", "build_involution", "threefold.build"),
    ("threefold", "is_involution", "threefold.is_involution"),
    ("threefold", "preserves_quartic", "threefold.preserves_quartic"),
    ("threefold", "base_lines", "threefold.base_lines"),
]
SPANS += [("jsonio", f, "jsonio.decode") for f in (
    "curve_from_json", "curve_point_from_json", "map_from_json", "poly_from_json",
    "proj_point_from_json", "state_from_json")]
SPANS += [("jsonio", f, "jsonio.encode") for f in (
    "curve_point_to_json", "map_to_json", "forest_to_json", "type_to_json", "link_to_json")]

# Counted, not timed: each call takes microseconds.
COUNTS = [("elliptic", "add", "elliptic.add")]
COUNTS += [("surfaces", f, "surfaces") for f in (
    "intersect", "canonical_class", "is_mf_cy_admissible", "blowup_vp", "blowdown_vp",
    "sarkisov_degree")]

TIMED = sorted({name for _, _, name in SPANS})

# Spans that must fire at least once on each workload, so that a binding the
# wrapper missed cannot read as zero.
_COMMON = {"cli.main", "jsonio.decode", "jsonio.encode", "exact.poly_gcd",
           "exact.content_normalize", "exact.substitute", "exact.poly_divide"}
_FOREST = {"cremona.base_forest", "exact.common_zeros_plane", "exact.rational_roots",
           "exact.AffinePoly.shift", "exact.AffinePoly.substitute_two", "cremona.is_in_dec",
           "sarkisov.factorize", "surfaces", "elliptic.add"}
EXPECTED = {
    "chain4": _COMMON | _FOREST | {"elliptic.translation_map"},
    "compose16": _COMMON | {"cremona.compose", "cremona.is_in_dec", "elliptic.add"},
    "composite10": _COMMON | _FOREST | {"cremona.compose"},
    "threefold": _COMMON | {"threefold.build", "threefold.is_involution",
                            "threefold.preserves_quartic", "threefold.base_lines",
                            "exact.common_zeros_plane"},
}


class _JsonProxy:
    """Stands in for the json module inside cli, with loads and dumps timed."""

    def __init__(self, module, loads, dumps):
        self._module = module
        self.loads = loads
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(self._module, name)


def _lead_degree(polys):
    return next((p.degree for p in polys if not p.is_zero), 0)


class Tracer:
    """Records spans and boundary counts while installed; item index -1 is
    the warm-up, which the metrics leave out."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index, item)
        self.stack = []
        self.counts = defaultdict(int)  # (item, counter) -> value
        self.item = -1
        self._forested = set()
        self._undo = []

    # -- items -----------------------------------------------------------------

    def begin_item(self, index):
        self.item = index
        self._forested = set()

    # -- boundary observations -------------------------------------------------

    def _count(self, name, n=1):
        self.counts[(self.item, name)] += n

    def _observe(self, name, args, kwargs, result):
        if name == "cli.main":
            self._count("jsonio.bytes_out", kwargs["stdout"].tell())
            if result != 0:
                self._count("cli.exit_nonzero")
        elif name == "exact.poly_gcd" and not result.degree:
            self._count("exact.poly_gcd.trivial")
        elif name == "exact.content_normalize":
            self._count("exact.gcd_deg_removed", _lead_degree(args[0]) - _lead_degree(result))
        elif name == "exact.substitute":
            self._count("exact.substitute.terms_out", len(result.terms))
        elif name == "exact.common_zeros_plane":
            self._count("exact.common_zeros_plane.points", len(result))
        elif name == "cremona.base_forest":
            self._count("cremona.base_forest.nodes", len(result))
            key = (args[0] if args else kwargs["f"]).components
            if key in self._forested:
                self._count("cremona.base_forest.repeat")
            self._forested.add(key)
        elif name == "sarkisov.factorize":
            self._count("sarkisov.links", len(result.links))

    def _span(self, name, fn):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter
        engine_error = self._engine_error

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except engine_error:
                if name == "sarkisov.factorize":
                    self._count("sarkisov.engine_errors")
                raise
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.item)
            self._observe(name, args, kwargs, result)
            return result

        return wrapper

    def _counter(self, name, fn):
        def wrapper(*args, **kwargs):
            self.counts[(self.item, name + ".calls")] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installing ------------------------------------------------------------

    def install(self, package):
        """Wrap every target at every planecubic module attribute bound to it."""
        modules = [m for n, m in sys.modules.items()
                   if n == package.__name__ or n.startswith(package.__name__ + ".")]
        self._engine_error = sys.modules[package.__name__ + ".sarkisov"].EngineError
        targets = [(m, a, n, self._span) for m, a, n in SPANS]
        targets += [(m, a, n, self._counter) for m, a, n in COUNTS]
        for mod_name, attr, name, make in targets:
            home = sys.modules[f"{package.__name__}.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(make(name, raw.__func__))
                else:
                    wrapped = make(name, raw)
                self._undo.append((cls, meth, raw))
                setattr(cls, meth, wrapped)
                continue
            original = getattr(home, attr)
            wrapped = make(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, value))
                        setattr(mod, key, wrapped)
        # JSON text in and out of the CLI: cli.json.loads and cli.json.dumps
        cli = sys.modules[package.__name__ + ".cli"]
        self._undo.append((cli, "json", cli.json))
        cli.json = _JsonProxy(cli.json, self._span("jsonio.decode", cli.json.loads),
                              self._span("jsonio.encode", cli.json.dumps))
        return self

    def uninstall(self):
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- results -----------------------------------------------------------------

    def fired(self):
        names = {s[0] for s in self.spans if s is not None}
        names |= {key[1][: -len(".calls")] for key, v in self.counts.items()
                  if key[1].endswith(".calls") and v}
        return names

    def self_times(self, scales):
        """{span name: [self time, calls]} summed over the timed items, the
        self time of item i's spans multiplied by scales[i]."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _item in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0.0, 0])
        for i, (name, start, end, _parent, item) in enumerate(self.spans):
            if 0 <= item < len(scales):
                acc = out[name]
                acc[0] += (end - start - child[i]) * scales[item]
                acc[1] += 1
        return out

    def total(self, name, items):
        return sum(v for (item, n), v in self.counts.items() if n == name and item in items)

    def metrics(self, scales):
        """Per-layer metrics, per timed item unless a ratio; scales[i] turns
        item i's wall seconds into reference seconds."""
        items = set(range(len(scales)))
        per = 1.0 / len(scales)
        st = self.self_times(scales)
        m = {}
        for name in TIMED:
            secs, calls = st.get(name, (0.0, 0))
            m[name + ".s"] = (secs * per, "s/item")
            m[name + ".calls"] = (calls * per, "calls/item")
        for name in ("elliptic.add", "surfaces"):
            m[name + ".calls"] = (self.total(name + ".calls", items) * per, "calls/item")
        for name, unit in (("cli.exit_nonzero", "count/item"), ("jsonio.bytes_out", "bytes/item"), ("exact.gcd_deg_removed", "deg/item"),
                           ("exact.substitute.terms_out", "terms/item"),
                           ("exact.common_zeros_plane.points", "points/item"),
                           ("cremona.base_forest.nodes", "nodes/item"),
                           ("sarkisov.links", "links/item"),
                           ("sarkisov.engine_errors", "count/item")):
            m[name] = (self.total(name, items) * per, unit)
        gcd_calls = st.get("exact.poly_gcd", (0, 0))[1]
        forests = st.get("cremona.base_forest", (0, 0))[1]
        m["exact.poly_gcd.trivial_frac"] = (
            self.total("exact.poly_gcd.trivial", items) / gcd_calls if gcd_calls else 0.0, "ratio")
        m["cremona.base_forest.repeat_frac"] = (
            self.total("cremona.base_forest.repeat", items) / forests if forests else 0.0, "ratio")
        return m

    def dump(self, path):
        """Write every span as one JSON line: name, start, end, parent, item."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent, item) in enumerate(self.spans):
                fh.write(json.dumps([i, name, start, end, parent, item]) + "\n")
