"""Layer tracing from outside the package, and the bit-primitive probe.

`Tracer.installed()` rebinds the public entry points listed in SPANS and
GENERATORS in every thetatopo module that holds them (`from .maps import
classify_map` copies the name, so each alias is replaced), and restores the
originals on exit. Calls become spans (name, start, end, parent) kept in
flat arrays; generators are timed while they run between yields, so a
layer's self time is its wall time minus the time its wrapped children and
generators cover. Nothing inside the package changes.

The bit primitives run millions of times per workload, so wrapping them
would measure the wrapper. `micro_probe` times fixed batches of direct calls
instead.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

from thetatopo import bitset, generate, maps, space

# The package exports a function named hedgehog, which hides the submodule.
hedgehog = importlib.import_module("thetatopo.hedgehog")

SPANS = (
    ("regularity", "property_verdicts"),
    ("regularity", "sw_witness_search"),
    ("maps", "classify_map"),
    ("decomposition", "theta_decomposition"),
    ("decomposition", "open_decomposition"),
    ("decomposition", "weak_homeo_witness"),
    ("survey", "find_space"),
    ("survey", "verify_diagram"),
    ("hedgehog", "certify_hedgehog_profile"),
    ("hedgehog", "embed_hedgehog"),
    ("hedgehog", "verify_embedding"),
)
GENERATORS = (("generate", "labeled_rows"), ("generate", "homeo_rows"))
ORACLE_CLASSES = (hedgehog.HedgehogOracle, hedgehog.SumOracle, hedgehog.PermutedOracle)
ORACLE_METHODS = (
    "validate",
    "nbhd_base",
    "contains",
    "closure_contains",
    "separate",
    "pick_in_closure_minus",
    "approach_within",
)

CLASSIFY = "maps.classify_map"
SW = "regularity.sw_witness_search"
DIAGRAM = "survey.verify_diagram"

_now = time.perf_counter_ns


def _package_modules():
    return [m for k, m in sys.modules.items() if k == "thetatopo" or k.startswith("thetatopo.")]


def _rebind(old, new) -> None:
    for mod in _package_modules():
        for key in [k for k, v in vars(mod).items() if v is old]:
            setattr(mod, key, new)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # One entry per span: name id, start ns, end ns, parent span (-1: none).
        self.s_name = array("i")
        self.s_start = array("q")
        self.s_end = array("q")
        self.s_parent = array("i")
        self.cur = -1
        # Open frames; each holds the ns its wrapped children covered so far.
        self.stack: list[list[int]] = []
        # name -> [calls, total ns, self ns, items yielded]
        self.stats: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0, 0])
        # (parent span name, child name) -> [calls, total ns]
        self.child: dict[tuple[str, str], list[int]] = defaultdict(lambda: [0, 0])
        self.classify_keys: set = set()
        # Keys and count of the classify_map calls not made by the sw search.
        self.outside_sw_keys: set = set()
        self.outside_sw_calls = 0
        self.transfer_bijections = 0
        self.oracle_queries = 0
        self._oracle_depth = 0

    def _id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def _close(self, name: str, frame: list[int], d: int, calls: int = 1, items: int = 0) -> None:
        st = self.stats[name]
        st[0] += calls
        st[1] += d
        st[2] += d - frame[0]
        st[3] += items
        if self.stack:
            self.stack[-1][0] += d

    def call(self, name: str, fn, *args, **kw):
        """Run fn as a span named name, child of the innermost open span."""
        sid = len(self.s_name)
        parent = self.cur
        self.s_name.append(self._id(name))
        self.s_parent.append(parent)
        self.s_start.append(0)
        self.s_end.append(0)
        frame = [0]
        self.stack.append(frame)
        self.cur = sid
        t0 = _now()
        try:
            return fn(*args, **kw)
        finally:
            t1 = _now()
            self.stack.pop()
            self.cur = parent
            self.s_start[sid] = t0
            self.s_end[sid] = t1
            self._close(name, frame, t1 - t0)
            c = self.child[(self.names[self.s_name[parent]] if parent >= 0 else "", name)]
            c[0] += 1
            c[1] += t1 - t0

    def _span_wrapper(self, name: str, fn):
        def traced(*args, **kw):
            return self.call(name, fn, *args, **kw)

        return traced

    def _classify_wrapper(self, fn):
        def traced(f, *args, **kw):
            # The memo key a classification cache would use; computing it is
            # tracing cost, so it is hidden from the caller's self time.
            t0 = _now()
            key = (f.domain.nbhd, maps.ok_masks(f))
            self.classify_keys.add(key)
            if self.cur < 0 or self.names[self.s_name[self.cur]] != SW:
                self.outside_sw_keys.add(key)
                self.outside_sw_calls += 1
            if self.stack:
                self.stack[-1][0] += _now() - t0
            return self.call(CLASSIFY, fn, f, *args, **kw)

        return traced

    def _diagram_wrapper(self, fn):
        def traced(*args, **kw):
            report = self.call(DIAGRAM, fn, *args, **kw)
            self.transfer_bijections += report.transfer_scanned
            return report

        return traced

    def _generator_wrapper(self, name: str, fn):
        def traced(*args, **kw):
            return self._timed_iter(name, fn(*args, **kw))

        return traced

    def _timed_iter(self, name: str, it):
        self.stats[name][0] += 1
        while True:
            frame = [0]
            self.stack.append(frame)
            got = False
            t0 = _now()
            try:
                item = next(it)
                got = True
            except StopIteration:
                pass
            finally:
                t1 = _now()
                self.stack.pop()
                self._close(name, frame, t1 - t0, calls=0, items=got)
            if not got:
                return
            yield item

    def _oracle_wrapper(self, fn):
        def counted(*args, **kw):
            if self._oracle_depth == 0:
                self.oracle_queries += 1
            self._oracle_depth += 1
            try:
                return fn(*args, **kw)
            finally:
                self._oracle_depth -= 1

        return counted

    @contextmanager
    def installed(self):
        """Rebind the traced entry points for the duration of the block."""
        swapped = []
        for mod, fname in SPANS + GENERATORS:
            orig = getattr(importlib.import_module(f"thetatopo.{mod}"), fname)
            name = f"{mod}.{fname}"
            if name == CLASSIFY:
                new = self._classify_wrapper(orig)
            elif name == DIAGRAM:
                new = self._diagram_wrapper(orig)
            elif (mod, fname) in GENERATORS:
                new = self._generator_wrapper(name, orig)
            else:
                new = self._span_wrapper(name, orig)
            swapped.append((orig, new))
        methods = [
            (cls, m, cls.__dict__[m]) for cls in ORACLE_CLASSES for m in ORACLE_METHODS if m in cls.__dict__
        ]
        for orig, new in swapped:
            _rebind(orig, new)
        for cls, m, orig in methods:
            setattr(cls, m, self._oracle_wrapper(orig))
        try:
            yield self
        finally:
            for orig, new in swapped:
                _rebind(new, orig)
            for cls, m, orig in methods:
                setattr(cls, m, orig)

    def layer_metrics(self) -> dict[str, float]:
        st = self.stats

        def secs(name: str) -> float:
            return st[name][1] / 1e9 if name in st else 0.0

        def count(name: str, field: int = 0) -> int:
            return st[name][field] if name in st else 0

        calls = count(CLASSIFY)
        sw_maps = self.child.get((SW, CLASSIFY), [0, 0])[0]
        transfer = self.child.get((DIAGRAM, CLASSIFY), [0, 0])
        pv_in_diagram = self.child.get((DIAGRAM, "regularity.property_verdicts"), [0, 0])[1]
        sw_in_diagram = self.child.get((DIAGRAM, SW), [0, 0])[1]
        root_ns = sum(v[1] for (parent, _), v in self.child.items() if parent == "")
        return {
            "regularity.property_verdicts.calls": count("regularity.property_verdicts"),
            "regularity.property_verdicts.s": secs("regularity.property_verdicts"),
            "regularity.sw_witness_search.calls": count(SW),
            "regularity.sw_witness_search.self_s": count(SW, 2) / 1e9,
            "regularity.sw_witness_search.maps_tried": sw_maps,
            "maps.classify_map.calls": calls,
            "maps.classify_map.s": secs(CLASSIFY),
            "maps.classify_map.distinct_key_ratio": len(self.classify_keys) / calls if calls else 0.0,
            "maps.classify_map.outside_sw.distinct_key_ratio": (
                len(self.outside_sw_keys) / self.outside_sw_calls if self.outside_sw_calls else 0.0
            ),
            "decomposition.theta_decomposition.s": secs("decomposition.theta_decomposition"),
            "decomposition.open_decomposition.s": secs("decomposition.open_decomposition"),
            "decomposition.weak_homeo_witness.s": secs("decomposition.weak_homeo_witness"),
            "generate.labeled_rows.rows": count("generate.labeled_rows", 3),
            "generate.labeled_rows.s": secs("generate.labeled_rows"),
            "generate.homeo_rows.classes": count("generate.homeo_rows", 3),
            "generate.homeo_rows.s": secs("generate.homeo_rows"),
            "survey.find_space.s": secs("survey.find_space"),
            "survey.verify_diagram.transfer_bijections": self.transfer_bijections,
            "survey.verify_diagram.transfer_classify_s": transfer[1] / 1e9,
            "survey.verify_diagram.covered_share": (
                (pv_in_diagram + sw_in_diagram + transfer[1]) / root_ns if root_ns else 0.0
            ),
            "hedgehog.certify_hedgehog_profile.s": secs("hedgehog.certify_hedgehog_profile"),
            "hedgehog.embed_hedgehog.s": secs("hedgehog.embed_hedgehog"),
            "hedgehog.verify_embedding.s": secs("hedgehog.verify_embedding"),
            "hedgehog.oracle_queries": self.oracle_queries,
            "trace.spans": len(self.s_name),
        }

    def write(self, path: Path) -> None:
        """A JSON header line with the name table, then one line
        `name start_ns end_ns parent` per span (parent -1: a root span)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            out.write(json.dumps({"names": self.names, "fields": ["name", "start_ns", "end_ns", "parent"]}))
            out.write("\n")
            for row in zip(self.s_name, self.s_start, self.s_end, self.s_parent):
                out.write("%d %d %d %d\n" % row)


# ---------------------------------------------------------------------------
# Bit-primitive probe.
# ---------------------------------------------------------------------------


def _median_batch_ns(batch, repeats: int) -> int:
    times = []
    for _ in range(repeats):
        t0 = _now()
        batch()
        times.append(_now() - t0)
    return statistics.median(times)


def micro_probe(repeats: int = 5, points: int = 4) -> dict[str, float]:
    """ns per call of the mask operators over every (space, s, within) on
    the labeled spaces with `points` points, and ns per bit of bitset.bits
    over every mask on 12 bits."""
    spaces = [generate.space_from_rows(rows) for rows in generate.labeled_rows(points)]
    masks = range(1 << points)
    calls = len(spaces) * len(masks) * len(masks)
    out = {}
    for fname in ("closure_mask", "interior_mask", "theta_interior_mask"):
        fn = getattr(space, fname)

        def batch(fn=fn):
            for sp in spaces:
                for w in masks:
                    for s in masks:
                        fn(sp, s, w)

        out[f"space.{fname}.ns_per_call"] = _median_batch_ns(batch, repeats) / calls
    bits = bitset.bits
    words = range(1 << 12)
    nbits = 12 << 11

    def bit_batch():
        for m in words:
            for _ in bits(m):
                pass

    out["bitset.bits.ns_per_bit"] = _median_batch_ns(bit_batch, 4 * repeats) / nbits
    return out
