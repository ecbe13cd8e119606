"""Traced run: spans and counters at homcat's layer boundaries.

The wrappers are installed from here, around public entry points of the
freshly imported homcat modules; homcat itself is not changed.  Each span
records its name, start, end and parent, and stays in memory until the
run ends.  Hot calls (word normalization, faces, map signatures and
composites, hom lookups) are only counted, not spanned.  A layer's self
time is its spans' duration minus the time covered by their child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# (metric, module, attribute path) for each spanned entry point
SPANNED = [
    ("simplicial.enumerate_maps", "simplicial", "enumerate_maps"),
    ("simplicial.classify", "simplicial", "classify"),
    ("subdivision.ex", "subdivision", "ex"),
    ("subdivision.sd", "subdivision", "sd"),
    ("subdivision.verify", "subdivision", "LevelwiseSSet.verify"),
    ("subdivision.to_presentation", "subdivision", "LevelwiseSSet.to_presentation"),
    ("unionfind", "setcalc", "_quotient"),
    ("unionfind", "subdivision", "_union_find"),
    ("homotopy.smith_normal_form", "homotopy", "smith_normal_form"),
    ("homotopy.tietze_simplify", "homotopy", "tietze_simplify"),
    ("homotopy.pi1", "homotopy", "pi1"),
    ("fincat.validate", "fincat", "FinCategory.validate"),
    ("setcalc.limit", "setcalc", "limit"),
    ("setcalc.colimit", "setcalc", "colimit"),
    ("setcalc.kan", "setcalc", "lan"),
    ("setcalc.kan", "setcalc", "ran"),
    ("modelcat.localize", "modelcat", "localize"),
    ("modelcat.check_model", "modelcat", "check_model"),
    ("algebra.eckmann_hilton_scan", "algebra", "eckmann_hilton_scan"),
    ("cli.load", "cli", "_load"),
    ("cli.emit", "cli", "_emit"),
]

COUNTED = [
    ("simplicial.normalize_word.calls", "simplicial", "normalize_word"),
    ("simplicial.face.calls", "simplicial", "SimplicialSet.face"),
    ("simplicial.signature.calls", "simplicial", "SimplicialMap.signature"),
    ("simplicial.then.calls", "simplicial", "SimplicialMap.then"),
    ("fincat.hom.calls", "fincat", "FinCategory.hom"),
]

SELF_TIMES = sorted({name for name, _, _ in SPANNED} | {"cli.parse"})

METRICS = (
    [name for name, _, _ in COUNTED]
    + [f"{name}.self_s" for name in SELF_TIMES]
    + [
        "simplicial.enumerate_maps.maps",
        "simplicial.classify.assignments",
        "subdivision.cells_out",
        "unionfind.elements",
        "unionfind.merge_ratio",
        "homotopy.smith_normal_form.entries",
        "cli.emit.bytes",
    ]
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    def spanned(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(index)
            if after is not None:
                after(args, out)
            return out
        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installation --------------------------------------------------------

    def install(self, hc) -> None:
        modules = vars(hc)
        after = {
            "enumerate_maps": self._maps_found,
            "classify": self._assignments,
            "ex": self._cells_out,
            "sd": self._cells_out,
            "smith_normal_form": self._entries,
        }
        for metric, module, path in SPANNED:
            attr = path.split(".")[-1]
            if metric == "unionfind":
                wrap = self._union_find_wrapper
            elif metric == "cli.emit":
                wrap = self._emit_wrapper
            else:
                wrap = functools.partial(self.spanned, metric, after=after.get(attr))
            _replace(modules, module, path, wrap)
        for metric, module, path in COUNTED:
            _replace(modules, module, path, lambda fn, m=metric: self.counted(m, fn))
        build = self.spanned("cli.parse", hc.cli.build_parser)

        def build_parser():
            parser = build()
            parser.parse_args = self.spanned("cli.parse", parser.parse_args)
            return parser

        hc.cli.build_parser = build_parser

    def _maps_found(self, args, out):
        self.counts["simplicial.enumerate_maps.maps"] += len(out)

    def _assignments(self, args, out):
        self.counts["simplicial.classify.assignments"] += sum(r.total for r in out.reports)

    def _cells_out(self, args, out):
        self.counts["subdivision.cells_out"] += sum(out.complex.counts())

    def _entries(self, args, out):
        matrix = args[0]
        self.counts["homotopy.smith_normal_form.entries"] += len(matrix) * (
            len(matrix[0]) if matrix else 0)

    def _union_find_wrapper(self, fn):
        def union_find(elements, pairs):
            pairs = list(pairs)
            index = self.open("unionfind")
            try:
                out = fn(elements, pairs)
            finally:
                self.close(index)
            # every merge joins two classes, so merges = elements - classes
            self.counts["unionfind.elements"] += len(elements)
            self.counts["unionfind.pairs"] += len(pairs)
            self.counts["unionfind.merges"] += len(elements) - len(set(out.values()))
            return out
        return union_find

    def _emit_wrapper(self, fn):
        def emit(payload):
            index = self.open("cli.emit")
            try:
                before = sys.stdout.tell()
                fn(payload)
                self.counts["cli.emit.bytes"] += sys.stdout.tell() - before
            finally:
                self.close(index)
        return emit

    # -- results -------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _), child in zip(self.spans, covered):
            out[name] += end - start - child
        return out

    def metrics(self) -> dict[str, float]:
        own = self.self_times()
        values = {name: self.counts.get(name, 0) for name in METRICS}
        for name in SELF_TIMES:
            values[f"{name}.self_s"] = own.get(name, 0.0)
        pairs = self.counts.get("unionfind.pairs", 0)
        values["unionfind.merge_ratio"] = self.counts["unionfind.merges"] / pairs if pairs else 0.0
        return values

    def write(self, stem: str) -> None:
        with open(stem + ".spans.jsonl", "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
        with open(stem + ".counters.json", "w", encoding="utf-8") as handle:
            json.dump(dict(self.counts), handle, indent=1, sort_keys=True)


def _replace(modules, module, path, wrap) -> None:
    """Wrap ``module.path`` and rebind every homcat module attribute that
    held the original, so calls through ``from ... import`` names are seen."""
    owner = modules[module]
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    original = getattr(owner, parts[-1])
    wrapped = wrap(original)
    setattr(owner, parts[-1], wrapped)
    if len(parts) == 1:
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)
