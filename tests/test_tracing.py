"""The benchmark's traced run finds homcat's entry points by name; a rename
in homcat must not break ``perfbench/run.py --trace 1``."""

from __future__ import annotations

import importlib.util
import pathlib
import sys

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def load(name: str):
    """A perfbench module, loaded by file path as it stands."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_installs_and_spans_union_find(monkeypatch):
    # the tracer rebinds module attributes, so it gets a fresh import of
    # homcat; the suite's own modules come back when the test ends
    for name in [m for m in sys.modules if m == "homcat" or m.startswith("homcat.")]:
        monkeypatch.delitem(sys.modules, name)
    hc = load("run").import_homcat()
    tracer = load("tracing").Tracer()
    tracer.install(hc)

    def union_find_spans() -> int:
        return sum(span[0] == "unionfind" for span in tracer.spans)

    diagram = hc.setcalc.diagram_from_json(
        {
            "v": 1,
            "shape": {
                "objects": ["S", "T"],
                "morphisms": [
                    {"name": "a", "src": "S", "dst": "T"},
                    {"name": "b", "src": "S", "dst": "T"},
                ],
                "compose": [],
            },
            "sets": {"S": ["x", "y"], "T": ["0", "1", "2"]},
            "functions": {"a": {"x": "0", "y": "1"}, "b": {"x": "1", "y": "1"}},
        }
    )
    assert len(hc.setcalc.colimit(diagram).apex) == 2
    after_colimit = union_find_spans()
    assert after_colimit > 0
    # sd builds no union-find; π₀ still quotients the vertices
    hc.homotopy.pi0(hc.simplicial.horn(2, 1))
    assert union_find_spans() > after_colimit
    assert tracer.metrics()["unionfind.elements"] > 0
