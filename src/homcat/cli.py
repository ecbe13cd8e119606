"""Command-line dispatch: every engine capability behind one executable.

Exit codes: 0 on success, 1 on domain errors (with the structured witness
on stdout), 2 on parse or schema errors.  All reports are emitted with
sorted keys and no timestamps, so identical invocations produce identical
bytes.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import algebra, fincat, homotopy, modelcat, setcalc, simplicial, subdivision
from .errors import DEFAULT_HORN_BUDGET, EngineError, SchemaError


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _load(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        raw = json.load(handle)
    if not isinstance(raw, dict):
        raise SchemaError(f"{path}: top level must be an object")
    version = raw.get("v")
    if version != 1:
        raise SchemaError(f"{path}: unsupported schema version {version!r}")
    return raw


def _abelianization_label(rank: int, torsion: tuple[int, ...]) -> str:
    parts = ["Z"] * rank + [f"Z/{d}" for d in torsion]
    return " x ".join(parts) if parts else "trivial"


# -- handlers -------------------------------------------------------------------


def cmd_check(args) -> int:
    cat = fincat.validate_category(_load(args.file))
    _emit(
        {
            "v": 1,
            "objects": len(cat.objects),
            "morphisms": len(cat.morphisms),
            "identities": len(cat.identity),
            "isomorphisms": sorted(
                m.name for m in cat.morphisms if cat.is_iso(m.name)
            ),
        }
    )
    return 0


def cmd_check_monoid(args) -> int:
    monoid = algebra.check_monoid(_load(args.file))
    report = {
        "v": 1,
        "elements": len(monoid.carrier.elements),
        "unit": monoid.unit,
    }
    try:
        report["inverses"] = algebra.check_group(monoid)
        report["group"] = True
    except EngineError as exc:
        report["group"] = False
        report["witness"] = exc.payload.get("witness")
    _emit(report)
    return 0


def cmd_check_action(args) -> int:
    action = algebra.check_action(_load(args.file))
    _emit(
        {
            "v": 1,
            "actor": len(action.actor.carrier.elements),
            "space": len(action.space.elements),
            "orbits": algebra.orbit(action),
        }
    )
    return 0


def cmd_limit(args) -> int:
    diagram = setcalc.diagram_from_json(_load(args.file))
    _emit(setcalc.cone_to_json(setcalc.limit(diagram)))
    return 0


def cmd_colimit(args) -> int:
    diagram = setcalc.diagram_from_json(_load(args.file))
    _emit(setcalc.cone_to_json(setcalc.colimit(diagram)))
    return 0


def cmd_end(args) -> int:
    h = setcalc.bifunctor_from_json(_load(args.file))
    _emit({"v": 1, "elements": list(setcalc.end(h).elements)})
    return 0


def cmd_coend(args) -> int:
    h = setcalc.bifunctor_from_json(_load(args.file))
    _emit({"v": 1, "elements": list(setcalc.coend(h).elements)})
    return 0


def _kan_inputs(args):
    diagram = setcalc.diagram_from_json(_load(args.diagram))
    functor = fincat.functor_from_json(_load(args.functor))
    if diagram.shape.objects != functor.source.objects:
        raise SchemaError("diagram shape and functor source do not match")
    return diagram, functor


def cmd_kan_left(args) -> int:
    diagram, functor = _kan_inputs(args)
    extended, unit = setcalc.lan(diagram, functor)
    payload = setcalc.diagram_to_json(extended)
    payload["unit"] = {
        y: dict(unit[y].mapping) for y in functor.source.objects
    }
    _emit(payload)
    return 0


def cmd_kan_right(args) -> int:
    diagram, functor = _kan_inputs(args)
    _emit(setcalc.diagram_to_json(setcalc.ran(diagram, functor)))
    return 0


def cmd_nerve(args) -> int:
    cat = fincat.validate_category(_load(args.file))
    _emit(simplicial.nerve(cat, args.max_dim).to_json_dict())
    return 0


def cmd_horns(args) -> int:
    x = simplicial.simplicial_from_json(_load(args.file))
    hc = simplicial.horn(args.n, args.k, max_dim=args.n)
    assignments = simplicial.enumerate_maps(hc, x, budget=args.budget)
    rows = []
    for assignment in assignments:
        fillers = simplicial.horn_fillers(x, args.n, args.k, assignment)
        rows.append(
            {
                "assignment": [
                    [dim, name, ref.serialize()]
                    for (dim, name), ref in sorted(assignment.cell_map.items())
                ],
                "fillers": [f.serialize() for f in fillers],
            }
        )
    _emit({"v": 1, "n": args.n, "k": args.k, "assignments": rows})
    return 0


def cmd_classify(args) -> int:
    x = simplicial.simplicial_from_json(_load(args.file))
    result = simplicial.classify(x, args.max_dim, budget=args.budget)
    _emit(
        {
            "v": 1,
            "verdict": result.verdict,
            "horns": [
                {
                    "n": r.n,
                    "k": r.k,
                    "assignments": r.total,
                    "unfilled": r.unfilled,
                    "witness": list(r.witness) if r.witness else None,
                }
                for r in result.reports
            ],
        }
    )
    return 0


def cmd_pi0(args) -> int:
    x = simplicial.simplicial_from_json(_load(args.file))
    _emit({"v": 1, "components": homotopy.pi0(x)})
    return 0


def cmd_pi1(args) -> int:
    x = simplicial.simplicial_from_json(_load(args.file))
    pres = homotopy.pi1(x, args.base)
    simplified = homotopy.tietze_simplify(pres, budget=args.budget)
    rank, torsion = homotopy.abelian_invariants(pres)
    sys.stdout.write(f"generators: {len(pres.generators)}\n")
    sys.stdout.write(f"relators: {len(pres.relators)}\n")
    sys.stdout.write(
        f"abelianization: {_abelianization_label(rank, torsion)}\n"
    )
    _emit(
        {
            "v": 1,
            "presentation": pres.to_json_dict(),
            "simplified": simplified.to_json_dict(),
            "abelianization": {"rank": rank, "torsion": list(torsion)},
        }
    )
    return 0


def cmd_svk(args) -> int:
    phi1 = homotopy.homspec_from_json(_load(args.phi1))
    phi2 = homotopy.homspec_from_json(_load(args.phi2))
    pushed = homotopy.svk_pushout(phi1, phi2)
    rank, torsion = homotopy.abelian_invariants(pushed)
    payload = pushed.to_json_dict()
    payload["abelianization"] = {"rank": rank, "torsion": list(torsion)}
    _emit(payload)
    return 0


def cmd_sd(args) -> int:
    x = simplicial.simplicial_from_json(_load(args.file))
    _emit(subdivision.sd(x).complex.to_json_dict())
    return 0


def cmd_ex(args) -> int:
    x = simplicial.simplicial_from_json(_load(args.file))
    result = subdivision.ex(x, budget=args.budget, allow_large=args.allow_large)
    _emit(result.complex.to_json_dict())
    return 0


def cmd_ex_iter(args) -> int:
    x = simplicial.simplicial_from_json(_load(args.file))
    final, stages = subdivision.ex_iter(
        x, args.k, budget=args.budget, allow_large=args.allow_large
    )
    _emit(
        {
            "v": 1,
            "stages": [
                {
                    "stage": s.stage,
                    "cells": list(s.counts),
                    "verdict": s.verdict,
                    "unfilled": s.unfilled,
                    "unfilled_inner": s.unfilled_inner,
                }
                for s in stages
            ],
            "final": final.to_json_dict(),
        }
    )
    return 0


def cmd_localize(args) -> int:
    cat = fincat.validate_category(_load(args.file))
    seed = [w for w in (args.weq.split(",") if args.weq else []) if w]
    marked = modelcat.saturate_two_of_three(cat, seed)
    result = modelcat.localize(marked, cap=args.cap)
    _emit(
        {
            "v": 1,
            "category": result.category.to_json_dict(),
            "projection": {
                "objects": dict(result.projection.object_map),
                "morphisms": dict(result.projection.morphism_map),
            },
            "marked": sorted(marked.weq),
        }
    )
    return 0


def cmd_model_check(args) -> int:
    model = modelcat.model_from_json(_load(args.file))
    report = modelcat.check_model(model)
    _emit(
        {
            "v": 1,
            "passed": report.passed,
            "functoriality_checked": report.functoriality_checked,
            "axioms": [
                {
                    "axiom": a.axiom,
                    "passed": a.passed,
                    "witnesses": a.witnesses,
                }
                for a in report.axioms
            ],
        }
    )
    return 0


def cmd_orbit(args) -> int:
    action = algebra.check_action(_load(args.file))
    _emit({"v": 1, "orbits": algebra.orbit(action)})
    return 0


def cmd_eckmann_hilton(args) -> int:
    reports = algebra.eckmann_hilton_scan(args.max_size)
    _emit(
        {
            "v": 1,
            "sizes": [
                {
                    "size": r.size,
                    "pairs_checked": r.pairs_checked,
                    "interchange_pairs": r.interchange_pairs,
                    "counterexamples": r.counterexamples,
                }
                for r in reports
            ],
        }
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--budget", type=int, default=DEFAULT_HORN_BUDGET,
                        help="search budget for enumerations; for pi1, "
                             "the Tietze move budget")
    common.add_argument("--max-dim", type=int, default=3, dest="max_dim",
                        help="dimension bound for simplicial operations")
    parser = argparse.ArgumentParser(
        prog="homcat",
        description="finite category theory and simplicial homotopy engine",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name, handler, **files):
        p = sub.add_parser(name, parents=[common])
        for arg, help_text in files.items():
            p.add_argument(arg, help=help_text)
        p.set_defaults(handler=handler)
        return p

    add("check", cmd_check, file="category file")
    add("check-monoid", cmd_check_monoid, file="monoid file")
    add("check-action", cmd_check_action, file="action file")
    add("limit", cmd_limit, file="diagram file")
    add("colimit", cmd_colimit, file="diagram file")
    add("end", cmd_end, file="bifunctor file")
    add("coend", cmd_coend, file="bifunctor file")
    kan_l = add("kan-left", cmd_kan_left, diagram="diagram file")
    kan_l.add_argument("functor", help="functor file")
    kan_r = add("kan-right", cmd_kan_right, diagram="diagram file")
    kan_r.add_argument("functor", help="functor file")
    add("nerve", cmd_nerve, file="category file")
    horns = add("horns", cmd_horns, file="simplicial set file")
    horns.add_argument("-n", type=int, required=True, help="horn dimension")
    horns.add_argument("-k", type=int, required=True, help="missing face")
    add("classify", cmd_classify, file="simplicial set file")
    add("pi0", cmd_pi0, file="simplicial set file")
    pi1 = add("pi1", cmd_pi1, file="simplicial set file")
    pi1.add_argument("--base", required=True, help="base 0-cell")
    svk = add("svk", cmd_svk, phi1="first leg homomorphism file")
    svk.add_argument("phi2", help="second leg homomorphism file")
    add("sd", cmd_sd, file="simplicial set file")
    ex_p = add("ex", cmd_ex, file="simplicial set file")
    ex_p.add_argument("--allow-large", action="store_true", dest="allow_large")
    exi = add("ex-iter", cmd_ex_iter, file="simplicial set file")
    exi.add_argument("-k", type=int, required=True, help="iterations")
    exi.add_argument("--allow-large", action="store_true", dest="allow_large")
    loc = add("localize", cmd_localize, file="category file")
    loc.add_argument("--weq", default="", help="comma-separated marked morphisms")
    loc.add_argument("--cap", type=int, default=20000)
    add("model-check", cmd_model_check, file="model file")
    add("orbit", cmd_orbit, file="action file")
    eh = sub.add_parser("eckmann-hilton", parents=[common])
    eh.add_argument("--max-size", type=int, default=3, dest="max_size")
    eh.set_defaults(handler=cmd_eckmann_hilton)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and reused: parsing leaves no
    state on it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except SchemaError as exc:
        _emit(exc.report())
        return 2
    except (json.JSONDecodeError, OSError) as exc:
        _emit({"error": type(exc).__name__, "message": str(exc)})
        return 2
    except EngineError as exc:
        _emit(exc.report())
        return 1


if __name__ == "__main__":
    sys.exit(main())
