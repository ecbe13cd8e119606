"""The three workloads: seeded inputs, the timed calls into homcat, and
the independent check of every answer.

A workload's ``setup(seed, hc, workdir)`` builds its inputs, warms
homcat's module caches and returns one round of :class:`Job` objects.
``hc`` holds freshly imported homcat modules; jobs look functions up on
those modules at call time, so the traced run's wrappers see every call.
"""

from __future__ import annotations

import io
import itertools
import json
import os
import random
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable

import inputs
import oracle

# Ex² enumerates far more candidates than homcat's default budget of 10^6.
EX_BUDGET = 10**8
BZ3_BETWEEN_STACKS = 4
# Smith normal form in homcat costs about rows² · columns; above this many
# relators (sd² of the torus: 755, taking ~19 s) it would bury the sd
# gluing that sd-surfaces is meant to measure.
ABELIAN_MAX_RELATORS = 250


@dataclass
class Job:
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], bool]
    render: Callable[[Any], bytes]
    expected_failure: bool = False

    def timed(self) -> tuple[float, Any]:
        start = time.perf_counter()
        out = self.call()
        return time.perf_counter() - start, out


def _plain_json(raw: dict) -> tuple[dict, dict]:
    """Cells per dimension and face strings of a simplicial set payload."""
    return {int(n): names for n, names in raw["cells"].items()}, raw["faces"]


def _plain(x) -> tuple[dict, dict]:
    return _plain_json(x.to_json_dict())


def _complex_json(x) -> bytes:
    return json.dumps(x.to_json_dict(), sort_keys=True).encode()


def _invariants(cells, faces):
    return len(oracle.components(cells, faces)), oracle.h1(cells, faces)


# -- ex-tower --------------------------------------------------------------------


def _ex_stages_ok(stages, h1_expected) -> bool:
    """Ex keeps the 0-cells, π₀ and H₁ at every stage."""
    first_cells, first_faces = stages[0]
    components = len(oracle.components(first_cells, first_faces))
    if oracle.h1(first_cells, first_faces) != h1_expected:
        return False
    for cells, faces in stages[1:]:
        if len(cells[0]) != len(first_cells[0]):
            return False
        if _invariants(cells, faces) != (components, h1_expected):
            return False
    return True


def _verdict(unfilled: int, unfilled_inner: int) -> str:
    """The verdict that unfilled horn counts imply."""
    return "kan" if unfilled == 0 else ("quasi" if unfilled_inner == 0 else "neither")


def ex_tower(seed: int, hc, workdir: str) -> list[Job]:
    rng = random.Random(seed)
    simp, sub, fincat = hc.simplicial, hc.subdivision, hc.fincat
    load = simp.simplicial_from_json
    horn = load(inputs.inner_horn(rng))
    circle = load(inputs.circle(rng))
    interval = load(inputs.interval(rng))
    bz3 = simp.nerve(fincat.validate_category(inputs.cyclic_group(rng, 3)), 2)
    sub.ex(simp.standard_simplex(0, 2))  # fills the sd(Δⁿ) and coface caches

    def ex_twice(x):
        first = hc.subdivision.ex(x, budget=EX_BUDGET).complex
        return x, first, hc.subdivision.ex(first, budget=EX_BUDGET).complex

    def check_twice(h1_expected):
        return lambda out: _ex_stages_ok([_plain(x) for x in out], h1_expected)

    def ex_classify():
        e = hc.subdivision.ex(bz3, budget=EX_BUDGET).complex
        return e, hc.simplicial.classify(e, 2, budget=EX_BUDGET)

    def check_bz3(out):
        e, result = out
        # BZ/3 is Kan and Ex preserves Kan complexes (Kan, 1957)
        return (
            _ex_stages_ok([_plain(bz3), _plain(e)], (0, (3,)))
            and result.verdict == "kan"
        )

    def iterate():
        return hc.subdivision.ex_iter(horn, 2, budget=EX_BUDGET)

    def check_iterate(out):
        final, stages = out
        if stages[0].counts != horn.counts() or stages[-1].counts != final.counts():
            return False
        # Λ²₁ itself misses the filler of its own inner horn
        if stages[0].verdict != "neither" or any(
                s.verdict != _verdict(s.unfilled, s.unfilled_inner) for s in stages):
            return False
        return _ex_stages_ok([_plain(horn), _plain(final)], (0, ()))

    def render_stages(out):
        final, stages = out
        rows = [[s.stage, list(s.counts), s.verdict, s.unfilled, s.unfilled_inner] for s in stages]
        return json.dumps(rows).encode() + _complex_json(final)

    bz3_job = Job("ex-classify-bz3", ex_classify, check_bz3,
                  lambda out: _complex_json(out[0]) + out[1].verdict.encode())
    stacks = [
        Job("ex2-interval", lambda: ex_twice(interval), check_twice((0, ())),
            lambda out: _complex_json(out[2])),
        Job("ex2-circle", lambda: ex_twice(circle), check_twice((1, ())),
            lambda out: _complex_json(out[2])),
        Job("ex-iter-horn", iterate, check_iterate, render_stages),
    ]
    # The three Ex² stacks take nearly all the time.  Short Ex(BZ/3)
    # queries run between them, so the median job is sampled all through
    # the round instead of resting on one or two stacks.
    jobs = []
    for stack in stacks:
        jobs += [bz3_job] * BZ3_BETWEEN_STACKS + [stack]
    return jobs


# -- sd-surfaces -----------------------------------------------------------------


def sd_surfaces(seed: int, hc, workdir: str) -> list[Job]:
    """One job a round: sd and sd² of each of the three surfaces, each with
    its invariants.  A job per surface or per level put the median among a
    few samples between two job sizes, where it jumped with noise."""
    rng = random.Random(seed)
    simp, sub = hc.simplicial, hc.subdivision
    sub.sd(simp.standard_simplex(0, 2))  # fills the sd(Δⁿ) and coface caches
    surfaces = [(simp.simplicial_from_json(payload), chi, homology)
                for _, payload, chi, homology in inputs.surfaces(rng)]

    def subdivide():
        h = hc.homotopy
        out = []
        for x, _, _ in surfaces:
            previous = x
            for _ in range(2):
                y = hc.subdivision.sd(previous).complex
                pres = h.pi1(y, y.cells[0][0])
                abelian = (h.abelian_invariants(pres)
                           if len(pres.relators) <= ABELIAN_MAX_RELATORS else None)
                out.append((previous, y, h.pi0(y), abelian, h.tietze_simplify(pres)))
                previous = y
        return out

    expected = [(chi, homology) for _, chi, homology in surfaces for _ in range(2)]

    def check(out):
        for (previous, y, blocks, abelian, simplified), (chi, homology) in zip(out, expected):
            cells, faces = _plain(y)
            tidy = simplified.to_json_dict()
            if not (
                oracle.euler_characteristic(cells) == chi
                # the vertices of sd(X) are the nondegenerate cells of X
                and len(cells[0]) == sum(len(c) for c in previous.cells.values())
                and len(blocks) == 1 and sorted(blocks[0]) == sorted(cells[0])
                and _invariants(cells, faces) == (1, homology)
                and abelian in (None, homology)
                and oracle.relator_cokernel(tidy["gens"], tidy["rels"]) == homology
            ):
                return False
        return len(out) == len(expected)

    def render(out):
        return b"".join(
            _complex_json(y) + json.dumps(
                [blocks, abelian and list(abelian), simplified.to_json_dict()]).encode()
            for _, y, blocks, abelian, simplified in out
        )

    return [Job("sd-surfaces", subdivide, check, render)]


# -- cli-verbs -------------------------------------------------------------------


class CliJob(Job):
    """A CLI verb called in-process; stdout is captured outside the timing."""

    def timed(self) -> tuple[float, Any]:
        buf = io.StringIO()
        saved, sys.stdout = sys.stdout, buf
        try:
            start = time.perf_counter()
            code = self.call()
            elapsed = time.perf_counter() - start
        finally:
            sys.stdout = saved
        return elapsed, (code, buf.getvalue())


def _cli_job(hc, kind, argv, check, expected_failure=False) -> Job:
    def checked(out):
        code, text = out
        # pi1 prints three summary lines before its JSON report
        return code == 0 and check(json.loads(text[text.index("{"):]))

    return CliJob(kind, lambda: hc.cli.main(argv), checked,
                  lambda out: out[1].encode(), expected_failure)


def _families(report, objects):
    legs = report["legs"]
    return [tuple(legs[y][a] for y in objects) for a in report["apex"]]


def cli_verbs(seed: int, hc, workdir: str) -> list[Job]:
    rng = random.Random(seed)
    simp, fincat = hc.simplicial, hc.fincat

    def write(name, payload):
        path = os.path.join(workdir, name)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        return path

    def nerve_payload(cat, dim):
        return simp.nerve(fincat.validate_category(cat), dim).to_json_dict()

    category = inputs.path_category(rng, inputs.DIAGRAM_EDGES)
    groupoid = inputs.cyclic_group(rng, 3)
    diagram = inputs.random_diagram(rng)
    kan_diagram, functor = inputs.kan_inputs(rng)
    complex_ = inputs.random_graph_complex(rng)
    circle = inputs.circle(rng)
    horn = inputs.inner_horn(rng)
    phi1, phi2 = inputs.svk_legs(rng)
    arrow = inputs.path_category(rng, [(0, 1)])
    action = inputs.cyclic_action(rng)
    cat = oracle.Cat(category["objects"], category["morphisms"], category["compose"])
    nonid = [m["name"] for m in category["morphisms"]]
    model = {"v": 1, "category": category, "weq": [], "fib": nonid, "cof": nonid}
    # Two inputs that collide inside homcat's string tags: "A" ↦ b:c and
    # "A:b" ↦ c both tag as "A:b:c"; ("a,b", "c") and ("a", "b,c") both
    # tokenize as "(a,b,c)".  They fail every round until names are keyed
    # structurally.
    fault_colimit = inputs.discrete_diagram({"A": ["b:c"], "A:b": ["c"]})
    fault_limit = inputs.discrete_diagram({"X": ["a,b", "a"], "Y": ["c", "b,c"]})

    paths = {
        "cat": write("cat.json", category),
        "diagram": write("diagram.json", diagram),
        "fault-colimit": write("fault-colimit.json", fault_colimit),
        "fault-limit": write("fault-limit.json", fault_limit),
        "bifunctor": write("bifunctor.json", inputs.hom_bifunctor(category)),
        "kan-diagram": write("kan-diagram.json", kan_diagram),
        "functor": write("functor.json", functor),
        "nerve-groupoid": write("nerve-groupoid.json", nerve_payload(groupoid, 2)),
        "nerve-cat": write("nerve-cat.json", nerve_payload(category, 2)),
        "complex": write("complex.json", complex_),
        "circle": write("circle.json", circle),
        "horn": write("horn.json", horn),
        "phi1": write("phi1.json", phi1),
        "phi2": write("phi2.json", phi2),
        "arrow": write("arrow.json", arrow),
        "model": write("model.json", model),
        "monoid": write("monoid.json", action["monoid"]),
        "action": write("action.json", action),
    }
    hc.subdivision.ex(simp.standard_simplex(0, 2))  # fills the sd(Δⁿ) and coface caches

    def diagram_tables(d):
        objects = d["shape"]["objects"]
        mors = {m["name"]: (m["src"], m["dst"]) for m in d["shape"]["morphisms"]}
        return objects, d["sets"], d["functions"], mors

    def check_limit(d):
        objects, sets, functions, mors = diagram_tables(d)
        want = oracle.limit_families(objects, sets, functions, mors)

        def check(report):
            got = _families(report, objects)
            return len(got) == len(set(got)) == len(want) and set(got) == want
        return check

    def check_colimit(d):
        objects, sets, functions, mors = diagram_tables(d)
        elements = [(y, e) for y in objects for e in sets[y]]
        pairs = [((s, e), (t, functions[m][e])) for m, (s, t) in mors.items() for e in sets[s]]
        want = set(oracle.naive_merge(elements, pairs))

        def check(report):
            classes: dict[str, set] = {}
            for y in objects:
                for e in sets[y]:
                    classes.setdefault(report["legs"][y][e], set()).add((y, e))
            got = {frozenset(b) for b in classes.values()}
            return len(report["apex"]) == len(want) and got == want
        return check

    def ends():
        families = [
            w for w in itertools.product(*(cat.hom(c, c) for c in cat.objects))
            if all(
                cat.compose(f, w[cat.objects.index(cat.src(f))])
                == cat.compose(w[cat.objects.index(cat.dst(f))], f)
                for f in nonid
            )
        ]
        elements = [(c, h) for c in cat.objects for h in cat.hom(c, c)]
        pairs = [
            ((cat.src(f), cat.compose(x, f)), (cat.dst(f), cat.compose(f, x)))
            for f in cat.mors
            for x in cat.hom(cat.dst(f), cat.src(f))
        ]
        return len(families), len(oracle.naive_merge(elements, pairs))

    n_end, n_coend = ends()

    def kan_sizes():
        objects, sets, functions, mors = diagram_tables(kan_diagram)
        level = {y: int(functor["objects"][y][1:]) for y in objects}
        left, right = {}, {}
        for x in range(4):
            below = [y for y in objects if level[y] <= x]
            elements = [(y, e) for y in below for e in sets[y]]
            pairs = [((s, e), (t, functions[m][e])) for m, (s, t) in mors.items()
                     if s in below and t in below for e in sets[s]]
            left[f"c{x}"] = len(oracle.naive_merge(elements, pairs))
            above = [y for y in objects if level[y] >= x]
            sub_mors = {m: st for m, st in mors.items() if st[0] in above}
            right[f"c{x}"] = len(oracle.limit_families(above, sets, functions, sub_mors))
        return left, right

    lan_sizes, ran_sizes = kan_sizes()

    complex_cells, complex_faces = _plain_json(complex_)
    circle_cells, circle_faces = _plain_json(circle)
    horn_cells, horn_faces = _plain_json(horn)
    base = complex_cells[0][0]
    base_component = next(b for b in oracle.components(complex_cells, complex_faces) if base in b)
    complex_h1 = oracle.h1(complex_cells, complex_faces, within=base_component)

    def check_sd(report):
        cells, faces = _plain_json(report)
        return (
            oracle.euler_characteristic(cells) == oracle.euler_characteristic(complex_cells)
            and len(cells[0]) == sum(len(c) for c in complex_cells.values())
            and oracle.h1(cells, faces) == oracle.h1(complex_cells, complex_faces)
        )

    def check_ex(report):
        return _ex_stages_ok([(circle_cells, circle_faces), _plain_json(report)], (1, ()))

    def check_ex_iter(report):
        stages = report["stages"]
        counts = [len(horn_cells[n]) for n in range(3)]
        final = report["final"]
        return (
            stages[0]["cells"] == counts
            and stages[0]["verdict"] == "neither"
            and stages[-1]["cells"] == [len(final["cells"][str(n)]) for n in range(3)]
            and all(s["verdict"] == _verdict(s["unfilled"], s["unfilled_inner"])
                    for s in stages)
            and _ex_stages_ok([(horn_cells, horn_faces), _plain_json(final)], (0, ()))
        )

    def check_pi1(report):
        want = complex_h1
        got = report["abelianization"]
        tidy = report["simplified"]
        return (
            (got["rank"], tuple(got["torsion"])) == want
            and oracle.relator_cokernel(tidy["gens"], tidy["rels"]) == want
        )

    def svk_expected():
        gens = phi1["target"]["gens"] + phi2["target"]["gens"]
        rels = phi1["target"]["rels"] + phi2["target"]["rels"]
        inverse = [g.upper() if g.islower() else g.lower() for g in reversed(phi2["images"]["c"])]
        rels.append(phi1["images"]["c"] + inverse)
        return oracle.relator_cokernel(gens, rels)

    svk_h1 = svk_expected()

    def check_localize(report):
        out = report["category"]
        loc = oracle.Cat(out["objects"], out["morphisms"], out["compose"])
        f = report["projection"]["morphisms"][arrow["morphisms"][0]["name"]]
        # a connected poset with every arrow inverted is the chaotic groupoid
        return (
            len(out["objects"]) == 2
            and len(out["morphisms"]) == 2
            and f in loc.isomorphisms()
        )

    def check_monoid(report):
        table = action["monoid"]
        idx = {e: k for k, e in enumerate(table["elements"])}
        unit = table["unit"]
        inverses = report.get("inverses", {})
        return report["group"] is True and report["unit"] == unit and all(
            table["op"][idx[x]][idx[inverses[x]]] == unit for x in table["elements"]
        )

    space = action["space"]
    generator = {y: action["act"][1][k] for k, y in enumerate(space)}
    orbits_want = set(oracle.orbits_bfs(space, [generator]))

    def check_orbits(report):
        return {frozenset(b) for b in report["orbits"]} == orbits_want and sum(
            len(b) for b in report["orbits"]) == len(space)

    def check_eckmann_hilton(report):
        return [r["size"] for r in report["sizes"]] == [1, 2, 3] and all(
            r["pairs_checked"] == (n * n ** ((n - 1) ** 2)) ** 2 and r["counterexamples"] == []
            for n, r in zip((1, 2, 3), report["sizes"])
        )

    def J(kind, argv, check, fault=False):
        return _cli_job(hc, kind, argv, check, fault)

    p = paths
    return [
        J("check", ["check", p["cat"]], lambda r: (
            r["objects"], r["morphisms"], r["identities"], r["isomorphisms"]
        ) == (len(cat.objects), len(cat.mors), len(cat.objects), cat.isomorphisms())),
        J("limit", ["limit", p["diagram"]], check_limit(diagram)),
        J("colimit", ["colimit", p["diagram"]], check_colimit(diagram)),
        J("limit-name-collision", ["limit", p["fault-limit"]], check_limit(fault_limit), True),
        J("colimit-name-collision", ["colimit", p["fault-colimit"]], check_colimit(fault_colimit), True),
        J("end", ["end", p["bifunctor"]], lambda r: len(r["elements"]) == n_end),
        J("coend", ["coend", p["bifunctor"]], lambda r: len(r["elements"]) == n_coend),
        J("kan-left", ["kan-left", p["kan-diagram"], p["functor"]],
          lambda r: {x: len(v) for x, v in r["sets"].items()} == lan_sizes),
        J("kan-right", ["kan-right", p["kan-diagram"], p["functor"]],
          lambda r: {x: len(v) for x, v in r["sets"].items()} == ran_sizes),
        J("nerve", ["nerve", "--max-dim", "3", p["cat"]],
          lambda r: [len(r["cells"][str(n)]) for n in range(4)] == cat.chain_counts(3)),
        # groupoid nerves are Kan; nerves of other categories are quasi-categories
        J("classify-groupoid", ["classify", "--max-dim", "2", p["nerve-groupoid"]],
          lambda r: r["verdict"] == "kan"),
        J("classify-category", ["classify", "--max-dim", "2", p["nerve-cat"]],
          lambda r: r["verdict"] == "quasi"),
        # inner 2-horns in a nerve are composable pairs, each with one filler
        J("horns", ["horns", p["nerve-cat"], "-n", "2", "-k", "1"],
          lambda r: len(r["assignments"]) == cat.composable_pairs_all()
          and all(len(a["fillers"]) == 1 for a in r["assignments"])),
        J("pi0", ["pi0", p["complex"]],
          lambda r: {frozenset(b) for b in r["components"]}
          == set(map(frozenset, oracle.components(complex_cells, complex_faces)))),
        J("pi1", ["pi1", p["complex"], "--base", base], check_pi1),
        J("svk", ["svk", p["phi1"], p["phi2"]],
          lambda r: len(r["gens"]) == 4
          and (r["abelianization"]["rank"], tuple(r["abelianization"]["torsion"])) == svk_h1),
        J("sd", ["sd", p["complex"]], check_sd),
        J("ex", ["ex", p["circle"]], check_ex),
        J("ex-iter", ["ex-iter", p["horn"], "-k", "1"], check_ex_iter),
        J("localize", ["localize", p["arrow"], "--weq", arrow["morphisms"][0]["name"]],
          check_localize),
        # isomorphisms as weak equivalences, everything a (co)fibration:
        # the trivial model structure, which every category carries
        J("model-check", ["model-check", p["model"]],
          lambda r: r["passed"] is True and all(a["passed"] for a in r["axioms"])),
        J("check-monoid", ["check-monoid", p["monoid"]], check_monoid),
        J("check-action", ["check-action", p["action"]],
          lambda r: r["actor"] == 6 and r["space"] == len(space) and check_orbits(r)),
        J("orbit", ["orbit", p["action"]], check_orbits),
        J("eckmann-hilton", ["eckmann-hilton", "--max-size", "3"], check_eckmann_hilton),
    ]


WORKLOADS = {"ex-tower": ex_tower, "cli-verbs": cli_verbs, "sd-surfaces": sd_surfaces}
