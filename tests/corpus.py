"""Shared builders for the small categories, diagrams and complexes the
test-suite exercises over and over."""

from __future__ import annotations

import importlib.util
import itertools
import pathlib
import random

from homcat.fincat import (
    FinCategory,
    FinFunctor,
    NatTransformation,
    join_families,
    validate_category,
)
from homcat.setcalc import Diagram, FinFunction, FinSetRep, identity_function
from homcat.simplicial import SimplicialSet, simplicial_from_json


def terminal_category() -> FinCategory:
    return validate_category({"objects": ["*"], "morphisms": [], "compose": []})


def walking_arrow() -> FinCategory:
    return validate_category(
        {
            "objects": ["A", "B"],
            "morphisms": [{"name": "f", "src": "A", "dst": "B"}],
            "compose": [],
        }
    )


def walking_iso() -> FinCategory:
    return validate_category(
        {
            "objects": ["A", "B"],
            "morphisms": [
                {"name": "f", "src": "A", "dst": "B"},
                {"name": "g", "src": "B", "dst": "A"},
            ],
            "compose": [["g", "f", "id_A"], ["f", "g", "id_B"]],
        }
    )


def discrete(n: int) -> FinCategory:
    return validate_category(
        {"objects": [f"D{k}" for k in range(n)], "morphisms": [], "compose": []}
    )


def poset_chain(n: int) -> FinCategory:
    """The poset 0 ≤ 1 ≤ ... ≤ n as a category."""
    objects = [str(k) for k in range(n + 1)]
    morphisms = [
        {"name": f"le{i}{j}", "src": str(i), "dst": str(j)}
        for i in range(n + 1)
        for j in range(i + 1, n + 1)
    ]
    compose = []
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            for k in range(j + 1, n + 1):
                compose.append([f"le{j}{k}", f"le{i}{j}", f"le{i}{k}"])
    return validate_category(
        {"objects": objects, "morphisms": morphisms, "compose": compose}
    )


def parallel_pair() -> FinCategory:
    """The shape (⇉): two objects, two parallel non-identity arrows."""
    return validate_category(
        {
            "objects": ["S", "T"],
            "morphisms": [
                {"name": "a", "src": "S", "dst": "T"},
                {"name": "b", "src": "S", "dst": "T"},
            ],
            "compose": [],
        }
    )


def cyclic_group_category(n: int) -> FinCategory:
    """Z/n as a one-object category; morphism k is rotation by k."""
    morphisms = [
        {"name": f"g{k}", "src": "*", "dst": "*"} for k in range(1, n)
    ]
    compose = []
    for a in range(1, n):
        for b in range(1, n):
            c = (a + b) % n
            compose.append([f"g{a}", f"g{b}", f"g{c}" if c else "id_*"])
    return validate_category(
        {"objects": ["*"], "morphisms": morphisms, "compose": compose}
    )


def idempotent_monoid_category() -> FinCategory:
    """One object, one idempotent g with g∘g = g."""
    return validate_category(
        {
            "objects": ["*"],
            "morphisms": [{"name": "g", "src": "*", "dst": "*"}],
            "compose": [["g", "g", "g"]],
        }
    )


def chaotic_groupoid(elements: list[str]) -> FinCategory:
    """One morphism between every ordered pair of objects; every arrow iso."""
    morphisms = [
        {"name": f"({a}->{b})", "src": a, "dst": b}
        for a in elements
        for b in elements
        if a != b
    ]
    compose = []
    for a in elements:
        for b in elements:
            for c in elements:
                if a == b or b == c:
                    continue
                h = f"({a}->{c})" if a != c else f"id_{a}"
                compose.append([f"({b}->{c})", f"({a}->{b})", h])
    return validate_category(
        {"objects": list(elements), "morphisms": morphisms, "compose": compose}
    )


def functor_to_terminal(c: FinCategory) -> FinFunctor:
    t = terminal_category()
    return FinFunctor(
        c,
        t,
        {x: "*" for x in c.objects},
        {m.name: "id_*" for m in c.morphisms},
    )


def diagram_from_tables(shape: FinCategory, sets: dict, functions: dict) -> Diagram:
    values = {x: FinSetRep(x, tuple(sets[x])) for x in shape.objects}
    arrows = {}
    for m in shape.morphisms:
        if shape.is_identity(m.name):
            arrows[m.name] = identity_function(values[m.src])
        else:
            arrows[m.name] = FinFunction(
                values[m.src], values[m.dst], dict(functions[m.name])
            )
    d = Diagram(shape, values, arrows)
    d.validate()
    return d


# -- random generators ---------------------------------------------------


def path_category(n: int, edges: list[tuple[int, int, str]]) -> FinCategory:
    """Free category on a DAG over the linear order 0 < ... < n-1.

    Morphisms are the nonempty directed paths (edges must go strictly
    upward, so the path count is finite); composition is concatenation.
    """
    objects = [f"X{k}" for k in range(n)]
    paths: dict[tuple[str, ...], tuple[int, int]] = {}
    frontier = {(name,): (i, j) for i, j, name in edges}
    while frontier:
        paths.update(frontier)
        new = {}
        for p, (i, j) in frontier.items():
            for a, b, name in edges:
                if a == j:
                    new[p + (name,)] = (i, b)
        frontier = new

    def path_name(p: tuple[str, ...]) -> str:
        return "·".join(p)

    morphisms = [
        {"name": path_name(p), "src": objects[i], "dst": objects[j]}
        for p, (i, j) in sorted(paths.items())
    ]
    compose = []
    for p, (i, j) in paths.items():
        for q, (a, b) in paths.items():
            if j == a:
                compose.append([path_name(q), path_name(p), path_name(p + q)])
    return validate_category(
        {"objects": objects, "morphisms": morphisms, "compose": compose}
    )


def random_shape(
    rng: random.Random, max_objects=3, max_nonid_mors=5
) -> FinCategory:
    """Random free category: a multigraph DAG on ≤ ``max_objects`` nodes
    with at most ``max_nonid_mors`` nonidentity morphisms (paths)."""
    while True:
        n = rng.randint(1, max_objects) if rng.random() > 0.05 else 0
        if n == 0:
            return path_category(0, [])
        slots = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = []
        for i, j in slots:
            for copy in range(rng.randint(0, 2)):
                edges.append((i, j, f"e{i}{j}{'abc'[copy]}"))
        cat = path_category(n, edges)
        if len(cat.morphisms) - len(cat.objects) <= max_nonid_mors:
            return cat


def random_diagram(rng: random.Random, shape=None, max_set=3, min_set=0) -> Diagram:
    """Random set-valued diagram: free choices on the generating edges of a
    path category, extended to composites by actual composition."""
    if shape is None:
        shape = random_shape(rng)
    sets = {
        x: [f"{x}e{k}" for k in range(rng.randint(min_set, max_set))]
        for x in shape.objects
    }
    nonid = [m for m in shape.morphisms if not shape.is_identity(m.name)]
    edges = [m for m in nonid if "·" not in m.name]
    for m in edges:
        if sets[m.src] and not sets[m.dst]:
            sets[m.src] = []
    # emptying a source can cascade along chains of edges
    changed = True
    while changed:
        changed = False
        for m in edges:
            if sets[m.src] and not sets[m.dst]:
                sets[m.src] = []
                changed = True
    functions = {
        m.name: {x: rng.choice(sets[m.dst]) for x in sets[m.src]} for m in edges
    }
    for m in nonid:
        if m.name in functions:
            continue
        pieces = m.name.split("·")
        table = {}
        for x in sets[m.src]:
            y = x
            for piece in pieces:
                y = functions[piece][y]
            table[x] = y
        functions[m.name] = table
    return diagram_from_tables(shape, sets, functions)


# the characters the engine joins user names on
CLASH_CHARS = "a,>{}[];*^-1()\\"


def clash_names(rng: random.Random, count: int, max_len: int = 3) -> list[str]:
    """``count`` distinct names of one to ``max_len`` characters drawn from
    :data:`CLASH_CHARS`."""
    names: list[str] = []
    while len(names) < count:
        name = "".join(rng.choice(CLASH_CHARS) for _ in range(rng.randint(1, max_len)))
        if name not in names:
            names.append(name)
    return names


def seeded_surfaces(seed: int) -> list[SimplicialSet]:
    """The benchmark's seeded surfaces, as ``perfbench/inputs.py`` names
    them for ``seed``: the boundary of the tetrahedron, the torus, RP²."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return [
        simplicial_from_json(payload)
        for _, payload, _, _ in inputs.surfaces(random.Random(seed))
    ]


# -- brute-force references ----------------------------------------------
#
# The searches as they were before they shared one backtracking core: each
# tests every tuple of the full product, in its lexicographic order.  The
# engine must return the same lists, in the same order.


def diagram_nat_trans_by_product(f: Diagram, g: Diagram) -> list[dict]:
    per_object = []
    for x in f.shape.objects:
        dom, cod = f.values[x], g.values[x]
        fns = []
        for images in itertools.product(cod.elements, repeat=len(dom.elements)):
            fns.append(FinFunction(dom, cod, dict(zip(dom.elements, images))))
        per_object.append((x, fns))
    found = []
    for combo in itertools.product(*(fns for _, fns in per_object)):
        comp = {x: fn for (x, _), fn in zip(per_object, combo)}
        ok = True
        for m in f.shape.morphisms:
            lhs = f.arrows[m.name].then(comp[m.dst])
            rhs = comp[m.src].then(g.arrows[m.name])
            if lhs.mapping != rhs.mapping:
                ok = False
                break
        if ok:
            found.append(comp)
    return found


def enumerate_nat_trans_by_product(f: FinFunctor, g: FinFunctor) -> list:
    d = f.target
    per_object = [
        [(x, c) for c in d.hom(f.object_map[x], g.object_map[x])]
        for x in f.source.objects
    ]
    found = []
    for combo in itertools.product(*per_object):
        comp = dict(combo)
        ok = True
        for m in f.source.morphisms:
            if d.compose(comp[m.dst], f.morphism_map[m.name]) != d.compose(
                g.morphism_map[m.name], comp[m.src]
            ):
                ok = False
                break
        if ok:
            found.append(NatTransformation(f, g, comp))
    return found


def enumerate_functors_by_product(c: FinCategory, d: FinCategory) -> list:
    nonid = [m for m in c.morphisms if not c.is_identity(m.name)]
    found = []
    for omap_vals in itertools.product(d.objects, repeat=len(c.objects)):
        omap = dict(zip(c.objects, omap_vals))
        choices = [d.hom(omap[m.src], omap[m.dst]) for m in nonid]
        for combo in itertools.product(*choices):
            mmap = dict(zip((m.name for m in nonid), combo))
            for x in c.objects:
                mmap[c.identity[x]] = d.identity[omap[x]]
            ok = True
            for g, f in c.composable_pairs():
                if d.compose(mmap[g], mmap[f]) != mmap[c.compose(g, f)]:
                    ok = False
                    break
            if ok:
                found.append(FinFunctor(c, d, omap, mmap))
    return found


def ran_by_product(f: Diagram, i: FinFunctor) -> Diagram:
    a_cat, c_cat = i.source, i.target

    def family_key(fam: dict[str, dict[str, str]]) -> tuple:
        return tuple((y, tuple(sorted(fam[y].items()))) for y in a_cat.objects)

    pointwise: dict[str, list[dict]] = {}
    names: dict[str, dict[tuple, str]] = {}
    values: dict[str, FinSetRep] = {}
    for x in c_cat.objects:
        choices = []
        for y in a_cat.objects:
            homset = c_cat.hom(x, i.on_obj(y))
            fy = f.values[y].elements
            funcs = [
                dict(zip(homset, images))
                for images in itertools.product(fy, repeat=len(homset))
            ]
            choices.append(funcs)
        families = []
        for combo in itertools.product(*choices):
            fam = dict(zip(a_cat.objects, combo))
            ok = True
            for a in a_cat.morphisms:  # a: Y -> Z; need F(a)∘φ_Y = φ_Z∘(i(a)∘-)
                for m in c_cat.hom(x, i.on_obj(a.src)):
                    lhs = f.arrows[a.name](fam[a.src][m])
                    rhs = fam[a.dst][c_cat.compose(i.on_mor(a.name), m)]
                    if lhs != rhs:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                families.append(fam)
        pointwise[x] = families
        names[x] = join_families([family_key(fam) for fam in families], "{", "}")
        values[x] = FinSetRep(f"Ran({x})", tuple(names[x].values()))

    arrows = {}
    for g in c_cat.morphisms:  # g: X -> X'
        mapping = {}
        for fam in pointwise[g.src]:
            moved = {
                y: {
                    m: fam[y][c_cat.compose(m, g.name)]
                    for m in c_cat.hom(g.dst, i.on_obj(y))
                }
                for y in a_cat.objects
            }
            mapping[names[g.src][family_key(fam)]] = names[g.dst][family_key(moved)]
        arrows[g.name] = FinFunction(values[g.src], values[g.dst], mapping)
    result = Diagram(c_cat, values, arrows)
    result.validate()
    return result
