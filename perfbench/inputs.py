"""Seeded input generators.  The same seed gives the same inputs.

Inputs are plain JSON payloads in homcat's file formats.  Names come from
a pool of lowercase letters only, so no generated name contains a
character that homcat joins or splits names on.  Sizes are fixed; the
seed chooses names, orders, tables and permutations.
"""

from __future__ import annotations

import itertools
import random
import string


def names(rng: random.Random, count: int, length: int = 3) -> list[str]:
    pool = set()
    while len(pool) < count:
        name = "".join(rng.choice(string.ascii_lowercase) for _ in range(length))
        if not name.startswith("id"):  # "id_" prefixes are reserved for identities
            pool.add(name)
    out = sorted(pool)
    rng.shuffle(out)
    return out


# -- simplicial sets -----------------------------------------------------------


def complex_from_simplices(vertex_names: list[str], simplices, dim: int = 2) -> dict:
    """Simplicial set payload of an ordered simplicial complex.

    ``simplices`` are tuples of vertex indices; a simplex's vertex order
    is the order of ``vertex_names``' indices, so relabelling changes the
    orientation of every simplex as well as the names.
    """
    closed: set[tuple[int, ...]] = set()
    for s in simplices:
        s = tuple(sorted(s))
        for k in range(1, len(s) + 1):
            closed.update(itertools.combinations(s, k))
    cells: dict[str, list[str]] = {str(n): [] for n in range(dim + 1)}
    faces = {}

    def name(s):
        return "-".join(vertex_names[v] for v in s)

    for s in sorted(closed, key=lambda s: (len(s), s)):
        n = len(s) - 1
        cells[str(n)].append(name(s))
        if n:
            faces[name(s)] = [name(s[:i] + s[i + 1:]) for i in range(n + 1)]
    return {"v": 1, "dim": dim, "cells": cells, "faces": faces}


def relabel(rng: random.Random, n_vertices: int, simplices):
    """Random vertex names and a random vertex order."""
    perm = list(range(n_vertices))
    rng.shuffle(perm)
    return names(rng, n_vertices), [tuple(perm[v] for v in s) for s in simplices]


def boundary_tetrahedron():
    return 4, list(itertools.combinations(range(4), 3))


def torus7():
    tris = []
    for i in range(7):
        tris.append((i, (i + 1) % 7, (i + 3) % 7))
        tris.append((i, (i + 2) % 7, (i + 3) % 7))
    return 7, tris


def rp2_6():
    """The six-vertex real projective plane (half an icosahedron)."""
    tris = [
        (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 1),
        (1, 2, 4), (2, 3, 5), (3, 4, 1), (4, 5, 2), (5, 1, 3),
    ]
    return 6, tris


def surfaces(rng: random.Random) -> list[tuple[str, dict, int, tuple]]:
    """(label, complex, Euler characteristic, H₁ as (rank, torsion))."""
    out = []
    for label, build, chi, homology in (
        ("boundary-tetrahedron", boundary_tetrahedron, 2, (0, ())),
        ("torus", torus7, 0, (2, ())),
        ("rp2", rp2_6, 1, (0, (2,))),
    ):
        n, tris = build()
        vnames, tris = relabel(rng, n, tris)
        out.append((label, complex_from_simplices(vnames, tris), chi, homology))
    return out


def circle(rng: random.Random) -> dict:
    v, a = names(rng, 2)
    return {"v": 1, "dim": 2, "cells": {"0": [v], "1": [a], "2": []}, "faces": {a: [v, v]}}


def interval(rng: random.Random) -> dict:
    vnames, simplices = relabel(rng, 2, [(0, 1)])
    return complex_from_simplices(vnames, simplices)


def inner_horn(rng: random.Random) -> dict:
    """Λ²₁: the two edges through vertex 1 of a triangle."""
    vnames = names(rng, 3)
    return complex_from_simplices(vnames, [(0, 1), (1, 2)])


# -- categories ------------------------------------------------------------------


def cyclic_group(rng: random.Random, n: int) -> dict:
    """Z/n as a one-object category with seeded morphism names."""
    obj, *mors = names(rng, n)
    ident = f"id_{obj}"
    name = {0: ident, **{k: mors[k - 1] for k in range(1, n)}}
    compose = [
        [name[a], name[b], name[(a + b) % n]]
        for a in range(1, n)
        for b in range(1, n)
    ]
    return {
        "v": 1,
        "objects": [obj],
        "morphisms": [{"name": name[k], "src": obj, "dst": obj} for k in range(1, n)],
        "compose": compose,
    }


def path_category(rng: random.Random, edges: list[tuple[int, int]]) -> dict:
    """Free category on a DAG over objects 0 < 1 < ... (edges go upward).

    The DAG is fixed by the caller; the seed names objects and edges.
    Morphisms are the nonempty paths, composition is concatenation.
    """
    n_obj = 1 + max(max(e) for e in edges)
    objs = names(rng, n_obj)
    edge_names = names(rng, len(edges), 2)
    paths = {(k,): e for k, e in enumerate(edges)}
    frontier = dict(paths)
    while frontier:
        new = {}
        for p, (i, j) in frontier.items():
            for k, (a, b) in enumerate(edges):
                if a == j:
                    new[p + (k,)] = (i, b)
        paths.update(new)
        frontier = new

    def pname(p):
        return "_".join(edge_names[k] for k in p)

    morphisms = [
        {"name": pname(p), "src": objs[i], "dst": objs[j]} for p, (i, j) in paths.items()
    ]
    compose = [
        [pname(q), pname(p), pname(p + q)]
        for p, (i, j) in paths.items()
        for q, (a, b) in paths.items()
        if j == a
    ]
    rng.shuffle(morphisms)
    return {"v": 1, "objects": objs, "morphisms": morphisms, "compose": compose}


# The shape every random diagram lives on: two parallel edges 0 → 1, one
# edge 1 → 2 and one 0 → 2, so 3 objects and 6 non-identity morphisms.
DIAGRAM_EDGES = [(0, 1), (0, 1), (1, 2), (0, 2)]


def random_diagram(rng: random.Random, set_size: int = 3) -> dict:
    """A functor on the fixed path category.  The parallel edge and the
    edge 0 → 2 copy the other route except at one random element each, so
    the limit is never empty; composites follow by composition."""
    shape = path_category(rng, DIAGRAM_EDGES)
    objs = shape["objects"]
    sets = {x: [f"{x}{c}" for c in names(rng, set_size, 2)] for x in objs}
    by_name = {m["name"]: m for m in shape["morphisms"]}
    edges = {}
    for m in shape["morphisms"]:
        if "_" not in m["name"]:
            edges.setdefault((objs.index(m["src"]), objs.index(m["dst"])), []).append(m["name"])
    (a, b), (c,), (d,) = sorted(edges[(0, 1)]), edges[(1, 2)], edges[(0, 2)]

    def random_map(src, dst):
        return {e: rng.choice(sets[dst]) for e in sets[src]}

    def differ_once(table, dst):
        out = dict(table)
        e = rng.choice(sorted(out))
        out[e] = rng.choice([v for v in sets[dst] if v != out[e]])
        return out

    functions = {a: random_map(objs[0], objs[1]), c: random_map(objs[1], objs[2])}
    functions[b] = differ_once(functions[a], objs[1])
    functions[d] = differ_once({e: functions[c][functions[a][e]] for e in sets[objs[0]]}, objs[2])
    for n in by_name:
        if n in functions:
            continue
        table = {}
        for e in sets[by_name[n]["src"]]:
            y = e
            for piece in n.split("_"):
                y = functions[piece][y]
            table[e] = y
        functions[n] = table
    return {"v": 1, "shape": shape, "sets": sets, "functions": functions}


def discrete_diagram(sets: dict) -> dict:
    return {
        "v": 1,
        "shape": {"v": 1, "objects": list(sets), "morphisms": [], "compose": []},
        "sets": sets,
        "functions": {},
    }


def chain_poset(n: int) -> dict:
    """0 < 1 < ... < n; morphism ``leIJ`` is i ≤ j."""
    objs = [f"c{k}" for k in range(n + 1)]
    mors = [
        {"name": f"le{i}{j}", "src": objs[i], "dst": objs[j]}
        for i in range(n + 1)
        for j in range(i + 1, n + 1)
    ]
    compose = [
        [f"le{j}{k}", f"le{i}{j}", f"le{i}{k}"]
        for i in range(n + 1)
        for j in range(i + 1, n + 1)
        for k in range(j + 1, n + 1)
    ]
    return {"v": 1, "objects": objs, "morphisms": mors, "compose": compose}


def kan_inputs(rng: random.Random) -> tuple[dict, dict]:
    """A random diagram on the fixed path category and the functor to the
    chain 0 < 1 < 2 < 3 sending object k to k (paths to the unique arrow)."""
    diagram = random_diagram(rng, set_size=2)
    shape = diagram["shape"]
    target = chain_poset(3)
    level = {x: k for k, x in enumerate(shape["objects"])}
    objects = {x: f"c{level[x]}" for x in shape["objects"]}
    morphisms = {
        m["name"]: f"le{level[m['src']]}{level[m['dst']]}" for m in shape["morphisms"]
    }
    functor = {"v": 1, "source": shape, "target": target, "objects": objects, "morphisms": morphisms}
    return diagram, functor


def hom_bifunctor(cat: dict) -> dict:
    """Hom(−, −) of a category as a bifunctor payload."""
    objs = cat["objects"]
    mors = {m["name"]: (m["src"], m["dst"]) for m in cat["morphisms"]}
    for x in objs:
        mors[f"id_{x}"] = (x, x)
    table = {(g, f): h for g, f, h in cat["compose"]}

    def compose(g, f):
        if f.startswith("id_"):
            return g
        if g.startswith("id_"):
            return f
        return table[(g, f)]

    sets = {x: {y: [m for m, e in mors.items() if e == (x, y)] for y in objs} for x in objs}
    functions = {}
    for f, (fs, fd) in mors.items():
        for g, (gs, gd) in mors.items():
            if f.startswith("id_") and g.startswith("id_"):
                continue
            functions.setdefault(f, {})[g] = {
                h: compose(g, compose(h, f)) for h in sets[fd][gs]
            }
    return {"v": 1, "shape": cat, "sets": sets, "functions": functions}


def random_graph_complex(rng: random.Random, n_vertices: int = 6) -> dict:
    """A 2-dimensional complex: a fixed graph (a cycle with two chords)
    whose triangles are filled, with seeded names and vertex order."""
    cycle = [(k, (k + 1) % n_vertices) for k in range(n_vertices)]
    chords = [(0, 2), (3, 5)]
    tris = [(0, 1, 2), (3, 4, 5)]
    vnames, simplices = relabel(rng, n_vertices, cycle + chords + tris)
    return complex_from_simplices(vnames, simplices)


# -- algebra -------------------------------------------------------------------


def cyclic_action(rng: random.Random, n: int = 6, space_size: int = 7) -> dict:
    """Z/n acting on a set through a seeded permutation whose cycle
    lengths divide n."""
    elements = [f"g{k}" for k in range(n)]
    op = [[elements[(a + b) % n] for b in range(n)] for a in range(n)]
    space = names(rng, space_size, 2)
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    order = space[:]
    rng.shuffle(order)
    sigma = {}
    k = 0
    while k < len(order):
        d = rng.choice([d for d in divisors if d <= len(order) - k])
        cyc = order[k:k + d]
        for i, y in enumerate(cyc):
            sigma[y] = cyc[(i + 1) % d]
        k += d
    powers = [{y: y for y in space}]
    for _ in range(1, n):
        powers.append({y: sigma[powers[-1][y]] for y in space})
    act = [[powers[a][y] for y in space] for a in range(n)]
    monoid = {"v": 1, "elements": elements, "op": op, "unit": "g0"}
    return {"v": 1, "monoid": monoid, "space": space, "act": act}


def presentation(rng: random.Random, gens: list[str], n_rels: int) -> dict:
    rels = []
    for _ in range(n_rels):
        word = [rng.choice(gens) for _ in range(rng.randint(2, 4))]
        rels.append([g if rng.random() < 0.5 else g.upper() for g in word])
    return {"v": 1, "gens": gens, "rels": rels}


def svk_legs(rng: random.Random) -> tuple[dict, dict]:
    """Two homomorphisms out of the free group on one generator."""
    source = {"v": 1, "gens": ["c"], "rels": []}
    t1 = presentation(rng, ["a", "b"], 2)
    t2 = presentation(rng, ["d", "e"], 1)
    legs = []
    for target in (t1, t2):
        image = [rng.choice(target["gens"]) for _ in range(2)]
        legs.append({"v": 1, "source": source, "target": target, "images": {"c": image}})
    return legs[0], legs[1]
