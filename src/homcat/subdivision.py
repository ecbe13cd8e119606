"""Barycentric subdivision, its right adjoint Ex, and finite Ex iteration.

sd(Δⁿ) is the nerve of the poset of nonempty subsets of [n].  For a general
complex, sd is glued levelwise: the cells at level m are classes of pairs
(total a-cell of X, total m-cell of sd(Δᵃ)) under the relations generated by
the elementary ordinal maps, computed with union-find.  Ex(X) is built the
other way around: its n-cells are the simplicial maps sd(Δⁿ) → X, with
operators given by precomposition.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache, wraps
from types import MappingProxyType

from .errors import BudgetExceeded, DEFAULT_HORN_BUDGET, SchemaError
from .fincat import FinCategory, FinFunctor, validate_category
from .fincat import quotient as _union_find  # perfbench/tracing.py wraps this name
from .simplicial import (
    CellRef,
    DeltaMap,
    SimplicialMap,
    SimplicialSet,
    apply_delta_ref,
    classify,
    enumerate_maps,
    nerve,
    nerve_map,
    normalize_word,
    parse_cell_ref,
    standard_simplex,
    word_surjection,
)


# -- the subset poset and sd on standard simplices ---------------------------


def _subset_name(subset: tuple[int, ...]) -> str:
    return ".".join(str(v) for v in subset)


def _shared_cache(build):
    """``lru_cache`` for builders whose results every caller shares: public
    lists and dicts of a result become tuples and read-only mappings, so no
    caller can change what a later call returns; memo tables stay private."""
    def frozen(value):
        if isinstance(value, list):
            return tuple(value)
        if isinstance(value, dict):
            return MappingProxyType({k: frozen(v) for k, v in value.items()})
        return value

    @lru_cache(maxsize=None)
    @wraps(build)
    def cached(*args, **kwargs):
        value = build(*args, **kwargs)
        for name, field in list(vars(value).items()):
            if not name.startswith("_"):
                setattr(value, name, frozen(field))
        return value
    return cached


@_shared_cache
def subset_poset(n: int) -> FinCategory:
    """Nonempty subsets of [n], ordered by inclusion."""
    subsets = []
    for size in range(1, n + 2):
        subsets.extend(itertools.combinations(range(n + 1), size))
    names = [_subset_name(s) for s in subsets]
    morphisms = []
    compose = []
    strict = [(a, b) for a in subsets for b in subsets if set(a) < set(b)]

    def arrow(a, b) -> str:
        return f"{_subset_name(a)}<{_subset_name(b)}"

    for a, b in strict:
        morphisms.append(
            {"name": arrow(a, b), "src": _subset_name(a), "dst": _subset_name(b)}
        )
    for a, b in strict:
        for b2, c in strict:
            if b == b2:
                compose.append([arrow(b, c), arrow(a, b), arrow(a, c)])
    return validate_category(
        {"objects": names, "morphisms": morphisms, "compose": compose}
    )


@_shared_cache
def sd_simplex(n: int, max_dim: int | None = None) -> SimplicialSet:
    """sd(Δⁿ): the nerve of the nonempty-subset poset of [n].

    ``max_dim`` is the ambient truncation bound; it may exceed n, in which
    case the extra levels carry only degenerate cells.
    """
    if max_dim is None:
        max_dim = n
    return nerve(subset_poset(n), max_dim)


def _poset_functor(n_src: int, n_dst: int, vertex_map: DeltaMap) -> FinFunctor:
    """The poset map S ↦ vertex_map(S) between subset posets, as a functor."""
    src, dst = subset_poset(n_src), subset_poset(n_dst)

    def image(name: str) -> str:
        values = sorted({vertex_map(int(v)) for v in name.split(".")})
        return _subset_name(tuple(values))

    object_map = {name: image(name) for name in src.objects}
    morphism_map = {}
    for m in src.morphisms:
        if src.is_identity(m.name):
            morphism_map[m.name] = dst.identity[object_map[m.src]]
            continue
        a, b = object_map[m.src], object_map[m.dst]
        morphism_map[m.name] = dst.identity[a] if a == b else f"{a}<{b}"
    f = FinFunctor(src, dst, object_map, morphism_map)
    f.validate()
    return f


@_shared_cache
def sd_elementary_map(n: int, kind: str, i: int, max_dim: int) -> SimplicialMap:
    """sd applied to a coface (kind 'd') or codegeneracy (kind 's').

    'd': sd(δᵢ): sd(Δ^{n-1}) → sd(Δⁿ);  's': sd(σᵢ): sd(Δ^{n+1}) → sd(Δⁿ).
    """
    if kind == "d":
        delta = DeltaMap(n - 1, n, tuple(v for v in range(n + 1) if v != i))
        functor = _poset_functor(n - 1, n, delta)
        return nerve_map(
            functor, sd_simplex(n - 1, max_dim), sd_simplex(n, max_dim)
        )
    sigma = DeltaMap(n + 1, n, tuple(v if v <= i else v - 1 for v in range(n + 2)))
    functor = _poset_functor(n + 1, n, sigma)
    return nerve_map(functor, sd_simplex(n + 1, max_dim), sd_simplex(n, max_dim))


def _chain_vertex_tuple(ref: CellRef) -> tuple[str, ...]:
    """Subset names visited by a (possibly degenerate) cell of some sd(Δⁿ).

    The base is either a poset object (a subset name) or a chain of
    inclusion arrows joined by '|'.
    """
    if "<" not in ref.base:
        base_dim = 0
        vertices = (ref.base,)
    else:
        pieces = ref.base.split("|")
        base_dim = len(pieces)
        vertices = tuple(
            [pieces[0].split("<")[0]] + [p.split("<")[1] for p in pieces]
        )
    if not ref.word:
        return vertices
    ws = word_surjection(ref.word, base_dim)
    return tuple(vertices[ws(k)] for k in range(ws.domain + 1))


def _last_vertex_delta(n: int, ref: CellRef) -> DeltaMap:
    """The ordinal map picking the largest element of each subset."""
    vertices = _chain_vertex_tuple(ref)
    maxes = tuple(max(int(v) for v in name.split(".")) for name in vertices)
    return DeltaMap(len(maxes) - 1, n, maxes)


# -- levelwise models ---------------------------------------------------------


@dataclass
class LevelwiseSSet:
    """All cells per level with explicit operator tables."""

    max_dim: int
    levels: dict[int, list[str]]
    face_op: dict[tuple[int, int], dict[str, str]]
    deg_op: dict[tuple[int, int], dict[str, str]]

    def verify(self) -> None:
        """Check all five simplicial identity families on the tables."""
        for n in range(2, self.max_dim + 1):
            for z in self.levels[n]:
                for j in range(1, n + 1):
                    for i in range(j):
                        lhs = self.face_op[(n - 1, i)][self.face_op[(n, j)][z]]
                        rhs = self.face_op[(n - 1, j - 1)][self.face_op[(n, i)][z]]
                        if lhs != rhs:
                            raise SchemaError(
                                f"face identity fails at level {n} on {z!r}"
                            )
        for n in range(self.max_dim):
            for z in self.levels[n]:
                for j in range(n + 1):
                    up = self.deg_op[(n, j)][z]
                    if self.face_op[(n + 1, j)][up] != z:
                        raise SchemaError("d_j s_j != id in the levelwise model")
                    if self.face_op[(n + 1, j + 1)][up] != z:
                        raise SchemaError("d_{j+1} s_j != id in the levelwise model")
                    for i in range(n + 2):
                        if i in (j, j + 1):
                            continue
                        got = self.face_op[(n + 1, i)][up]
                        if i < j:
                            want = self.deg_op[(n - 1, j - 1)][
                                self.face_op[(n, i)][z]
                            ]
                        else:  # i > j + 1
                            want = self.deg_op[(n - 1, j)][
                                self.face_op[(n, i - 1)][z]
                            ]
                        if got != want:
                            raise SchemaError(
                                "mixed face-degeneracy identity fails"
                            )
        for n in range(self.max_dim - 1):
            for z in self.levels[n]:
                for j in range(n + 1):
                    for i in range(j + 1):  # i <= j: s_i s_j = s_{j+1} s_i
                        lhs = self.deg_op[(n + 1, i)][self.deg_op[(n, j)][z]]
                        rhs = self.deg_op[(n + 1, j + 1)][self.deg_op[(n, i)][z]]
                        if lhs != rhs:
                            raise SchemaError(
                                "degeneracy-degeneracy identity fails"
                            )

    def to_presentation(self, prefix: str) -> tuple[
        SimplicialSet,
        dict[tuple[int, str], CellRef],
        dict[tuple[int, str], str],
    ]:
        """Extract the nondegenerate presentation.

        Returns the presented complex, ``ref_of`` sending every level cell
        to its normal form over the new names, and ``origin`` sending each
        new nondegenerate name back to its level cell.
        """
        # one degeneracy preimage per degenerate cell; by Eilenberg–Zilber
        # any preimage gives the same normal form
        lift: dict[tuple[int, str], tuple[int, str]] = {}
        for (n, i), table in self.deg_op.items():
            for y, image in table.items():
                lift.setdefault((n + 1, image), (i, y))
        names: dict[tuple[int, str], str] = {}
        cells: dict[int, list[str]] = {}
        origin: dict[tuple[int, str], str] = {}
        for n in range(self.max_dim + 1):
            cells[n] = []
            for z in self.levels[n]:
                if (n, z) not in lift:
                    fresh = f"{prefix}{n}_{len(cells[n])}"
                    cells[n].append(fresh)
                    names[(n, z)] = fresh
                    origin[(n, fresh)] = z

        ref_of: dict[tuple[int, str], CellRef] = {}

        def resolve(n: int, z: str) -> CellRef:
            if (n, z) in ref_of:
                return ref_of[(n, z)]
            if (n, z) in names:
                out = CellRef(names[(n, z)], ())
            else:
                i, pre = lift[(n, z)]
                inner = resolve(n - 1, pre)
                out = CellRef(inner.base, normalize_word([i] + list(inner.word)))
            ref_of[(n, z)] = out
            return out

        faces = {}
        for n in range(1, self.max_dim + 1):
            for z in self.levels[n]:
                if (n, z) not in names:
                    continue
                faces[(n, names[(n, z)])] = tuple(
                    resolve(n - 1, self.face_op[(n, i)][z]) for i in range(n + 1)
                )
        for n in range(self.max_dim + 1):
            for z in self.levels[n]:
                resolve(n, z)
        out = SimplicialSet(self.max_dim, cells, faces)
        out.validate()
        return out, ref_of, origin


# -- barycentric subdivision ---------------------------------------------------


def _glue_tag(a: int, xref: CellRef, cref: CellRef) -> str:
    return f"{a}${xref.serialize()}${cref.serialize()}"


def _tag_parts(tag: str) -> tuple[int, str, str]:
    # the degree never contains '$' and neither do sd(Δᵃ) cell names, so
    # the X cell is whatever lies between the first and the last '$'
    a_str, rest = tag.split("$", 1)
    xs, cs = rest.rsplit("$", 1)
    return int(a_str), xs, cs


def _split_tag(tag: str) -> tuple[int, CellRef, CellRef]:
    a, xs, cs = _tag_parts(tag)
    return a, parse_cell_ref(xs), parse_cell_ref(cs)


@dataclass
class SdResult:
    """Subdivided complex plus the gluing bookkeeping.

    ``class_of[(m, tag)]`` sends a raw pair tag to its canonical
    representative; ``ref_of[(m, rep)]`` to the cell reference over the
    presented complex; ``origin[(m, name)]`` back to the representative.
    """

    complex: SimplicialSet
    class_of: dict[tuple[int, str], str]
    ref_of: dict[tuple[int, str], CellRef]
    origin: dict[tuple[int, str], str]
    source: SimplicialSet

    def pair_ref(self, m: int, a: int, xref: CellRef, cref: CellRef) -> CellRef:
        return self.ref_of[(m, self.class_of[(m, _glue_tag(a, xref, cref))])]


def sd(x: SimplicialSet) -> SdResult:
    """Barycentric subdivision of an arbitrary bounded complex.

    Levelwise coend over the ordinal category: pairs (a-cell of X, m-cell
    of sd(Δᵃ)) are glued along faces and degeneracies in the X slot against
    sd of the corresponding coface or codegeneracy in the other slot.
    """
    model, class_of = _glued_model(x)
    model.verify()
    complex_, ref_of, origin = model.to_presentation("b")
    return SdResult(complex_, class_of, ref_of, origin, x)


def _glued_model(
    x: SimplicialSet,
) -> tuple[LevelwiseSSet, dict[tuple[int, str], str]]:
    """The levelwise model of sd(X) and the class of every pair tag.

    Each cell reference is serialized once, each sd of an elementary map
    is applied once per level, and each representative is split once;
    these lookups are dropped on return, before the model is checked.
    """
    n_top = x.max_dim
    names: dict[CellRef, str] = {}

    def name(ref: CellRef) -> str:
        text = names.get(ref)
        if text is None:
            text = names[ref] = ref.serialize()
        return text

    x_cells = {a: x.all_cells(a) for a in range(n_top + 1)}
    sd_of = {a: sd_simplex(a, n_top) for a in range(n_top + 1)}
    sd_cells = {
        a: {m: sd_of[a].all_cells(m) for m in range(n_top + 1)}
        for a in range(n_top + 1)
    }
    sd_names = {
        a: {m: [name(cref) for cref in sd_cells[a][m]] for m in range(n_top + 1)}
        for a in range(n_top + 1)
    }
    # the names of the faces and of the degeneracies of each sd(Δᵃ) cell
    sd_ops: dict[tuple[int, str], tuple[list[str], list[str]]] = {}
    for a in range(n_top + 1):
        for m in range(n_top + 1):
            for c, cref in zip(sd_names[a][m], sd_cells[a][m]):
                faces = [sd_of[a].face(cref, i) for i in range(m + 1)] if m else []
                degs = (
                    [sd_of[a].degeneracy(cref, i) for i in range(m + 1)]
                    if m < n_top else []
                )
                sd_ops[(a, c)] = ([name(f) for f in faces], [name(d) for d in degs])
    # the "a$x$" head of the tags of each X cell and, per face or
    # degeneracy operator, the head of the image beside that of the cell
    head = {a: [f"{a}${name(xref)}$" for xref in x_cells[a]] for a in x_cells}
    face_heads = {
        (a, i): list(zip(
            (f"{a - 1}${name(x.face(xref, i))}$" for xref in x_cells[a]), head[a]
        ))
        for a in range(1, n_top + 1)
        for i in range(a + 1)
    }
    deg_heads = {
        (a, i): list(zip(
            (f"{a + 1}${name(x.degeneracy(xref, i))}$" for xref in x_cells[a]),
            head[a],
        ))
        for a in range(n_top)
        for i in range(a + 1)
    }

    levels: dict[int, list[str]] = {}
    class_of: dict[tuple[int, str], str] = {}
    for m in range(n_top + 1):
        tags = [
            h + c for a in range(n_top + 1) for h in head[a] for c in sd_names[a][m]
        ]
        pairs = []
        for (a, i), heads in face_heads.items():
            sd_di = sd_elementary_map(a, "d", i, n_top)
            images = [
                (c, name(sd_di.apply(cref)))
                for c, cref in zip(sd_names[a - 1][m], sd_cells[a - 1][m])
            ]
            for low, high in heads:
                pairs.extend((low + c, high + image) for c, image in images)
        for (a, i), heads in deg_heads.items():
            sd_si = sd_elementary_map(a, "s", i, n_top)
            images = [
                (c, name(sd_si.apply(cref)))
                for c, cref in zip(sd_names[a + 1][m], sd_cells[a + 1][m])
            ]
            for high, low in heads:
                pairs.extend((high + c, low + image) for c, image in images)
        classes = _union_find(tags, pairs)
        levels[m] = sorted(set(classes.values()))
        for tag, rep in classes.items():
            class_of[(m, tag)] = rep

    face_op: dict[tuple[int, int], dict[str, str]] = {}
    deg_op: dict[tuple[int, int], dict[str, str]] = {}
    for m in range(n_top + 1):
        split = []
        for rep in levels[m]:
            a, _, c = _tag_parts(rep)
            split.append((rep, rep[: -len(c)], *sd_ops[(a, c)]))
        for i in range(m + 1):
            if m > 0:
                face_op[(m, i)] = {
                    rep: class_of[(m - 1, prefix + down[i])]
                    for rep, prefix, down, _ in split
                }
            if m < n_top:
                deg_op[(m, i)] = {
                    rep: class_of[(m + 1, prefix + up[i])]
                    for rep, prefix, _, up in split
                }
    return LevelwiseSSet(n_top, levels, face_op, deg_op), class_of


def sd_map(f: SimplicialMap, sdx: SdResult, sdy: SdResult) -> SimplicialMap:
    """Functoriality of sd: apply f in the X slot of every glued pair."""
    cell_map = {}
    for m in range(sdx.complex.max_dim + 1):
        for name in sdx.complex.cells[m]:
            a, xref, cref = _split_tag(sdx.origin[(m, name)])
            cell_map[(m, name)] = sdy.pair_ref(m, a, f.apply(xref), cref)
    out = SimplicialMap(sdx.complex, sdy.complex, cell_map)
    out.validate()
    return out


def last_vertex(x: SimplicialSet, sdx: SdResult | None = None) -> SimplicialMap:
    """The natural map sd(X) → X induced by taking largest elements."""
    if sdx is None:
        sdx = sd(x)
    cell_map = {}
    for m in range(sdx.complex.max_dim + 1):
        for name in sdx.complex.cells[m]:
            a, xref, cref = _split_tag(sdx.origin[(m, name)])
            cell_map[(m, name)] = apply_delta_ref(
                x, xref, _last_vertex_delta(a, cref)
            )
    out = SimplicialMap(sdx.complex, x, cell_map)
    out.validate()
    return out


def last_vertex_simplex(n: int, max_dim: int | None = None) -> SimplicialMap:
    """sd(Δⁿ) → Δⁿ on the standard model (no gluing needed)."""
    sdn = sd_simplex(n, max_dim)
    target = standard_simplex(n, n)
    top = CellRef("-".join(str(v) for v in range(n + 1)), ())
    cell_map = {}
    for m in range(sdn.max_dim + 1):
        for name in sdn.cells[m]:
            cell_map[(m, name)] = apply_delta_ref(
                target, top, _last_vertex_delta(n, CellRef(name, ()))
            )
    out = SimplicialMap(sdn, target, cell_map)
    out.validate()
    return out


# -- the Ex functor -------------------------------------------------------------


@dataclass
class ExResult:
    complex: SimplicialSet
    maps: dict[int, list[SimplicialMap]]
    ref_of: dict[tuple[int, str], CellRef]
    level_name: dict[int, dict[tuple, str]]
    source: SimplicialSet

    def ref_of_map(self, n: int, m: SimplicialMap) -> CellRef:
        return self.ref_of[(n, self.level_name[n][m.signature()])]


def ex(
    x: SimplicialSet,
    budget: int = DEFAULT_HORN_BUDGET,
    allow_large: bool = False,
) -> ExResult:
    """Ex(X): level n holds the simplicial maps sd(Δⁿ) → X."""
    nondeg_total = sum(len(x.cells[n]) for n in range(x.max_dim + 1))
    if x.max_dim > 2 and nondeg_total > 50 and not allow_large:
        raise BudgetExceeded(
            "Ex above dimension 2 on a complex with more than 50 "
            "nondegenerate cells needs allow_large=True",
            cells=nondeg_total,
        )
    n_top = x.max_dim
    maps: dict[int, list[SimplicialMap]] = {}
    levels: dict[int, list[str]] = {}
    level_name: dict[int, dict[tuple, str]] = {}
    for n in range(n_top + 1):
        found = enumerate_maps(sd_simplex(n, n_top), x, budget=budget)
        maps[n] = found
        levels[n] = [f"m{n}_{k}" for k in range(len(found))]
        level_name[n] = {m.signature(): f"m{n}_{k}" for k, m in enumerate(found)}

    face_op = {}
    deg_op = {}
    for n in range(1, n_top + 1):
        for i in range(n + 1):
            pre = sd_elementary_map(n, "d", i, n_top)
            face_op[(n, i)] = {
                levels[n][k]: level_name[n - 1][pre.then(g).signature()]
                for k, g in enumerate(maps[n])
            }
    for n in range(n_top):
        for i in range(n + 1):
            pre = sd_elementary_map(n, "s", i, n_top)
            deg_op[(n, i)] = {
                levels[n][k]: level_name[n + 1][pre.then(g).signature()]
                for k, g in enumerate(maps[n])
            }
    model = LevelwiseSSet(n_top, levels, face_op, deg_op)
    model.verify()
    complex_, ref_of, _ = model.to_presentation("x")
    return ExResult(complex_, maps, ref_of, level_name, x)


def _vertex_tuple_delta(n: int, ref: CellRef) -> DeltaMap:
    """Read a cell of Δⁿ back as the ordinal map it classifies."""
    base_vertices = tuple(int(v) for v in ref.base.split("-"))
    base_dim = len(base_vertices) - 1
    if not ref.word:
        return DeltaMap(base_dim, n, base_vertices)
    ws = word_surjection(ref.word, base_dim)
    return DeltaMap(
        ws.domain, n, tuple(base_vertices[ws(k)] for k in range(ws.domain + 1))
    )


def ex_unit(x: SimplicialSet, exx: ExResult | None = None) -> SimplicialMap:
    """X → Ex(X): a cell goes to its classifying map precomposed with the
    last-vertex map of the standard simplex."""
    if exx is None:
        exx = ex(x)
    n_top = x.max_dim
    cell_map = {}
    for n in range(n_top + 1):
        lv = last_vertex_simplex(n, n_top)
        for name in x.cells[n]:
            unit_map = SimplicialMap(
                sd_simplex(n, n_top),
                x,
                {
                    key: apply_delta_ref(
                        x,
                        CellRef(name, ()),
                        _vertex_tuple_delta(n, lv.cell_map[key]),
                    )
                    for key in lv.cell_map
                },
            )
            cell_map[(n, name)] = exx.ref_of_map(n, unit_map)
    out = SimplicialMap(x, exx.complex, cell_map)
    out.validate()
    return out


@dataclass
class ExIterStage:
    stage: int
    counts: tuple[int, ...]
    verdict: str
    unfilled: int
    unfilled_inner: int


def ex_iter(
    x: SimplicialSet,
    k: int,
    budget: int = DEFAULT_HORN_BUDGET,
    allow_large: bool = False,
) -> tuple[SimplicialSet, list[ExIterStage]]:
    """Iterate Ex k times, reporting horn deficiencies at every stage."""
    if k < 0:
        raise SchemaError(f"iteration count must be nonnegative, got {k}")
    stages = []
    current = x
    for stage in range(k + 1):
        result = classify(current, current.max_dim, budget=budget)
        stages.append(
            ExIterStage(
                stage,
                current.counts(),
                result.verdict,
                result.unfilled(),
                result.unfilled(inner_only=True),
            )
        )
        if stage < k:
            current = ex(current, budget=budget, allow_large=allow_large).complex
    return current, stages
