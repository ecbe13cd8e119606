"""Barycentric subdivision, its right adjoint Ex, and finite Ex iteration.

sd(Δⁿ) is the nerve of the poset of nonempty subsets of [n].  For a general
complex, sd(X) is read off the Eilenberg–Zilber normal forms of the
colimit of the sd(Δᵃ): a nondegenerate m-cell is a nondegenerate a-cell of
X beside a strict chain of subsets of [a] topped by [a].  Ex(X) is built
the other way around: its n-cells are the simplicial maps sd(Δⁿ) → X, with
operators given by precomposition, glued levelwise in a
:class:`LevelwiseSSet`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, wraps
from operator import itemgetter
from types import MappingProxyType

from .errors import BudgetExceeded, DEFAULT_HORN_BUDGET, SchemaError
from .fincat import FinCategory, FinFunctor, validate_category
# an alias that nothing here calls any more; perfbench/tracing.py looks it up
from .fincat import quotient as _union_find  # noqa: F401
from .simplicial import (
    CellRef,
    DeltaMap,
    SimplicialMap,
    SimplicialSet,
    apply_delta_ref,
    classify,
    enumerate_maps,
    image_texts,
    nerve,
    nerve_names,
    nerve_map,
    normalize_word,
    standard_simplex,
    word_surjection,
)


# -- the subset poset and sd on standard simplices ---------------------------


def _subset_name(subset: tuple[int, ...]) -> str:
    return ".".join(str(v) for v in subset)


def _subsets(n: int) -> tuple[tuple[int, ...], ...]:
    """The nonempty subsets of [n], in the order of the objects of
    :func:`subset_poset`."""
    return tuple(
        s for size in range(1, n + 2) for s in itertools.combinations(range(n + 1), size)
    )


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
    subsets = _subsets(n)
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
    dst_name = dict(zip(_subsets(n_dst), dst.objects))
    object_map = {
        name: dst_name[tuple(sorted({vertex_map(v) for v in subset}))]
        for name, subset in zip(src.objects, _subsets(n_src))
    }
    # a poset has one morphism between comparable objects, the identity or not
    morphism_map = {
        m.name: dst.hom(object_map[m.src], object_map[m.dst])[0] for m in src.morphisms
    }
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


def _subset_chains(n: int, max_dim: int):
    """Each nondegenerate cell of sd(Δⁿ) up to ``max_dim``, in the order of
    :func:`sd_simplex`, as ``((m, name), chain)`` with ``chain`` the
    subsets of [n] the cell visits."""
    poset = subset_poset(n)
    subset = dict(zip(poset.objects, _subsets(n)))
    vertices, chains = nerve_names(poset, max_dim)
    for obj, name in vertices.items():
        yield (0, name), (subset[obj],)
    for arrows, name in chains.items():
        chain = (poset.src(arrows[0]),) + tuple(poset.dst(a) for a in arrows)
        yield (len(arrows), name), tuple(subset[v] for v in chain)


@lru_cache(maxsize=None)
def _last_vertex_deltas(
    n: int, max_dim: int
) -> tuple[tuple[tuple[int, str], DeltaMap], ...]:
    """Each nondegenerate cell of sd(Δⁿ) beside the ordinal map picking the
    largest element of each subset it visits."""
    return tuple(
        (key, DeltaMap(len(chain) - 1, n, tuple(s[-1] for s in chain)))
        for key, chain in _subset_chains(n, max_dim)
    )


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

Chain = tuple[tuple[int, ...], ...]  # nonempty subsets of [a], increasing


@lru_cache(maxsize=None)
def _top_chains(a: int, max_dim: int) -> dict[Chain, int]:
    """The strict chains S₀ ⊊ … ⊊ Sₘ = [a] with m ≤ max_dim, in the cell
    order of sd(Δᵃ), each beside its chain id, its position there."""
    chains = [chain for _, chain in _subset_chains(a, max_dim) if len(chain[-1]) == a + 1]
    return {chain: k for k, chain in enumerate(chains)}


@lru_cache(maxsize=None)
def _chain_template(a: int, chain: Chain) -> tuple:
    """What :meth:`SdResult.pair_ref` reads off a weakly increasing chain of
    nonempty subsets of [a]: its top subset T, the vertices of [a] outside
    T (largest first), the chain relabelled by position in T, the strict
    part of that, and the degeneracy word of its repeats, as in
    :func:`surjection_word`.  The keys are cells of sd(Δᵃ), so the cache
    stays within those of the degrees in use."""
    top = chain[-1]
    position = {v: k for k, v in enumerate(top)}
    relabelled = tuple(tuple(position[v] for v in s) for s in chain)
    missing = tuple(i for i in range(a, -1, -1) if i not in position)
    word = tuple(i for i in range(len(chain) - 2, -1, -1) if chain[i] == chain[i + 1])
    return top, missing, relabelled, tuple(dict.fromkeys(relabelled)), word


@lru_cache(maxsize=None)
def _top_plan(a: int, max_dim: int) -> tuple[dict, tuple]:
    """How :func:`sd` glues the top chains of :func:`_top_chains`:
    ``(tops, steps)``.  ``tops`` numbers the proper subsets T of [a] that
    some d_m reaches (all of them once max_dim ≥ 1) by the vertices of [a]
    outside T, largest first.  ``steps`` holds, by chain id,
    ``(a, chain, m, name, pick, t, strict)``: the chain, its length m and
    name in sd(Δᵃ), the ``itemgetter`` of the chain ids of its faces d_0,
    …, d_{m-1} (one id when m = 1), and for d_m, which drops [a], the
    number t of its top T and the chain id of its relabelled strict chain
    among the top chains of sd(Δ^{|T|-1}), as in :func:`_chain_template`.
    The 0-chain has no faces, and ``None`` in their places."""
    ids, tops, steps = _top_chains(a, max_dim), {}, []
    for (m, name), chain in _subset_chains(a, max_dim):
        if chain not in ids:
            continue
        if not m:
            steps.append((a, chain, m, name, None, None, None))
            continue
        top, missing, _, strict, _ = _chain_template(a, chain[:-1])
        steps.append((a, chain, m, name,
                      itemgetter(*[ids[chain[:i] + chain[i + 1:]] for i in range(m)]),
                      tops.setdefault(missing, len(tops)),
                      _top_chains(len(top) - 1, max_dim)[strict]))
    return tops, tuple(steps)


@dataclass
class SdResult:
    """Subdivided complex plus the Eilenberg–Zilber normal forms of its cells.

    ``origin[(m, name)]`` is ``(a, x, chain)``: the nondegenerate a-cell x
    of the source and the strict chain of subsets of [a], with top [a],
    whose pair is the cell; ``cell_ref`` is the inverse, keyed by
    ``(x, chain)``, with one shared ``CellRef`` per new cell.  Both are
    built on first read from the records :func:`sd` keeps: per level, each
    cell's source cell and :func:`_top_plan` step, aligned with
    ``complex.cells[m]``; per source cell, its new cells by chain id and
    its restrictions to the subsets T of its vertices, by the number of T.
    """

    source: SimplicialSet
    complex: SimplicialSet = field(init=False)
    _levels: dict[int, list[tuple]] = field(default_factory=dict, repr=False)
    _refs: dict[str, list[CellRef]] = field(default_factory=dict, repr=False)
    _rests: dict[str, list[tuple]] = field(default_factory=dict, repr=False)

    @cached_property
    def origin(self) -> dict[tuple[int, str], tuple[int, str, Chain]]:
        return {
            (m, fresh): (step[0], name, step[1])
            for m, entries in self._levels.items()
            for fresh, (_, name, _, step) in zip(self.complex.cells[m], entries)
        }

    @cached_property
    def cell_ref(self) -> dict[tuple[str, Chain], CellRef]:
        return {
            (name, step[1]): self._ref(name, k)
            for entries in self._levels.values()
            for _, name, k, step in entries
        }

    def _ref(self, name: str, k: int) -> CellRef:
        """The new cell of chain id k on the source cell ``name``.  Top-level
        cells are faces of none, so :func:`sd` keeps their names until read."""
        ref = self._refs[name][k]
        if ref.__class__ is str:
            ref = self._refs[name][k] = CellRef(ref)
        return ref

    def pair_ref(self, a: int, xref: CellRef, chain: Chain) -> CellRef:
        """The cell of sd(X) glued from an arbitrary a-cell of X and a weakly
        increasing chain of nonempty subsets of [a].

        Until the pair is normal: push the chain through the surjection of
        the cell's degeneracy word, restrict the base cell to the chain's
        top subset T, and relabel the chain by position in T.  Once the
        restriction is nondegenerate, the strict part of the relabelled
        chain names the cell and its repeats give the degeneracy word.
        """
        base, word = xref.base, xref.word
        while True:
            if word:
                a -= len(word)
                surj = word_surjection(word, a).values
                chain = tuple(tuple(dict.fromkeys(surj[v] for v in s)) for s in chain)
            top, missing, relabelled, strict, repeats = _chain_template(a, chain)
            if missing:
                base, word = self._rests[base][_top_plan(a, self.source.max_dim)[0][missing]]
            else:
                word = ()
            if not word:
                ref = self._ref(base, _top_chains(len(top) - 1, self.source.max_dim)[strict])
                return CellRef(ref.base, repeats) if repeats else ref
            a, chain = len(top) - 1, relabelled


def sd(x: SimplicialSet) -> SdResult:
    """Barycentric subdivision of an arbitrary bounded complex.

    sd(X) is the colimit of sd(Δᵃ) over the cells of X.  By the
    Eilenberg–Zilber lemma each of its nondegenerate m-cells is exactly one
    pair (x, S₀ ⊊ … ⊊ Sₘ = [a]) of a nondegenerate a-cell of X and a strict
    chain topped by [a].  The faces d_i, i < m, drop Sᵢ; d_m drops [a].
    Each is glued from the :func:`_top_plan` step of the chain: d_i, i < m,
    and a nondegenerate restriction of x to the top of d_m's chain are
    read off the new cells of a source cell by chain id, and a degenerate
    one is brought to normal form by :meth:`SdResult.pair_ref`.  Each
    level is ordered by the string ``f"{a}${x}${chain}"`` and named
    ``b{m}_{k}``; the result is checked with ``SimplicialSet.validate``.
    """
    n_top = x.max_dim
    result = SdResult(x)
    refs, rests = result._refs, result._rests
    keyed: dict[int, list[tuple]] = {m: [] for m in range(n_top + 1)}
    for a in range(n_top + 1):
        if not x.cells[a]:
            continue  # a degree's plan is built when it first has cells
        tops, steps = _top_plan(a, n_top)
        for name in x.cells[a]:
            head = f"{a}${name}$"
            refs[name] = [None] * len(steps)
            rests[name] = rest = []
            for missing in tops:
                restricted = (name, ())
                for i in missing:
                    restricted = x.faces_of(*restricted)[i]
                rest.append(restricted)
            for k, step in enumerate(steps):
                keyed[step[2]].append((head + step[3], name, k, step))
    cells: dict[int, list[str]] = {}
    faces = {}
    # a level's faces lie in the levels below it, named by then
    for m, entries in keyed.items():
        entries.sort()
        cells[m] = [f"b{m}_{k}" for k in range(len(entries))]
        result._levels[m] = entries
        for fresh, (_, name, k, step) in zip(cells[m], entries):
            own = refs[name]
            own[k] = fresh if m == n_top else CellRef(fresh)
            if m:
                a, chain, _, _, pick, t, strict = step
                base, word = rests[name][t]
                d_m = (refs[base][strict] if not word
                       else result.pair_ref(a, CellRef(name), chain[:-1]))
                faces[(m, fresh)] = pick(own) + (d_m,) if m > 1 else (pick(own), d_m)
    result.complex = SimplicialSet(n_top, cells, faces)
    result.complex.validate()
    return result


def sd_map(f: SimplicialMap, sdx: SdResult, sdy: SdResult) -> SimplicialMap:
    """Functoriality of sd: apply f in the X slot of every glued pair."""
    cell_map = {
        key: sdy.pair_ref(a, f.apply(CellRef(name)), chain)
        for key, (a, name, chain) in sdx.origin.items()
    }
    out = SimplicialMap(sdx.complex, sdy.complex, cell_map)
    out.validate()
    return out


def last_vertex(x: SimplicialSet, sdx: SdResult | None = None) -> SimplicialMap:
    """The natural map sd(X) → X induced by taking largest elements."""
    if sdx is None:
        sdx = sd(x)
    cell_map = {
        (m, fresh): apply_delta_ref(
            x, CellRef(name), DeltaMap(m, a, tuple(s[-1] for s in chain))
        )
        for (m, fresh), (a, name, chain) in sdx.origin.items()
    }
    out = SimplicialMap(sdx.complex, x, cell_map)
    out.validate()
    return out


def last_vertex_simplex(n: int, max_dim: int | None = None) -> SimplicialMap:
    """sd(Δⁿ) → Δⁿ on the standard model (no gluing needed)."""
    sdn = sd_simplex(n, max_dim)
    target = standard_simplex(n, n)
    top = CellRef(target.cells[n][0])
    cell_map = {
        key: apply_delta_ref(target, top, delta)
        for key, delta in _last_vertex_deltas(n, sdn.max_dim)
    }
    out = SimplicialMap(sdn, target, cell_map)
    out.validate()
    return out


# -- the Ex functor -------------------------------------------------------------


@dataclass
class ExResult:
    """Ex(X) with its levels of maps sd(Δⁿ) → X.  ``level_name[n]`` names
    each level-n map by the key :func:`image_texts` gives it: the texts of
    its images, in the cell order of sd(Δⁿ)."""

    complex: SimplicialSet
    maps: dict[int, list[SimplicialMap]]
    ref_of: dict[tuple[int, str], CellRef]
    level_name: dict[int, dict[tuple[str, ...], str]]
    source: SimplicialSet

    def ref_of_map(self, n: int, m: SimplicialMap) -> CellRef:
        return self.ref_of[(n, self.level_name[n][image_texts(m.images(), {})])]


def ex(
    x: SimplicialSet,
    budget: int = DEFAULT_HORN_BUDGET,
    allow_large: bool = False,
) -> ExResult:
    """Ex(X): level n holds the simplicial maps sd(Δⁿ) → X.

    A map is named by the texts of its images (:func:`image_texts`), each
    distinct image serialized once per call.  The operator tables apply
    each map to the images of sd of a coface or codegeneracy, so no
    composite map is built.
    """
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
    level_name: dict[int, dict[tuple[str, ...], str]] = {}
    texts: dict[CellRef, str] = {}
    for n in range(n_top + 1):
        found = enumerate_maps(sd_simplex(n, n_top), x, budget=budget)
        maps[n] = found
        levels[n] = [f"m{n}_{k}" for k in range(len(found))]
        level_name[n] = {
            image_texts(m.images(), texts): name for m, name in zip(found, levels[n])
        }

    def table(n: int, kind: str, i: int, names: dict[tuple[str, ...], str]):
        pre_images = sd_elementary_map(n, kind, i, n_top).images()
        return {
            name: names[image_texts([g.apply(r) for r in pre_images], texts)]
            for g, name in zip(maps[n], levels[n])
        }

    face_op = {
        (n, i): table(n, "d", i, level_name[n - 1])
        for n in range(1, n_top + 1)
        for i in range(n + 1)
    }
    deg_op = {
        (n, i): table(n, "s", i, level_name[n + 1])
        for n in range(n_top)
        for i in range(n + 1)
    }
    model = LevelwiseSSet(n_top, levels, face_op, deg_op)
    model.verify()
    complex_, ref_of, _ = model.to_presentation("x")
    return ExResult(complex_, maps, ref_of, level_name, x)


def ex_unit(x: SimplicialSet, exx: ExResult | None = None) -> SimplicialMap:
    """X → Ex(X): a cell goes to its classifying map precomposed with the
    last-vertex map of the standard simplex."""
    if exx is None:
        exx = ex(x)
    n_top = x.max_dim
    cell_map = {}
    for n in range(n_top + 1):
        deltas = _last_vertex_deltas(n, n_top)
        for name in x.cells[n]:
            cell = CellRef(name)
            unit_map = SimplicialMap(
                sd_simplex(n, n_top),
                x,
                {key: apply_delta_ref(x, cell, delta) for key, delta in deltas},
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
