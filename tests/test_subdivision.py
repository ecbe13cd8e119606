from __future__ import annotations

import functools
import hashlib
import json
import random
from dataclasses import dataclass

import pytest

from homcat import fincat, simplicial, subdivision
from homcat.errors import BudgetExceeded, SchemaError
from homcat.fincat import quotient as _union_find
from homcat.simplicial import (
    CellRef,
    DeltaMap,
    SimplicialMap,
    SimplicialSet,
    apply_delta_ref,
    boundary,
    enumerate_maps,
    horn,
    image_texts,
    nerve,
    normalize_word,
    parse_cell_ref,
    standard_simplex,
    word_surjection,
)
from homcat.subdivision import (
    SdResult,
    _chain_template,
    _subset_chains,
    _top_plan,
    ex,
    ex_iter,
    ex_unit,
    last_vertex,
    last_vertex_simplex,
    sd,
    sd_elementary_map,
    sd_map,
    sd_simplex,
    subset_poset,
)

import corpus
from test_homotopy import rp2_triangulation, torus_triangulation
from test_simplicial import s1_model


def test_subset_poset_sizes():
    assert len(subset_poset(1).objects) == 3
    assert len(subset_poset(2).objects) == 7


def test_sd_simplex_counts():
    assert sd_simplex(0).counts() == (1,)
    assert sd_simplex(1).counts() == (3, 2)
    assert sd_simplex(2).counts() == (7, 12, 6)


def attempt(change) -> None:
    """Run a mutation of a cached result; a read-only result refuses it."""
    try:
        change()
    except (AttributeError, TypeError):
        pass


def test_cached_results_cannot_be_changed_by_a_caller():
    x, poset, coface = sd_simplex(1), subset_poset(1), sd_elementary_map(1, "d", 0, 1)
    before = (
        list(x.cells[0]), dict(x.faces), list(poset.objects), dict(poset.identity),
        dict(coface.cell_map),
    )
    attempt(lambda: x.cells[0].append("zz"))
    attempt(lambda: x.cells.__setitem__(3, ["zz"]))
    attempt(lambda: x.faces.clear())
    attempt(lambda: poset.objects.append("zz"))
    attempt(lambda: poset.compose_table.clear())
    attempt(lambda: poset.identity.__setitem__("0", "zz"))
    attempt(lambda: coface.cell_map.clear())
    x, poset, coface = sd_simplex(1), subset_poset(1), sd_elementary_map(1, "d", 0, 1)
    after = (
        list(x.cells[0]), dict(x.faces), list(poset.objects), dict(poset.identity),
        dict(coface.cell_map),
    )
    assert after == before
    assert sd_simplex(1).counts() == (3, 2) and 3 not in sd_simplex(1).cells
    assert len(subset_poset(1).compose_table) == len(poset.compose_table) > 0
    # the shared results still do their work
    assert sd(standard_simplex(1, 1)).complex.counts() == (3, 2)


def test_sd_general_matches_poset_nerve_on_standard_simplices():
    assert sd(standard_simplex(0, 0)).complex.counts() == (1,)
    assert sd(standard_simplex(1, 1)).complex.counts() == (3, 2)
    assert sd(standard_simplex(2, 2)).complex.counts() == (7, 12, 6)


def test_sd_of_circle_is_two_edge_circle():
    result = sd(s1_model())
    assert result.complex.counts() == (2, 2, 0)
    # both edges run between the two vertices, forming one loop
    edges = result.complex.cells[1]
    endpoints = [
        {result.complex.faces[(1, e)][0].base, result.complex.faces[(1, e)][1].base}
        for e in edges
    ]
    assert endpoints[0] == endpoints[1]
    assert len(endpoints[0]) == 2


def test_sd_of_boundary():
    # sd(∂Δ²) is a hexagon: 6 vertices, 6 edges
    result = sd(boundary(2))
    assert result.complex.counts() == (6, 6, 0)


def test_sd_preserves_gluing_counts():
    # gluing two standard triangles along an edge, then subdividing, gives
    # the same counts as subdividing and gluing the subdivided halves
    # (12 = 6 + 6 triangles, shared edge subdivided once)
    two = SimplicialSet(
        2,
        {0: ["p", "q", "r", "s"], 1: ["pq", "pr", "qr", "qs", "rs"], 2: ["t1", "t2"]},
        {
            (1, "pq"): (CellRef("q"), CellRef("p")),
            (1, "pr"): (CellRef("r"), CellRef("p")),
            (1, "qr"): (CellRef("r"), CellRef("q")),
            (1, "qs"): (CellRef("s"), CellRef("q")),
            (1, "rs"): (CellRef("s"), CellRef("r")),
            (2, "t1"): (CellRef("qr"), CellRef("pr"), CellRef("pq")),
            (2, "t2"): (CellRef("rs"), CellRef("qs"), CellRef("qr")),
        },
    )
    two.validate()
    result = sd(two)
    # each triangle contributes 6 small triangles; vertices: 4 original +
    # 5 edge barycenters + 2 face barycenters
    assert result.complex.counts() == (11, 22, 12)


def test_sd_accepts_dollar_in_cell_names():
    # '$' also joins the gluing tags; a vertex named with it must subdivide
    # like any other name
    def edge_to(head: str) -> SimplicialSet:
        x = SimplicialSet(
            1, {0: ["r", head], 1: ["e"]}, {(1, "e"): (CellRef(head), CellRef("r"))}
        )
        x.validate()
        return x

    plain, dollar = edge_to("pq"), edge_to("p$q")
    assert sd(dollar).complex.counts() == sd(plain).complex.counts() == (3, 2)
    last_vertex(dollar).validate()


def test_last_vertex_on_sd_delta1():
    lv = last_vertex_simplex(1)
    # the edge {0} ⊂ {0,1} lands on the 1-cell, the edge {1} ⊂ {0,1} on the
    # degenerate edge at vertex 1
    assert lv.cell_map[(1, "0<0.1")] == CellRef("0-1", ())
    assert lv.cell_map[(1, "1<0.1")] == CellRef("1", (0,))


def test_last_vertex_on_point_is_identity():
    lv = last_vertex(standard_simplex(0, 0))
    assert lv.cell_map[(0, "b0_0")] == CellRef("0", ())


def test_last_vertex_is_natural():
    # f ∘ last_vertex(X) = last_vertex(Y) ∘ sd(f) for corpus maps
    x = standard_simplex(1, 1)
    y = s1_model()
    collapse = SimplicialMap(
        x,
        y,
        {(0, "0"): CellRef("v"), (0, "1"): CellRef("v"), (1, "0-1"): CellRef("a")},
    )
    collapse.validate()
    sdx, sdy = sd(x), sd(y)
    lvx, lvy = last_vertex(x, sdx), last_vertex(y, sdy)
    sdf = sd_map(collapse, sdx, sdy)
    for m in range(sdx.complex.max_dim + 1):
        for name in sdx.complex.cells[m]:
            left = collapse.apply(lvx.cell_map[(m, name)])
            right = lvy.apply(sdf.cell_map[(m, name)])
            assert left == right


def test_maps_from_sd_delta1_to_circle():
    maps = enumerate_maps(sd_simplex(1), s1_model())
    assert len(maps) == 4


def test_ex_level_zero_is_vertices():
    for x in [s1_model(), boundary(2), nerve(corpus.walking_arrow(), 2)]:
        result = ex(x)
        assert len(result.maps[0]) == len(x.cells[0])


def test_ex_of_circle_level_one():
    result = ex(s1_model())
    assert len(result.maps[1]) == 4


def test_ex_unit_is_injective_on_nondegenerate_cells():
    for x in [s1_model(), standard_simplex(1, 1), horn(2, 1, max_dim=2)]:
        exx = ex(x)
        unit = ex_unit(x, exx)
        seen = set()
        for n in range(x.max_dim + 1):
            for name in x.cells[n]:
                image = unit.cell_map[(n, name)]
                assert (n, image) not in seen
                seen.add((n, image))


def test_ex_guard_on_large_high_dimensional_input():
    big = SimplicialSet(
        3,
        {0: [f"v{k}" for k in range(60)], 1: [], 2: [], 3: []},
        {},
    )
    with pytest.raises(BudgetExceeded):
        ex(big)


def loops_e_f() -> SimplicialSet:
    """One vertex a, two loops e, f and a 2-cell t with faces (e, f, e).
    The texts and the (base, word) pairs of its cells order differently:
    "e" < "s0 a" but ("a", (0,)) < ("e", ()), and "s0 f" < "s1 e" but
    ("e", (1,)) < ("f", (0,))."""
    a, e, f = CellRef("a"), CellRef("e"), CellRef("f")
    x = SimplicialSet(2, {0: ["a"], 1: ["e", "f"], 2: ["t"]}, {
        (1, "e"): (a, a), (1, "f"): (a, a), (2, "t"): (e, f, e),
    })
    x.validate()
    return x


def sha256_of(payload) -> str:
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_ex_of_ex_is_byte_identical():
    twice = ex(ex(standard_simplex(1, 1)).complex).complex
    assert sha256_of(twice.to_json_dict()) == (
        "332e16787650bb222fd012b2dbc7ac27dceaaafb98b6c605a2e62e5a59c73943")


def unit_on_loops_e_f() -> dict[str, str]:
    unit = ex_unit(loops_e_f())
    return {f"{n} {name}": ref.serialize() for (n, name), ref in unit.cell_map.items()}


# the names the unit of loops_e_f lands on, recorded before Ex keyed its
# maps by image texts
UNIT_ON_LOOPS_E_F = {"0 a": "x0_0", "1 e": "x1_2", "1 f": "x1_5", "2 t": "x2_28"}


def test_ex_unit_names_follow_the_image_texts():
    cell_map = unit_on_loops_e_f()
    assert cell_map == UNIT_ON_LOOPS_E_F
    assert sha256_of(cell_map) == (
        "fa1c945e7db40d8e5209f6d4a871eb318ccd8a318791422b430d0ac953636702")


def image_text_cases() -> list[list[SimplicialMap]]:
    """Every enumerate_maps result from sd(Δⁿ) and small complexes into the
    corpus complexes, Ex(S¹) and Ex(BZ/3); sd(Δ²) only into the corpus."""
    small = [standard_simplex(2, 2), horn(2, 1), s1_model(), loops_e_f()]
    corpus_targets = [
        s1_model(), loops_e_f(), horn(2, 1), boundary(2), standard_simplex(2, 2),
        nerve(corpus.walking_arrow(), 2), BZ2,
    ]
    ex_targets = [ex(s1_model()).complex, ex(nerve(corpus.cyclic_group_category(3), 2)).complex]
    sources = [sd_simplex(n, 2) for n in range(3)] + small
    return [enumerate_maps(x, y) for y in corpus_targets for x in sources] + [
        enumerate_maps(x, y) for y in ex_targets for x in sources[:2] + small
    ]


def keys_order_like_signatures(cases, key) -> bool:
    """Whether ``key(m.images(), texts)`` sorts each case's maps exactly as
    their signatures do, and gives two maps equal keys only when their
    signatures are equal."""
    for found in cases:
        texts: dict = {}
        keys = [key(m.images(), texts) for m in found]
        sigs = [m.signature() for m in found]
        span = range(len(found))
        if sorted(span, key=keys.__getitem__) != sorted(span, key=sigs.__getitem__):
            return False
        signature_of: dict = {}
        if any(signature_of.setdefault(k, s) != s for k, s in zip(keys, sigs)):
            return False
    return True


def by_pairs(images, texts):
    return tuple((ref.base, ref.word) for ref in images)


def without_last_cell(images, texts):
    return image_texts(images, texts)[:-1]


def test_image_texts_order_and_compare_like_signatures():
    cases = image_text_cases()
    assert sum(map(len, cases)) == 1728
    for found in cases:  # enumerate_maps returns them in signature order
        assert [m.signature() for m in found] == sorted(m.signature() for m in found)
    assert keys_order_like_signatures(cases, image_texts)
    # the controls: a key on (base, word) pairs orders the loops of
    # loops_e_f below "s0 a"; one without the last cell merges maps
    assert not keys_order_like_signatures(cases, by_pairs)
    assert not keys_order_like_signatures(cases, without_last_cell)


def test_ex_names_change_under_a_mutated_key(monkeypatch):
    for module in (simplicial, subdivision):
        monkeypatch.setattr(module, "image_texts", by_pairs)
    assert unit_on_loops_e_f() != UNIT_ON_LOOPS_E_F
    for module in (simplicial, subdivision):
        monkeypatch.setattr(module, "image_texts", without_last_cell)
    with pytest.raises(SchemaError):  # merged maps break d_j s_j = id
        unit_on_loops_e_f()


def test_adjunction_cardinality_on_corpus():
    pairs = [
        (standard_simplex(0, 1), s1_model()),
        (standard_simplex(1, 1), s1_model()),
        (standard_simplex(1, 1), standard_simplex(1, 1)),
        (s1_model(), s1_model()),
        (horn(2, 1, max_dim=2), nerve(corpus.cyclic_group_category(2), 2)),
    ]
    for x, y in pairs:
        # source and target truncations must agree for the comparison
        n = min(x.max_dim, y.max_dim)
        lhs = len(enumerate_maps(sd(x).complex, y))
        rhs = len(enumerate_maps(x, ex(y).complex))
        assert lhs == rhs, (x.counts(), y.counts(), lhs, rhs)


BZ2 = nerve(corpus.cyclic_group_category(2), 2)
ADJUNCTION_PAIRS = [
    (standard_simplex(0, 1), s1_model()),
    (standard_simplex(1, 1), s1_model()),
    (standard_simplex(1, 1), standard_simplex(1, 1)),
    (s1_model(), s1_model()),
    (horn(2, 1, max_dim=2), BZ2),
    # the 2-cells of BZ/2 have degenerate faces, so these two pairs also
    # send chains through degenerate restrictions
    (BZ2, BZ2),
    (BZ2, s1_model()),
]


def assert_transposes_biject(
    a_cx: SimplicialSet, x: SimplicialSet, sda: SdResult
) -> None:
    """Each f: sd A → X has the transpose f♯: A → Ex X sending an n-cell a
    to the map sd(Δⁿ) → X that puts each chain at f of the pair (a, chain)
    of sd A; f ↦ f♯ must be a bijection onto the maps A → Ex X."""
    exx = ex(x)
    n_top = x.max_dim
    maps = enumerate_maps(sda.complex, x)
    transposes = set()
    for f in maps:
        cell_map = {}
        for n in range(a_cx.max_dim + 1):
            for name in a_cx.cells[n]:
                g = SimplicialMap(sd_simplex(n, n_top), x, {
                    key: f.apply(sda.pair_ref(n, CellRef(name), chain))
                    for key, chain in _subset_chains(n, n_top)
                })
                g.validate()
                cell_map[(n, name)] = exx.ref_of_map(n, g)
        SimplicialMap(a_cx, exx.complex, cell_map).validate()
        transposes.add(tuple(sorted(cell_map.items())))
    assert len(transposes) == len(maps)  # distinct maps, distinct transposes
    assert len(maps) == len(enumerate_maps(a_cx, exx.complex))


def test_sd_ex_transposes_are_a_bijection():
    for a_cx, x in ADJUNCTION_PAIRS:
        assert_transposes_biject(a_cx, x, sd(a_cx))


def test_sd_ex_transposes_need_the_degeneracy_word(monkeypatch):
    subdivided = [sd(a_cx) for a_cx, _ in ADJUNCTION_PAIRS]
    original = SdResult.pair_ref

    def wordless(self, a, xref, chain):
        return CellRef(original(self, a, xref, chain).base)

    monkeypatch.setattr(SdResult, "pair_ref", wordless)
    failed = 0
    for (a_cx, x), sda in zip(ADJUNCTION_PAIRS, subdivided):
        try:
            assert_transposes_biject(a_cx, x, sda)
        except SchemaError:
            failed += 1
    assert failed == 2  # the two pairs with degenerate restrictions


def test_ex_iter_stage_zero_is_input():
    x = s1_model()
    final, stages = ex_iter(x, 0)
    assert final is x
    assert stages[0].stage == 0
    assert stages[0].counts == x.counts()


def test_ex_iter_on_inner_horn_reports_deficiency():
    h = horn(2, 1, max_dim=2)
    _, stages = ex_iter(h, 2, budget=10**8)
    assert stages[0].unfilled_inner >= 1
    assert len(stages) == 3
    assert [s.stage for s in stages] == [0, 1, 2]
    # deficiency counts are reported per stage, not asserted monotone: the
    # assignment pool itself grows with the complex; on this corpus the
    # second stage already fills everything
    assert stages[2].unfilled == 0


def test_ex_iter_keeps_nerve_of_group_kan():
    bg = nerve(corpus.cyclic_group_category(2), 2)
    _, stages = ex_iter(bg, 1)
    assert stages[0].verdict == "kan"
    assert stages[1].verdict == "kan"


# -- the levelwise gluing oracle ---------------------------------------------------
#
# sd as it was built before it read its cells off their Eilenberg–Zilber
# normal forms, kept verbatim as an oracle: every (a-cell of X, cell of
# sd(Δᵃ)) pair gets a string tag, the tags are glued with a union-find,
# and the levelwise model is checked and presented.  The normal-form sd
# must give the same bytes, cell maps and pair references.


def _oracle_chain_vertex_tuple(ref: CellRef) -> tuple[str, ...]:
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


def _oracle_last_vertex_delta(n: int, ref: CellRef) -> DeltaMap:
    """The ordinal map picking the largest element of each subset."""
    vertices = _oracle_chain_vertex_tuple(ref)
    maxes = tuple(max(int(v) for v in name.split(".")) for name in vertices)
    return DeltaMap(len(maxes) - 1, n, maxes)



@dataclass
class OracleLevelwiseSSet:
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


def _oracle_glue_tag(a: int, xref: CellRef, cref: CellRef) -> str:
    return f"{a}${xref.serialize()}${cref.serialize()}"


def _oracle_tag_parts(tag: str) -> tuple[int, str, str]:
    # the degree never contains '$' and neither do sd(Δᵃ) cell names, so
    # the X cell is whatever lies between the first and the last '$'
    a_str, rest = tag.split("$", 1)
    xs, cs = rest.rsplit("$", 1)
    return int(a_str), xs, cs


def _oracle_split_tag(tag: str) -> tuple[int, CellRef, CellRef]:
    a, xs, cs = _oracle_tag_parts(tag)
    return a, parse_cell_ref(xs), parse_cell_ref(cs)


@dataclass
class OracleSdResult:
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
        return self.ref_of[(m, self.class_of[(m, _oracle_glue_tag(a, xref, cref))])]


def oracle_sd(x: SimplicialSet) -> OracleSdResult:
    """Barycentric subdivision of an arbitrary bounded complex.

    Levelwise coend over the ordinal category: pairs (a-cell of X, m-cell
    of sd(Δᵃ)) are glued along faces and degeneracies in the X slot against
    sd of the corresponding coface or codegeneracy in the other slot.
    """
    model, class_of = _oracle_glued_model(x)
    model.verify()
    complex_, ref_of, origin = model.to_presentation("b")
    return OracleSdResult(complex_, class_of, ref_of, origin, x)


def _oracle_glued_model(
    x: SimplicialSet,
) -> tuple[OracleLevelwiseSSet, dict[tuple[int, str], str]]:
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
            a, _, c = _oracle_tag_parts(rep)
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
    return OracleLevelwiseSSet(n_top, levels, face_op, deg_op), class_of


def oracle_sd_map(f: SimplicialMap, sdx: OracleSdResult, sdy: OracleSdResult) -> SimplicialMap:
    """Functoriality of sd: apply f in the X slot of every glued pair."""
    cell_map = {}
    for m in range(sdx.complex.max_dim + 1):
        for name in sdx.complex.cells[m]:
            a, xref, cref = _oracle_split_tag(sdx.origin[(m, name)])
            cell_map[(m, name)] = sdy.pair_ref(m, a, f.apply(xref), cref)
    out = SimplicialMap(sdx.complex, sdy.complex, cell_map)
    out.validate()
    return out


def oracle_last_vertex(x: SimplicialSet, sdx: OracleSdResult | None = None) -> SimplicialMap:
    """The natural map sd(X) → X induced by taking largest elements."""
    if sdx is None:
        sdx = oracle_sd(x)
    cell_map = {}
    for m in range(sdx.complex.max_dim + 1):
        for name in sdx.complex.cells[m]:
            a, xref, cref = _oracle_split_tag(sdx.origin[(m, name)])
            cell_map[(m, name)] = apply_delta_ref(
                x, xref, _oracle_last_vertex_delta(a, cref)
            )
    out = SimplicialMap(sdx.complex, x, cell_map)
    out.validate()
    return out


@functools.lru_cache(maxsize=None)
def sd_corpus() -> dict[str, SimplicialSet]:
    out: dict[str, SimplicialSet] = {}
    for n in range(4):
        out[f"simplex{n}"] = standard_simplex(n, n)
        if n:
            out[f"boundary{n}"] = boundary(n)
            for k in range(n + 1):
                out[f"horn{n}{k}"] = horn(n, k)
    out["simplex1-in-dim3"] = standard_simplex(1, 3)  # levels above n
    out["boundary3-in-dim2"] = boundary(3, 2)
    for order in (2, 3, 4):
        for dim in (2, 3):
            out[f"bz{order}-dim{dim}"] = nerve(corpus.cyclic_group_category(order), dim)
    out["idempotent-dim3"] = nerve(corpus.idempotent_monoid_category(), 3)
    out["circle"] = s1_model()
    out["torus"] = torus_triangulation()
    out["rp2"] = rp2_triangulation()
    for label, x in zip(("sphere", "torus", "rp2"), corpus.seeded_surfaces(1)):
        out[f"seeded-{label}"] = x
    return out


def renamed(x: SimplicialSet, rng: random.Random) -> SimplicialSet:
    """``x`` with every cell renamed over characters that sort below '$'
    (space, '!', '"', '#') or beside it, so that the level order by tag
    string and the order by (degree, cell, chain) tuple part ways."""
    taken: set[str] = set()
    new: dict[str, str] = {}
    for n in range(x.max_dim + 1):
        for name in x.cells[n]:
            fresh = ""
            while not fresh or fresh in taken or fresh.strip() != fresh:
                fresh = "".join(rng.choice('pq$ !#"') for _ in range(rng.randint(1, 4)))
            taken.add(fresh)
            new[name] = fresh
    y = SimplicialSet(
        x.max_dim,
        {n: [new[name] for name in names] for n, names in x.cells.items()},
        {
            (n, new[name]): tuple(CellRef(new[r.base], r.word) for r in refs)
            for (n, name), refs in x.faces.items()
        },
    )
    y.validate()
    return y


def assert_matches_oracle(x: SimplicialSet) -> SimplicialSet:
    got, want = sd(x), oracle_sd(x)
    assert json.dumps(got.complex.to_json_dict()) == json.dumps(
        want.complex.to_json_dict()
    )
    assert last_vertex(x, got).cell_map == oracle_last_vertex(x, want).cell_map
    return got.complex


@pytest.mark.parametrize("label", sorted(sd_corpus()))
def test_sd_matches_the_gluing_oracle_byte_for_byte(label):
    x = sd_corpus()[label]
    # sd of sd too, where the oracle is quick enough
    for _ in range(2 if x.max_dim <= 2 else 1):
        x = assert_matches_oracle(x)


def test_sd_matches_the_gluing_oracle_on_names_that_sort_below_dollar():
    # vertex "p q" sorts before "p" by tag string ("0$p q$0" < "0$p$0")
    # but after it as a tuple; sd orders by the string
    names = ["p", "p q", "p$q", "p!", 'p"', "p#"]
    star = SimplicialSet(
        2,
        {0: names, 1: [f"e{k}" for k in range(1, 6)], 2: []},
        {(1, f"e{k}"): (CellRef(names[k]), CellRef("p")) for k in range(1, 6)},
    )
    star.validate()
    assert sd(star).origin[(0, "b0_0")] == (0, "p q", ((0,),))
    assert_matches_oracle(star)
    rng = random.Random(1957)
    for label, x in sorted(sd_corpus().items()):
        if x.max_dim <= 2:
            for _ in range(2):
                assert_matches_oracle(renamed(x, rng))


def chain_of(cref: CellRef) -> tuple[tuple[int, ...], ...]:
    """The subsets a (possibly degenerate) cell of sd(Δᵃ) visits."""
    return tuple(
        tuple(int(v) for v in name.split("."))
        for name in _oracle_chain_vertex_tuple(cref)
    )


def test_pair_ref_matches_the_oracle_on_every_pair():
    rng = random.Random(5)
    for x in [s1_model(), horn(2, 1), boundary(2), standard_simplex(2, 2),
              nerve(corpus.cyclic_group_category(3), 2),
              nerve(corpus.idempotent_monoid_category(), 2),
              renamed(rp2_triangulation(), rng)]:
        got, want = sd(x), oracle_sd(x)
        for a in range(x.max_dim + 1):
            sd_a = sd_simplex(a, x.max_dim)
            for xref in x.all_cells(a):
                for m in range(x.max_dim + 1):
                    for cref in sd_a.all_cells(m):
                        assert got.pair_ref(a, xref, chain_of(cref)) == want.pair_ref(
                            m, a, xref, cref
                        )


def test_sd_map_and_last_vertex_match_the_oracle():
    rng = random.Random(11)
    bz2, bz3 = (nerve(corpus.cyclic_group_category(k), 2) for k in (2, 3))
    pairs = [
        (standard_simplex(1, 1), s1_model()),
        (horn(2, 1), bz2),
        (standard_simplex(2, 2), bz3),
        (boundary(2), s1_model()),
        (renamed(boundary(2), rng), renamed(bz3, rng)),
        (s1_model(), renamed(torus_triangulation(), rng)),
    ]
    for x, y in pairs:
        sdx, sdy, osdx, osdy = sd(x), sd(y), oracle_sd(x), oracle_sd(y)
        assert last_vertex(x, sdx).cell_map == oracle_last_vertex(x, osdx).cell_map
        assert last_vertex(y, sdy).cell_map == oracle_last_vertex(y, osdy).cell_map
        maps = enumerate_maps(x, y)
        assert maps
        for f in maps[:8]:
            assert sd_map(f, sdx, sdy).cell_map == oracle_sd_map(f, osdx, osdy).cell_map


def test_pair_ref_templates_are_keyed_by_degree_and_chain_only():
    _chain_template.cache_clear()
    _top_plan.cache_clear()  # sd's plans read the templates of their d_m chains
    torus = torus_triangulation()
    sd_torus = sd(torus).complex
    after_torus = _chain_template.cache_info().currsize
    sd(sd_torus)  # ten times the cells, the same chains
    assert _chain_template.cache_info().currsize == after_torus
    sd(nerve(corpus.cyclic_group_category(3), 2))  # degenerate restrictions
    max_dim = 2
    chains = sum(
        len(sd_simplex(a, max_dim).all_cells(m))
        for a in range(max_dim + 1)
        for m in range(max_dim + 1)
    )
    assert after_torus < _chain_template.cache_info().currsize <= chains


def test_sd_origin_and_cell_ref_are_complete_inverse_tables():
    # the nerve of Z/3 has degenerate restrictions, so sd calls pair_ref
    for x in [nerve(corpus.cyclic_group_category(3), 2), torus_triangulation(),
              horn(2, 1)]:
        result = sd(x)
        cells = [(m, name) for m, names in result.complex.cells.items() for name in names]
        assert list(result.origin) == cells
        assert len(result.cell_ref) == len(cells)
        for (m, fresh), (a, name, chain) in result.origin.items():
            assert result.cell_ref[(name, chain)] == CellRef(fresh)
        # the faces share the CellRef that cell_ref holds for each cell
        for refs in result.complex.faces.values():
            for ref in refs:
                if not ref.word:
                    m = result.complex.base_dim(ref)
                    _, name, chain = result.origin[(m, ref.base)]
                    assert result.cell_ref[(name, chain)] is ref


def test_sd_makes_no_union_find_call(monkeypatch):
    class Refused:
        def __init__(self, *args):
            raise AssertionError("a union-find was built")

    monkeypatch.setattr(fincat, "UnionFind", Refused)
    with pytest.raises(AssertionError):
        fincat.quotient(["x"], [])
    collapse = SimplicialMap(
        standard_simplex(1, 1),
        s1_model(),
        {(0, "0"): CellRef("v"), (0, "1"): CellRef("v"), (1, "0-1"): CellRef("a")},
    )
    for x in [boundary(2), standard_simplex(3, 3), torus_triangulation(),
              nerve(corpus.cyclic_group_category(3), 3)]:
        sdx = sd(x)
        last_vertex(x, sdx)
        if x.max_dim <= 2:
            sd(sdx.complex)
    sd_map(collapse, sd(collapse.source), sd(collapse.target))
