from __future__ import annotations

import itertools
import random

import pytest

from homcat import simplicial
from homcat.errors import (
    BadIndices,
    IndexOutOfRange,
    InvalidStructure,
    NotMonotone,
    SchemaError,
)
from homcat.simplicial import (
    CellRef,
    DeltaMap,
    SimplicialMap,
    SimplicialSet,
    boundary,
    classify,
    delta_factor,
    enumerate_maps,
    face_through_word,
    horn,
    horn_fillers,
    nerve,
    nerve_eg,
    normalize_word,
    parse_cell_ref,
    product_sset,
    simplicial_from_json,
    standard_simplex,
    surjection_word,
    word_surjection,
)

import corpus


def s1_model() -> SimplicialSet:
    """One vertex, one loop: the standard circle model."""
    x = SimplicialSet(
        2,
        {0: ["v"], 1: ["a"], 2: []},
        {(1, "a"): (CellRef("v"), CellRef("v"))},
    )
    x.validate()
    return x


def wedge_of_circles(labels=("a", "b"), max_dim: int = 2) -> SimplicialSet:
    x = SimplicialSet(
        max_dim,
        {0: ["v"], 1: list(labels), **{n: [] for n in range(2, max_dim + 1)}},
        {(1, l): (CellRef("v"), CellRef("v")) for l in labels},
    )
    x.validate()
    return x


# -- ordinal maps -----------------------------------------------------------


def test_delta_map_monotonicity_enforced():
    with pytest.raises(NotMonotone):
        DeltaMap(1, 1, (1, 0))


def test_delta_factor_identity():
    f = DeltaMap(2, 2, (0, 1, 2))
    epi, mono = delta_factor(f)
    assert epi.values == (0, 1, 2) and mono.values == (0, 1, 2)


def test_delta_factor_constant():
    f = DeltaMap(1, 1, (0, 0))
    epi, mono = delta_factor(f)
    assert epi.values == (0, 0)  # the collapse
    assert mono.values == (0,)  # the vertex inclusion
    assert epi.then(mono).values == f.values


def test_delta_factor_strictly_increasing():
    f = DeltaMap(1, 3, (1, 3))
    epi, mono = delta_factor(f)
    assert epi.values == (0, 1)
    assert mono.values == (1, 3)


def test_delta_factor_unique_on_random_maps():
    rng = random.Random(11)
    for _ in range(100):
        n, m = rng.randint(0, 4), rng.randint(0, 4)
        vals = sorted(rng.randint(0, m) for _ in range(n + 1))
        f = DeltaMap(n, m, tuple(vals))
        epi, mono = delta_factor(f)
        assert epi.then(mono).values == f.values
        assert len(set(epi.values)) == epi.codomain + 1  # surjective
        assert len(set(mono.values)) == mono.domain + 1  # injective


# -- degeneracy word calculus ------------------------------------------------


def test_normalize_word_examples():
    assert normalize_word([]) == ()
    assert normalize_word([0, 0]) == (1, 0)  # s0 s0 = s1 s0
    assert normalize_word([0, 1]) == (2, 0)  # s0 s1 = s2 s0
    assert normalize_word([1, 0]) == (1, 0)  # already admissible


def test_normalization_is_confluent_under_random_rewriting():
    # apply the rewrite rule at random positions; the normal form must not
    # depend on the order chosen
    rng = random.Random(21)
    for _ in range(200):
        word = [rng.randint(0, 3) for _ in range(rng.randint(0, 5))]
        reference = normalize_word(word)
        for _ in range(5):
            trial = list(word)
            while True:
                spots = [
                    k
                    for k in range(len(trial) - 1)
                    if trial[k] <= trial[k + 1]
                ]
                if not spots:
                    break
                k = rng.choice(spots)
                i, j = trial[k], trial[k + 1]
                trial[k], trial[k + 1] = j + 1, i
            assert tuple(trial) == reference


def _surjection_of_raw_word(word, base_dim: int) -> DeltaMap:
    """Compose elementary collapse maps directly, innermost first."""
    out = DeltaMap(base_dim, base_dim, tuple(range(base_dim + 1)))
    for j in reversed(word):
        n = out.domain
        sigma = DeltaMap(
            n + 1, n, tuple(x if x <= j else x - 1 for x in range(n + 2))
        )
        out = sigma.then(out)
    return out


def test_normalize_word_agrees_with_direct_composition():
    # exhaustive over all words of length <= 4 on letters 0..3: the normal
    # form must denote the same monotone surjection as the raw word
    for length in range(5):
        for word in itertools.product(range(4), repeat=length):
            base = max((0, *word)) + 1
            normal = normalize_word(word)
            assert (
                _surjection_of_raw_word(word, base).values
                == _surjection_of_raw_word(normal, base).values
            )
            assert surjection_word(word_surjection(normal, base)) == normal


def test_word_surjection_roundtrip_and_letterset():
    # normal-form words biject with monotone surjections; the collapsed
    # positions are exactly the word letters
    for base in range(0, 3):
        for k in range(0, 3):
            for letters in itertools.combinations(
                range(base + k - 1, -1, -1), k
            ):
                ref_dim = base + k
                surj = word_surjection(letters, base)
                assert surj.domain == ref_dim and surj.codomain == base
                assert surjection_word(surj) == tuple(letters)
                assert set(surjection_word(surj)) == set(letters)


def test_face_through_word_against_surjections():
    # pushing d_i through a word must match composing the face inclusion
    # with the word's surjection and refactoring epi-mono
    for base in range(0, 3):
        for k in range(1, 3):
            for letters in itertools.combinations(
                range(base + k - 1, -1, -1), k
            ):
                dim = base + k
                surj = word_surjection(letters, base)
                for i in range(dim + 1):
                    delta = DeltaMap(
                        dim - 1, dim, tuple(v for v in range(dim + 1) if v != i)
                    )
                    composite = delta.then(surj)
                    epi, mono = delta_factor(composite)
                    word2, j = face_through_word(letters, i)
                    assert surjection_word(epi) == word2
                    if j is None:
                        assert mono.domain == mono.codomain  # no face left
                    else:
                        missing = [
                            v for v in range(base + 1) if v not in mono.values
                        ]
                        assert missing == [j]


# -- standard complexes --------------------------------------------------


def test_standard_simplex_counts():
    assert standard_simplex(1, 2).counts() == (2, 1, 0)
    assert standard_simplex(2).counts() == (3, 3, 1)
    assert boundary(2).counts() == (3, 3, 0)
    assert horn(2, 1).counts() == (3, 2, 0)


def test_horn_2_1_keeps_faces_0_and_2():
    h = horn(2, 1)
    assert h.cells[1] == ["0-1", "1-2"]  # edge 0-2 (the 1st face) is gone


def test_bad_horn_indices():
    with pytest.raises(BadIndices):
        horn(2, 3)
    with pytest.raises(BadIndices):
        horn(0, 0)


def test_total_cell_counts_follow_binomials():
    d2 = standard_simplex(2, 4)
    # all 4-cells of Δ² incl. degenerate ones, counted two ways
    assert d2.n_cells_total(4) == len(d2.all_cells(4))
    for n in range(5):
        assert d2.n_cells_total(n) == sum(
            1 for _ in d2.all_cells(n)
        )


def test_face_and_degeneracy_normal_forms():
    d1 = standard_simplex(1, 2)
    edge = CellRef("0-1")
    v1 = d1.face(edge, 0)
    assert v1 == CellRef("1")  # faces delete the i-th vertex
    assert d1.face(edge, 1) == CellRef("0")
    s = d1.degeneracy(CellRef("0"), 0)
    assert s == CellRef("0", (0,))
    assert d1.face(s, 0) == CellRef("0")
    assert d1.face(s, 1) == CellRef("0")
    # d_j s_j = id on a bigger complex
    d2 = standard_simplex(2, 3)
    c = CellRef("0-1-2")
    for j in range(3):
        assert d2.face(d2.degeneracy(c, j), j) == c
        assert d2.face(d2.degeneracy(c, j), j + 1) == c


def test_degeneracy_out_of_bound_rejected():
    d1 = standard_simplex(1, 1)
    with pytest.raises(IndexOutOfRange):
        d1.degeneracy(CellRef("0-1"), 0)  # would create a 2-cell above N=1


def test_double_degeneracy_normalizes():
    d0 = standard_simplex(0, 2)
    v = CellRef("0")
    ss = d0.degeneracy(d0.degeneracy(v, 0), 0)
    assert ss == CellRef("0", (1, 0))


def test_mixed_identities_on_random_cells():
    # d_i s_j identities checked on every cell of a corpus of complexes
    complexes = [standard_simplex(2, 3), s1_model(), boundary(3)]
    for x in complexes:
        for n in range(1, x.max_dim):
            for c in x.all_cells(n):
                for j in range(n + 1):
                    s = x.degeneracy(c, j)
                    for i in range(n + 2):
                        got = x.face(s, i)
                        if i < j:
                            expected = x.degeneracy(x.face(c, i), j - 1)
                        elif i in (j, j + 1):
                            expected = c
                        else:
                            expected = x.degeneracy(x.face(c, i - 1), j)
                        assert got == expected


# -- serialization ---------------------------------------------------------


def test_json_roundtrip():
    for x in [standard_simplex(2), horn(2, 0), s1_model()]:
        again = simplicial_from_json(x.to_json_dict())
        assert again.cells == x.cells
        assert again.faces == x.faces


def test_json_rejects_unknown_fields_and_bad_refs():
    with pytest.raises(SchemaError):
        simplicial_from_json({"dim": 0, "cells": {"0": ["v"]}, "faces": {}, "x": 1})
    assert parse_cell_ref("s1 s0 v") == CellRef("v", (1, 0))
    assert parse_cell_ref("s0 s1 v") == CellRef("v", (2, 0))  # normalized
    # base names may contain spaces; degeneracy tokens are consumed from
    # the left only while they match s<digits>
    assert parse_cell_ref("sx v") == CellRef("sx v", ())
    assert parse_cell_ref("s0 (s0 v,a)") == CellRef("(s0 v,a)", (0,))
    # a name that would be ambiguous in a reference is rejected up front
    with pytest.raises(SchemaError):
        SimplicialSet(0, {0: ["s0 v"]}, {}).validate()


def test_validate_rejects_a_degeneracy_letter_out_of_range():
    # s_j applies only to cells of dimension at least j
    bad = {
        "v": 1, "dim": 2, "cells": {"0": ["v"], "1": ["a"], "2": ["t"]},
        "faces": {"a": ["v", "v"], "t": ["a", "s5 v", "a"]},
    }
    with pytest.raises(SchemaError, match="out of range"):
        simplicial_from_json(bad)
    flat = {"v": 1, "dim": 2, "cells": {"0": ["v"], "2": ["t"]}}
    simplicial_from_json({**flat, "faces": {"t": ["s0 v", "s0 v", "s0 v"]}})
    with pytest.raises(SchemaError, match="out of range"):
        simplicial_from_json({**flat, "faces": {"t": ["s0 v", "s1 v", "s0 v"]}})
    # in a word the outer letter applies one dimension up: s1 s0 v is a
    # 2-cell, while s2 s0 v applies s2 to the 1-cell s0 v
    solid = {"v": 1, "dim": 3, "cells": {"0": ["v"], "3": ["w"]}}
    simplicial_from_json({**solid, "faces": {"w": ["s1 s0 v"] * 4}})
    with pytest.raises(SchemaError, match="out of range"):
        simplicial_from_json({**solid, "faces": {"w": ["s2 s0 v"] + ["s1 s0 v"] * 3}})


def test_product_complex_round_trips_through_json():
    import json as _json
    from homcat.simplicial import simplicial_from_json as loads

    d1 = standard_simplex(1, 2)
    prod, _, _ = product_sset(d1, d1)
    again = loads(_json.loads(_json.dumps(prod.to_json_dict())))
    assert again.cells == prod.cells
    assert again.faces == prod.faces


# -- nerves -----------------------------------------------------------------


def test_nerve_of_terminal_category_is_a_point():
    n = nerve(corpus.terminal_category(), 3)
    assert n.counts() == (1, 0, 0, 0)


def test_nerve_of_walking_arrow_is_delta1():
    n = nerve(corpus.walking_arrow(), 3)
    assert n.counts() == (2, 1, 0, 0)


def test_nerve_of_bg_z2_counts():
    bg = nerve(corpus.cyclic_group_category(2), 3)
    assert bg.counts() == (1, 1, 1, 1)
    assert [bg.n_cells_total(n) for n in range(4)] == [1, 2, 4, 8]


def test_nerve_inner_face_composes():
    z3 = corpus.cyclic_group_category(3)
    n = nerve(z3, 2)
    chain = "g1|g1"
    faces = n.faces[(2, chain)]
    assert faces[0] == CellRef("g1")     # drop the first arrow
    assert faces[2] == CellRef("g1")     # drop the last arrow
    assert faces[1] == CellRef("g2")     # compose: g1 then g1 is g2


def test_nerve_face_degenerates_when_composite_is_identity():
    z2 = corpus.cyclic_group_category(2)
    n = nerve(z2, 2)
    faces = n.faces[(2, "g1|g1")]
    assert faces[1] == CellRef("*", (0,))  # g1∘g1 = id collapses


def test_nerve_functorial_on_chains():
    # a functor of categories induces a map of nerves cell by cell, and
    # nerve(G∘F) = nerve(G)∘nerve(F)
    from homcat.fincat import FinFunctor, compose_functors
    from homcat.simplicial import nerve_map

    z4 = corpus.cyclic_group_category(4)
    z2 = corpus.cyclic_group_category(2)
    t = corpus.terminal_category()
    # reduction mod 2, then collapse to the point
    f = FinFunctor(
        z4,
        z2,
        {"*": "*"},
        {"id_*": "id_*", "g1": "g1", "g2": "id_*", "g3": "g1"},
    )
    f.validate()
    g = corpus.functor_to_terminal(z2)
    n_z4, n_z2, n_t = nerve(z4, 2), nerve(z2, 2), nerve(t, 2)
    nf = nerve_map(f, n_z4, n_z2)
    ng = nerve_map(g, n_z2, n_t)
    composite = nerve_map(compose_functors(g, f), n_z4, n_t)
    assert nf.then(ng).cell_map == composite.cell_map


def test_nerve_eg_counts_and_projection():
    table = {
        ("e", "e"): "e", ("e", "g"): "g", ("g", "e"): "g", ("g", "g"): "e",
    }
    eg, bg, proj = nerve_eg(table, ["e", "g"], "e", 2)
    assert [eg.n_cells_total(n) for n in range(3)] == [2, 4, 8]
    assert [bg.n_cells_total(n) for n in range(3)] == [1, 2, 4]
    # levelwise surjective with fibers of size |G|
    for n in range(3):
        images = {}
        for c in eg.all_cells(n):
            image = proj.apply(c)
            images.setdefault(image, []).append(c)
        assert set(images) == set(bg.all_cells(n))
        assert all(len(fiber) == 2 for fiber in images.values())


def test_nerve_eg_trivial_group():
    table = {("e", "e"): "e"}
    eg, bg, _ = nerve_eg(table, ["e"], "e", 2)
    assert eg.counts() == (1, 0, 0)
    assert bg.counts() == (1, 0, 0)


def test_nerve_eg_rejects_non_group():
    table = {
        ("0", "0"): "0", ("0", "1"): "1", ("1", "0"): "1", ("1", "1"): "1",
    }
    with pytest.raises(simplicial.NotAGroup):
        nerve_eg(table, ["0", "1"], "0", 2)


def test_nerve_names_a_chain_apart_from_the_composite_named_like_it():
    # the chain a, b and its composite a|b would both be named a|b
    from homcat.fincat import identity_functor, validate_category
    from homcat.simplicial import nerve_map, nerve_names

    cat = validate_category({
        "objects": ["X", "Y", "Z"],
        "morphisms": [
            {"name": "a", "src": "X", "dst": "Y"},
            {"name": "b", "src": "Y", "dst": "Z"},
            {"name": "a|b", "src": "X", "dst": "Z"},
        ],
        "compose": [["b", "a", "a|b"]],
    })
    x = nerve(cat, 2)
    assert x.counts() == (3, 3, 1)
    _, names = nerve_names(cat, 2)
    assert x.face(CellRef(names[("a", "b")]), 1) == CellRef(names[("a|b",)])
    pair = (2, names[("a", "b")])
    assert nerve_map(identity_functor(cat), x, x).cell_map[pair] == CellRef(pair[1])


# -- maps -------------------------------------------------------------------


def test_maps_from_point_are_vertices():
    x = boundary(2)
    maps = enumerate_maps(standard_simplex(0, 0), x)
    assert len(maps) == 3


def test_enumerate_maps_from_a_horn_of_a_thousand_cells():
    # Λ⁹₁ has 1,021 nondegenerate cells, one search level each: deeper
    # than Python's recursion limit
    x = horn(9, 1, max_dim=9)
    maps = enumerate_maps(x, standard_simplex(0, max_dim=9))
    assert len(maps) == 1
    assert len(maps[0].cell_map) == sum(len(x.cells[n]) for n in x.cells) == 1021


def test_enumerate_maps_rejects_a_negative_budget():
    with pytest.raises(SchemaError) as exc:
        enumerate_maps(standard_simplex(0, 0), boundary(2), budget=-1)
    assert exc.value.payload["budget"] == -1
    assert len(enumerate_maps(standard_simplex(0, 0), boundary(2), budget=3)) == 3


def test_maps_to_point_collapse():
    maps = enumerate_maps(standard_simplex(1, 1), standard_simplex(0, 1))
    assert len(maps) == 1


def test_simplicial_yoneda():
    # maps Δⁿ → X biject with the full n-cell set of X
    complexes = [s1_model(), boundary(2), nerve(corpus.cyclic_group_category(2), 2)]
    for x in complexes:
        for n in range(x.max_dim + 1):
            maps = enumerate_maps(standard_simplex(n, n), x)
            cells = x.all_cells(n)
            images = sorted(
                m.cell_map[(n, "-".join(map(str, range(n + 1))))].serialize()
                for m in maps
            )
            assert images == sorted(c.serialize() for c in cells)


# -- horn filling -----------------------------------------------------------


def point_assignment(n: int, k: int, x: SimplicialSet, vertex: str) -> SimplicialMap:
    h = horn(n, k, max_dim=n)
    cell_map = {}
    for m in range(n + 1):
        for name in h.cells[m]:
            word = tuple(range(m - 1, -1, -1))
            cell_map[(m, name)] = CellRef(vertex, word)
    return SimplicialMap(h, x, cell_map)


def test_horn_to_point_has_unique_degenerate_filler():
    x = standard_simplex(0, 2)
    assignment = point_assignment(2, 1, x, "0")
    fillers = horn_fillers(x, 2, 1, assignment)
    assert [f.serialize() for f in fillers] == ["s1 s0 0"]


def test_inner_horn_in_nerve_fills_by_composition():
    n = nerve(corpus.walking_arrow(), 2)
    h = horn(2, 1, max_dim=2)
    # edges: d2 (= 0-1) goes to f, d0 (= 1-2) to the identity at B
    cell_map = {
        (0, "0"): CellRef("A"),
        (0, "1"): CellRef("B"),
        (0, "2"): CellRef("B"),
        (1, "0-1"): CellRef("f"),
        (1, "1-2"): CellRef("B", (0,)),
    }
    assignment = SimplicialMap(h, n, cell_map)
    fillers = horn_fillers(n, 2, 1, assignment)
    # the unique filler is the chain (f, id_B), i.e. s1 of the edge f
    assert [f.serialize() for f in fillers] == ["s1 f"]


def test_outer_horn_without_left_inverse_has_no_filler():
    # the horn asks for a 2-cell with d2 = f and d1 the constant edge at A;
    # filling it would hand f a left inverse, which it does not have
    n = nerve(corpus.walking_arrow(), 2)
    h = horn(2, 0, max_dim=2)
    cell_map = {
        (0, "0"): CellRef("A"),
        (0, "1"): CellRef("B"),
        (0, "2"): CellRef("A"),
        (1, "0-1"): CellRef("f"),
        (1, "0-2"): CellRef("A", (0,)),
    }
    assignment = SimplicialMap(h, n, cell_map)
    assert horn_fillers(n, 2, 0, assignment) == []
    # while an outer horn whose two edges literally agree is always filled
    # by a degeneracy, d1 s1 = d2 s1 = id
    degenerate_ok = SimplicialMap(
        h,
        n,
        {
            (0, "0"): CellRef("A"),
            (0, "1"): CellRef("B"),
            (0, "2"): CellRef("B"),
            (1, "0-1"): CellRef("f"),
            (1, "0-2"): CellRef("f"),
        },
    )
    assert [z.serialize() for z in horn_fillers(n, 2, 0, degenerate_ok)] == ["s1 f"]


def test_cells_with_faces_matches_brute_force_filter():
    complexes = [
        standard_simplex(0, 2),
        standard_simplex(2, 3),
        boundary(2),
        horn(2, 1),
        horn(3, 0, max_dim=3),
        s1_model(),
        wedge_of_circles(),
        nerve(corpus.walking_arrow(), 3),
        nerve(corpus.cyclic_group_category(2), 3),
        nerve(corpus.idempotent_monoid_category(), 2),
        product_sset(standard_simplex(1, 2), standard_simplex(1, 2))[0],
    ]
    misses = 0
    for x in complexes:
        for n in range(x.max_dim + 2):
            cells = x.all_cells(n)
            for size in range(n + 2 if n else 1):
                for positions in itertools.combinations(range(n + 1), size):
                    # every realized face tuple, plus ones spliced from two
                    # neighbouring cells, which may match no cell at all
                    queries = [{}] if not positions else [
                        {i: x.face(z, i) for i in positions} for z in cells
                    ] + [
                        {
                            i: x.face(z if k % 2 else w, i)
                            for k, i in enumerate(positions)
                        }
                        for z, w in zip(cells, cells[1:])
                    ]
                    for wanted in queries:
                        expected = [
                            z
                            for z in cells
                            if all(x.face(z, i) == wanted[i] for i in wanted)
                        ]
                        assert list(x.cells_with_faces(n, wanted)) == expected
                        misses += bool(cells) and not expected
    assert misses > 0


def test_cells_with_faces_answers_cannot_be_mutated():
    x = nerve(corpus.walking_arrow(), 2)
    wanted = {0: CellRef("B"), 1: CellRef("A")}
    first = x.cells_with_faces(1, wanted)
    assert [z.serialize() for z in first] == ["f"]
    try:
        first.clear()
    except AttributeError:
        pass
    assert [z.serialize() for z in x.cells_with_faces(1, wanted)] == ["f"]
    assignment = SimplicialMap(
        horn(2, 1, max_dim=2),
        x,
        {
            (0, "0"): CellRef("A"),
            (0, "1"): CellRef("B"),
            (0, "2"): CellRef("B"),
            (1, "0-1"): CellRef("f"),
            (1, "1-2"): CellRef("B", (0,)),
        },
    )
    fillers = horn_fillers(x, 2, 1, assignment)
    fillers.clear()
    assert [z.serialize() for z in horn_fillers(x, 2, 1, assignment)] == ["s1 f"]


def test_classify_nerve_of_group_is_kan():
    bg = nerve(corpus.cyclic_group_category(2), 3)
    assert classify(bg, 3).verdict == "kan"


def test_classify_nerve_of_arrow_is_quasi_with_outer_witness():
    n = nerve(corpus.walking_arrow(), 2)
    result = classify(n, 2)
    assert result.verdict == "quasi"
    bad = [r for r in result.reports if r.unfilled]
    assert bad and all(r.k in (0, r.n) for r in bad)
    assert any(r.n == 2 and r.k == 0 for r in bad)


def test_classify_horn_itself_is_neither():
    h = horn(2, 1, max_dim=2)
    assert classify(h, 2).verdict == "neither"


def test_classify_kan_iff_groupoid():
    cases = [
        (corpus.walking_iso(), True),
        (corpus.walking_arrow(), False),
        (corpus.cyclic_group_category(3), True),
        (corpus.poset_chain(2), False),
        (corpus.discrete(2), True),
    ]
    for cat, expect_kan in cases:
        verdict = classify(nerve(cat, 2), 2).verdict
        groupoid = all(cat.is_iso(m.name) for m in cat.morphisms)
        assert groupoid == expect_kan
        assert (verdict == "kan") == expect_kan


def test_inner_two_horn_fillers_unique_in_any_nerve():
    for cat in [
        corpus.walking_arrow(),
        corpus.cyclic_group_category(2),
        corpus.poset_chain(2),
        corpus.walking_iso(),
    ]:
        n = nerve(cat, 2)
        h = horn(2, 1, max_dim=2)
        for assignment in enumerate_maps(h, n):
            assert len(horn_fillers(n, 2, 1, assignment)) == 1


def test_classify_quasi_for_every_corpus_nerve():
    for cat in [
        corpus.walking_arrow(),
        corpus.poset_chain(2),
        corpus.cyclic_group_category(2),
        corpus.idempotent_monoid_category(),
    ]:
        result = classify(nerve(cat, 3), 3)
        assert result.verdict in ("quasi", "kan")


# -- products ----------------------------------------------------------------


def test_product_with_point_is_isomorphic():
    x = s1_model()
    pt = standard_simplex(0, 2)
    prod, px, py = product_sset(x, pt)
    assert prod.counts() == x.counts()
    assert all(
        px.cell_map[(n, name)].word == ()
        for n in range(prod.max_dim + 1)
        for name in prod.cells[n]
    )


def test_square_has_two_nondegenerate_2_cells():
    d1 = standard_simplex(1, 2)
    prod, _, _ = product_sset(d1, d1)
    assert prod.counts() == (4, 5, 2)  # the two shuffles of the square


def test_product_vertices_multiply():
    x = boundary(2)
    y = nerve(corpus.cyclic_group_category(2), 2)
    prod, _, _ = product_sset(x, y)
    assert len(prod.cells[0]) == len(x.cells[0]) * len(y.cells[0])
    # levelwise the product has exactly the pairs, degenerate or not
    for n in range(3):
        assert prod.n_cells_total(n) == x.n_cells_total(n) * y.n_cells_total(n)


# -- names built from user names that plain joins would merge ----------------


def cyclic_table(elements: list[str]) -> dict:
    """Z/n on ``elements``, the k-th element being k and the first the unit."""
    n = len(elements)
    return {
        (g, h): elements[(i + j) % n]
        for i, g in enumerate(elements)
        for j, h in enumerate(elements)
    }


def interval(v0: str, v1: str, e: str) -> SimplicialSet:
    x = SimplicialSet(1, {0: [v0, v1], 1: [e]}, {(1, e): (CellRef(v1), CellRef(v0))})
    x.validate()
    return x


def test_product_sset_names_pairs_that_plain_joins_merge():
    # joined plainly, (a,b , c) and (a , b,c) are both (a,b,c)
    x = SimplicialSet(0, {0: ["a,b", "a"]}, {})
    y = SimplicialSet(0, {0: ["c", "b,c"]}, {})
    prod, px, py = product_sset(x, y)
    assert prod.cells[0] == ["(a\\,b,c)", "(a\\,b,b\\,c)", "(a,c)", "(a,b\\,c)"]
    assert px.apply(CellRef("(a,b\\,c)")) == CellRef("a")
    assert py.apply(CellRef("(a,b\\,c)")) == CellRef("b,c")


def test_product_sset_names_are_injective_on_clashing_names():
    rng = random.Random(5501)
    for _ in range(100):
        x, y, z, e1, e2 = corpus.clash_names(rng, 5)
        # joined plainly, (x,y , z) and (x , y,z) are the same string
        left = [f"{x},{y}", x]
        right = [z, f"{y},{z}"]
        rng.shuffle(left)
        rng.shuffle(right)
        prod, _, _ = product_sset(interval(*left, e1), interval(*right, e2))
        # validate rejects a reused name; Δ¹ × Δ¹ to dimension 1 has the 4
        # vertex pairs and 5 of its 9 edge pairs nondegenerate
        assert prod.counts() == (4, 5)


def test_nerve_eg_names_arrows_that_plain_joins_merge():
    # joined plainly, x → y->z and x->y → z are both (x->y->z)
    elements = ["e", "x", "y->z", "x->y", "z"]
    eg, bg, _ = nerve_eg(cyclic_table(elements), elements, "e", 2)
    assert {"(x\\-\\>y->z)", "(x->y\\-\\>z)"} <= set(eg.cells[1])
    assert eg.counts() == (5, 20, 80)
    assert bg.counts() == (1, 4, 16)


def test_nerve_eg_names_are_injective_on_clashing_names():
    rng = random.Random(6607)
    for _ in range(60):
        # one-character pieces keep every element shorter than an arrow
        # name; a non-unit * is a 1-cell of BG named like its one object
        x, y, z, *extras = corpus.clash_names(rng, rng.randint(3, 4), max_len=1)
        # joined plainly, x → y->z and x->y → z are the same string
        elements = [f"{x}->{y}", z, x, f"{y}->{z}"] + extras
        rng.shuffle(elements)
        n = len(elements)
        # the projection validates, and the nerves reject a reused name
        eg, _, _ = nerve_eg(cyclic_table(elements), elements, elements[0], 2)
        assert eg.counts() == (n, n * (n - 1), n * (n - 1) ** 2)


def renamed_category(cat, objects: list[str], morphisms: list[str]):
    """``cat`` with its objects and its non-identity morphisms renamed, in
    order, to the given names."""
    from homcat.fincat import validate_category

    nonid = [m for m in cat.morphisms if not cat.is_identity(m.name)]
    obj = dict(zip(cat.objects, objects))
    mor = {m.name: new for m, new in zip(nonid, morphisms)}
    mor.update({cat.identity[o]: f"id_{new}" for o, new in obj.items()})
    return validate_category({
        "objects": objects,
        "morphisms": [
            {"name": mor[m.name], "src": obj[m.src], "dst": obj[m.dst]} for m in nonid
        ],
        "compose": [
            [mor[g], mor[f], mor[h]]
            for (g, f), h in cat.compose_table.items()
            if not (cat.is_identity(g) or cat.is_identity(f))
        ],
    })


def test_nerve_names_an_object_apart_from_a_morphism_named_like_it():
    # the object A and the morphism A: A → B were both the cell name A
    from homcat.fincat import identity_functor, validate_category
    from homcat.simplicial import nerve_map, nerve_names

    cat = validate_category({
        "objects": ["A", "B"],
        "morphisms": [{"name": "A", "src": "A", "dst": "B"}],
        "compose": [],
    })
    x = nerve(cat, 2)
    assert x.counts() == (2, 1, 0)
    vertices, chains = nerve_names(cat, 2)
    assert x.cells[0] == [vertices["A"], vertices["B"]]
    assert x.cells[1] == [chains[("A",)]]
    edge = CellRef(chains[("A",)])
    assert [x.face(edge, i) for i in range(2)] == [
        CellRef(vertices["B"]), CellRef(vertices["A"])
    ]
    nerve_map(identity_functor(cat), x, x)  # validates


def test_nerve_eg_accepts_an_element_named_like_bgs_one_object():
    # BG's one object is *, and the element * was a 1-cell of BG named * too
    eg, bg, _ = nerve_eg(cyclic_table(["e", "*"]), ["e", "*"], "e", 2)
    assert eg.counts() == (2, 2, 2)
    assert bg.counts() == (1, 1, 1)
    assert bg.cells[0][0] not in bg.cells[1]
    # without a clash BG's vertex keeps its name
    _, bg, _ = nerve_eg(cyclic_table(["e", "a"]), ["e", "a"], "e", 2)
    assert bg.cells == {0: ["*"], 1: ["a"], 2: ["a|a"]}


def test_nerve_names_are_injective_when_objects_and_morphisms_share_names():
    from homcat.fincat import identity_functor
    from homcat.simplicial import nerve_map

    rng = random.Random(7109)
    shapes = [
        corpus.walking_arrow(),
        corpus.walking_iso(),
        corpus.poset_chain(2),
        corpus.parallel_pair(),
        corpus.cyclic_group_category(3),
        corpus.idempotent_monoid_category(),
    ]
    clashes = 0
    for _ in range(80):
        cat = rng.choice(shapes)
        nonid = [m for m in cat.morphisms if not cat.is_identity(m.name)]
        # objects and morphisms draw from one pool, which also holds plain
        # chain names, so an object is often named like a chain
        pool = corpus.clash_names(rng, 4, max_len=1)
        pool += [f"{a}|{b}" for a, b in itertools.permutations(pool, 2)][:4]
        objects = rng.sample(pool, len(cat.objects))
        morphisms = rng.sample(pool, len(nonid))
        named = renamed_category(cat, objects, morphisms)
        x = nerve(named, 2)  # validates: no cell name is reused
        assert x.counts() == nerve(cat, 2).counts()
        nerve_map(identity_functor(named), x, x)  # validates
        plain = [(m.name,) for m in named.morphisms if not named.is_identity(m.name)]
        plain += [
            (f, g) for (f,), (g,) in itertools.product(plain, repeat=2)
            if named.dst(f) == named.src(g)
        ]
        joined = ["|".join(chain) for chain in plain]
        if set(objects) & set(joined):
            clashes += 1
        elif len(set(joined)) == len(joined):
            # without a clash every name is the plain one
            assert x.cells == {0: objects, 1: joined[: len(nonid)], 2: joined[len(nonid):]}
    assert clashes >= 10


# -- validate against the face() loop it replaced ------------------------------


def oracle_face(x: SimplicialSet, ref: CellRef, i: int) -> CellRef:
    """d_i of a cell reference as ``SimplicialSet.face`` computed it before
    the face memo, without a cache."""
    base_dim = x.base_dim(ref)
    dim = base_dim + len(ref.word)
    if dim == 0 or not 0 <= i <= dim:
        raise IndexOutOfRange(f"face index {i} out of range for dim {dim}", i=i)
    word2, j = face_through_word(ref.word, i)
    if j is None:
        return CellRef(ref.base, word2)
    inner = x.faces[(base_dim, ref.base)][j]
    return CellRef(inner.base, normalize_word(list(word2) + list(inner.word)))


def oracle_validate(x: SimplicialSet) -> None:
    """``SimplicialSet.validate`` as it was before the face memo: the same
    structural checks, then every identity d_i d_j = d_{j-1} d_i through
    face() on ``CellRef``s, in (n, cell, j, i) order."""
    names = [name for n in x.cells for name in x.cells[n]]
    if len(set(names)) != len(names):
        dup = next(n for n in names if names.count(n) > 1)
        raise SchemaError(f"cell name {dup!r} is reused across dimensions")
    for name in names:
        head = name.split(" ", 1)[0]
        if " " in name and head.startswith("s") and head[1:].isdigit():
            raise SchemaError(f"cell name {name!r} starts like a degeneracy token")
    for (n, name), refs in x.faces.items():
        if name not in x.cells.get(n, ()):
            raise SchemaError(f"faces listed for unknown cell {name!r}")
        if len(refs) != n + 1:
            raise SchemaError(f"cell {name!r} needs {n + 1} faces")
        for ref in refs:
            if x.base_dim(ref) + len(ref.word) != n - 1:
                raise SchemaError(f"face of {name!r} has wrong dimension")
            if normalize_word(ref.word) != ref.word:
                raise SchemaError(f"face reference of {name!r} not normalized")
    for n in range(1, x.max_dim + 1):
        for name in x.cells[n]:
            if (n, name) not in x.faces:
                raise SchemaError(f"cell {name!r} has no face data")
    for n in range(2, x.max_dim + 1):
        for name in x.cells[n]:
            ref = CellRef(name, ())
            for j in range(1, n + 1):
                for i in range(j):
                    lhs = oracle_face(x, oracle_face(x, ref, j), i)
                    rhs = oracle_face(x, oracle_face(x, ref, i), j - 1)
                    if lhs != rhs:
                        raise InvalidStructure(
                            f"simplicial identity fails on {name!r}: "
                            f"d{i} d{j} != d{j - 1} d{i}"
                        )


def outcome(check, x: SimplicialSet):
    """None if the check passes, else the class and message it raised."""
    try:
        check(x)
    except Exception as exc:
        return type(exc), str(exc)
    return None


def with_faces(x: SimplicialSet, faces: dict) -> SimplicialSet:
    """A fresh, unvalidated complex with x's cells and the given faces."""
    return SimplicialSet(x.max_dim, x.cells, faces)


def corrupt_one_face(x: SimplicialSet, rng: random.Random) -> dict:
    """x's faces with one entry corrupted: two faces swapped, or another
    cell of the face's dimension, or a degenerate one, put in a slot."""
    faces = dict(x.faces)
    n, name = key = rng.choice(sorted(faces))
    refs = list(faces[key])
    i = rng.randrange(n + 1)
    kind = rng.choice(["swap", "other", "degenerate"])
    pool = [
        z for z in x.all_cells(n - 1)
        if z != refs[i] and bool(z.word) == (kind == "degenerate")
    ]
    if kind == "swap" or not pool:
        j = rng.choice([k for k in range(n + 1) if k != i])
        refs[i], refs[j] = refs[j], refs[i]
    else:
        refs[i] = rng.choice(pool)
    faces[key] = tuple(refs)
    return faces


def validate_corpus() -> list[SimplicialSet]:
    from homcat.subdivision import ex, sd

    small = [
        standard_simplex(2, 3),
        boundary(3),
        horn(3, 1),
        s1_model(),
        wedge_of_circles(),
        nerve(corpus.walking_arrow(), 3),
        nerve(corpus.cyclic_group_category(2), 3),
        nerve(corpus.idempotent_monoid_category(), 2),
        product_sset(standard_simplex(1, 2), standard_simplex(1, 2))[0],
    ]
    surfaces = corpus.seeded_surfaces(1)
    two_dim = [standard_simplex(2), boundary(2), horn(2, 1), s1_model()]
    return (
        small
        + surfaces
        + [sd(x).complex for x in small + surfaces]
        + [ex(x).complex for x in two_dim + [nerve(corpus.cyclic_group_category(2), 2)]]
    )


def test_validate_agrees_with_the_face_loop_on_corrupted_complexes():
    rng = random.Random(9173)
    failures = passes = 0
    for x in validate_corpus():
        assert outcome(oracle_validate, with_faces(x, x.faces)) is None
        assert outcome(SimplicialSet.validate, with_faces(x, x.faces)) is None
        for _ in range(12):
            faces = corrupt_one_face(x, rng)
            expected = outcome(oracle_validate, with_faces(x, faces))
            assert outcome(SimplicialSet.validate, with_faces(x, faces)) == expected
            failures += expected is not None
            passes += expected is None
    # both verdicts occur, and so do identity failures
    assert failures >= 100 and passes >= 20


def test_validate_rejects_a_wrong_sd_gluing(monkeypatch):
    from homcat import subdivision

    torus = corpus.seeded_surfaces(1)[1]
    subdivision.sd(torus)
    original = subdivision._top_plan

    def wrong(a, max_dim):
        # the right dimension, the wrong cell: each d_m names the next top
        # chain of its length, cyclically, in place of the right one
        tops, steps = original(a, max_dim)
        wrong_steps = []
        for step in steps:
            *head, t, strict = step
            if t is not None:
                # the chain without [a], relabelled, lies in sd(Δ^{|T|-1})
                b = len(head[1][-2]) - 1
                chains = list(subdivision._top_chains(b, max_dim))
                same = [k for k, c in enumerate(chains) if len(c) == len(chains[strict])]
                strict = same[(same.index(strict) + 1) % len(same)]
            wrong_steps.append((*head, t, strict))
        return tops, tuple(wrong_steps)

    monkeypatch.setattr(subdivision, "_top_plan", wrong)
    with pytest.raises(InvalidStructure, match="simplicial identity fails"):
        subdivision.sd(torus)


def test_validate_rejects_a_wrong_degenerate_sd_gluing(monkeypatch):
    from homcat.subdivision import SdResult, sd

    # composites g·g⁻¹ restrict 2-cells to degenerate edges, which sd
    # brings to normal form through pair_ref
    bz3 = nerve(corpus.cyclic_group_category(3), 2)
    sd(bz3)
    original = SdResult.pair_ref

    def wrong(self, a, xref, chain):
        # the right dimension, the wrong cell: the chain moved onto [a]
        return original(self, a, xref, (tuple(range(a + 1)),) * len(chain))

    monkeypatch.setattr(SdResult, "pair_ref", wrong)
    with pytest.raises(InvalidStructure, match="simplicial identity fails"):
        sd(bz3)


def test_validate_reads_faces_without_calling_face(monkeypatch):
    from homcat.subdivision import sd

    z = sd(sd(corpus.seeded_surfaces(1)[1]).complex).complex
    calls = []
    original = SimplicialSet.face

    def counting(self, ref, i):
        calls.append((ref, i))
        return original(self, ref, i)

    monkeypatch.setattr(SimplicialSet, "face", counting)
    fresh = with_faces(z, z.faces)
    fresh.validate()
    assert calls == []
    fresh.face(CellRef(z.cells[2][0]), 0)  # the counter is live
    assert len(calls) == 1
