from __future__ import annotations

import pytest

from homcat.errors import BudgetExceeded
from homcat.simplicial import (
    CellRef,
    SimplicialMap,
    SimplicialSet,
    boundary,
    enumerate_maps,
    horn,
    nerve,
    standard_simplex,
)
from homcat.subdivision import (
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
