"""Invariants that tie several modules together: subdivision preserving
homotopy invariants, nerves preserving products, map counting against the
product universal property, and honest failure on infinite localizations."""

from __future__ import annotations

import pytest

from homcat.errors import CapExceeded
from homcat.fincat import product_category
from homcat.homotopy import abelian_invariants, pi0, pi1
from homcat.modelcat import localize, saturate_two_of_three
from homcat.simplicial import (
    boundary,
    classify,
    enumerate_maps,
    horn,
    nerve,
    product_sset,
    standard_simplex,
)
from homcat.subdivision import ex, last_vertex, sd

import corpus
from test_homotopy import torus_triangulation
from test_simplicial import s1_model, wedge_of_circles


# the weak equivalences sd X → X (last vertex) and X → Ex X (unit) must
# keep π₀ and the abelianized π₁
WEAK_EQUIVALENCE_CASES = [
    (s1_model, (1, ())),
    (wedge_of_circles, (2, ())),
    (lambda: boundary(2), (1, ())),
    (torus_triangulation, (2, ())),
    (lambda: horn(2, 0), (0, ())),
    (lambda: horn(2, 1), (0, ())),
]


def test_subdivision_preserves_components():
    for build, _ in WEAK_EQUIVALENCE_CASES:
        x = build()
        assert len(pi0(sd(x).complex)) == len(pi0(ex(x).complex)) == len(pi0(x))
    two = nerve(corpus.discrete(2), 2)
    assert len(pi0(sd(two).complex)) == 2


def test_subdivision_preserves_fundamental_group_abelianization():
    for build, expected in WEAK_EQUIVALENCE_CASES:
        x = build()
        for y in (x, sd(x).complex, ex(x).complex):
            assert abelian_invariants(pi1(y, y.cells[0][0])) == expected
    # sd only: Ex ∂Δ³ takes more than the default 10⁶ candidates
    x = boundary(3)
    for y in (x, sd(x).complex):
        assert abelian_invariants(pi1(y, y.cells[0][0])) == (0, ())


def test_subdivision_of_torus_has_barycentric_counts():
    # every vertex/edge/face contributes a barycenter: V+E+F vertices,
    # 2E+6F edges, 6F triangles
    sdt = sd(torus_triangulation()).complex
    assert sdt.counts() == (42, 126, 84)


def test_last_vertex_validates_on_group_nerve():
    bg = nerve(corpus.cyclic_group_category(2), 2)
    lv = last_vertex(bg)  # validates internally
    assert lv.target is bg


def test_nerve_preserves_products():
    arrow = corpus.walking_arrow()
    square_nerve = nerve(product_category(arrow, arrow), 2)
    prod, _, _ = product_sset(nerve(arrow, 2), nerve(arrow, 2))
    assert square_nerve.counts() == prod.counts()
    for n in range(3):
        assert square_nerve.n_cells_total(n) == prod.n_cells_total(n)


def test_product_universal_property_on_map_counts():
    # maps Z -> X x Y biject with pairs of maps
    z_options = [standard_simplex(1, 2), horn(2, 1, max_dim=2), s1_model()]
    x = nerve(corpus.cyclic_group_category(2), 2)
    y = standard_simplex(1, 2)
    prod, _, _ = product_sset(x, y)
    for z in z_options:
        lhs = len(enumerate_maps(z, prod))
        rhs = len(enumerate_maps(z, x)) * len(enumerate_maps(z, y))
        assert lhs == rhs, (z.counts(), lhs, rhs)


def test_product_of_nerves_classifies_quasi():
    arrow = corpus.walking_arrow()
    prod, _, _ = product_sset(nerve(arrow, 2), nerve(arrow, 2))
    assert classify(prod, 2).verdict == "quasi"


def test_localization_exceeding_cap_on_genuinely_infinite_case():
    # marking one arrow of the parallel pair adjoins a free endomorphism
    # (b∘a⁻¹ and its powers), so no finite presentation exists
    marked = saturate_two_of_three(corpus.parallel_pair(), ["a"])
    with pytest.raises(CapExceeded):
        localize(marked, cap=4000)


def test_localization_of_poset_chain_counts():
    marked = saturate_two_of_three(corpus.poset_chain(2), ["le01"])
    result = localize(marked)
    # objects 0 and 1 merge up to isomorphism: identities (3), le01 and its
    # inverse, le12 and le02 (which equal each other after composing with
    # the inverse, but keep distinct sources)
    assert len(result.category.morphisms) == 7
    assert result.category.is_iso(result.projection.on_mor("le01"))
    assert not result.category.is_iso(result.projection.on_mor("le12"))
