from __future__ import annotations

import hashlib
import itertools
import json
import random

import pytest

from homcat.errors import BaseNotFound, DimensionTooLow, SchemaError
from homcat import homotopy
from homcat.homotopy import (
    _abelianized_trivial,
    _edge_endpoints,
    _relator_facts,
    GroupHomSpec,
    GroupPresentation,
    abelian_invariants,
    cyclic_reduce,
    free_reduce,
    homspec_from_json,
    invert_word,
    is_trivial_presentation,
    parse_word,
    pi0,
    pi1,
    presentation_from_json,
    smith_normal_form,
    svk_pushout,
    tietze_simplify,
)
from homcat.simplicial import CellRef, SimplicialSet, boundary, nerve, standard_simplex
from homcat.subdivision import sd

import corpus
from test_simplicial import s1_model, wedge_of_circles


def triangulated_surface(n_vertices: int, triangles) -> SimplicialSet:
    """The complex of a triangulation on vertices 0..n-1, named t{k},
    with edges e{a}{b} and triangles f{a}{b}{c} (a < b < c)."""
    vertices = [f"t{k}" for k in range(n_vertices)]
    triangles = [tuple(sorted(tri)) for tri in triangles]
    edges = sorted({(a, b) for tri in triangles for a, b in itertools.combinations(tri, 2)})
    edge_name = {e: f"e{e[0]}{e[1]}" for e in edges}
    cells = {
        0: vertices,
        1: [edge_name[e] for e in edges],
        2: [f"f{a}{b}{c}" for a, b, c in triangles],
    }
    faces = {}
    for a, b in edges:
        faces[(1, edge_name[(a, b)])] = (CellRef(f"t{b}"), CellRef(f"t{a}"))
    for a, b, c in triangles:
        faces[(2, f"f{a}{b}{c}")] = (
            CellRef(edge_name[(b, c)]),
            CellRef(edge_name[(a, c)]),
            CellRef(edge_name[(a, b)]),
        )
    x = SimplicialSet(2, cells, faces)
    x.validate()
    return x


def torus_triangulation() -> SimplicialSet:
    """The 7-vertex triangulated torus: triangles {i,i+1,i+3} and
    {i,i+2,i+3} mod 7."""
    triangles = []
    for i in range(7):
        triangles.append((i, (i + 1) % 7, (i + 3) % 7))
        triangles.append((i, (i + 2) % 7, (i + 3) % 7))
    return triangulated_surface(7, triangles)


def rp2_triangulation() -> SimplicialSet:
    """The 6-vertex real projective plane (half an icosahedron)."""
    return triangulated_surface(6, [
        (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 1),
        (1, 2, 4), (2, 3, 5), (3, 4, 1), (4, 5, 2), (5, 1, 3),
    ])


def disk_on_circle() -> SimplicialSet:
    """A circle with a 2-cell whose boundary runs around it once: the
    relator d2·d0·d1⁻¹ collapses to a single loop letter."""
    x = SimplicialSet(
        2,
        {0: ["v"], 1: ["a"], 2: ["d"]},
        {
            (1, "a"): (CellRef("v"), CellRef("v")),
            (2, "d"): (CellRef("a"), CellRef("a"), CellRef("a")),
        },
    )
    x.validate()
    return x


def figure_eight_with_disk() -> SimplicialSet:
    """Wedge of two circles with a disk killing the first loop."""
    x = SimplicialSet(
        2,
        {0: ["v"], 1: ["a", "b"], 2: ["d"]},
        {
            (1, "a"): (CellRef("v"), CellRef("v")),
            (1, "b"): (CellRef("v"), CellRef("v")),
            (2, "d"): (CellRef("a"), CellRef("a"), CellRef("a")),
        },
    )
    x.validate()
    return x


# -- words -------------------------------------------------------------------


def test_free_and_cyclic_reduction():
    assert free_reduce((1, -1, 2)) == (2,)
    assert free_reduce((1, 2, -2, -1)) == ()
    assert cyclic_reduce((1, 2, -1)) == (2,)
    assert invert_word((1, -2)) == (2, -1)


def test_parse_word_uppercase_is_inverse():
    assert parse_word(["a", "a", "B"], ["a", "b"]) == (1, 1, -2)
    assert parse_word(["E1"], ["e1"]) == (-1,)
    with pytest.raises(SchemaError):
        parse_word(["c"], ["a", "b"])


def test_presentation_json_roundtrip():
    pres = presentation_from_json(
        {"v": 1, "gens": ["a", "b"], "rels": [["a", "b", "A", "B"]]}
    )
    assert pres.relators == [(1, 2, -1, -2)]
    again = presentation_from_json(pres.to_json_dict())
    assert again.generators == pres.generators
    assert again.relators == pres.relators


def test_inverse_letters_read_back_when_upper_case_is_ambiguous():
    # the upper-cased name is the name itself, another generator, or
    # lower-cases to a different name: the inverse is written {"inv": g}
    pres = GroupPresentation(["1", "a", "A", "Ab"], [(-1,), (2, -2, -3), (-4, 4)])
    assert pres.to_json_dict()["rels"] == [
        [{"inv": "1"}],
        ["a", {"inv": "a"}, {"inv": "A"}],
        [{"inv": "Ab"}, "Ab"],
    ]
    # names whose upper case is unambiguous keep it
    plain = GroupPresentation(["xyz-abc", "b1_3", "d"], [(-1, -2, -3)])
    assert plain.to_json_dict()["rels"] == [["XYZ-ABC", "B1_3", "D"]]


def test_presentation_json_round_trip_over_names_equal_up_to_case():
    pool = ["a", "A", "b1", "B1", "1", "x_2", "X_2", "ab", "Ab", "aB", "AB",
            "g", "g^-1", "ß", "SS", "ss", "e1", "E1"]
    rng = random.Random(4242)
    for _ in range(300):
        gens = rng.sample(pool, rng.randint(1, 8))
        rels = [
            tuple(rng.choice([1, -1]) * rng.randint(1, len(gens))
                  for _ in range(rng.randint(0, 6)))
            for _ in range(rng.randint(0, 4))
        ]
        pres = GroupPresentation(gens, rels)
        again = presentation_from_json(json.loads(json.dumps(pres.to_json_dict())))
        assert (again.generators, again.relators) == (gens, rels), gens


def test_inverse_letter_form_is_checked():
    with pytest.raises(SchemaError):
        parse_word([{"inv": "c"}], ["a", "b"])
    with pytest.raises(SchemaError):
        parse_word([{"inv": "a", "x": 1}], ["a", "b"])
    with pytest.raises(SchemaError):
        presentation_from_json({"v": 1, "gens": ["a", 2], "rels": []})


# -- pi0 -----------------------------------------------------------------------


def test_pi0_of_two_points():
    x = SimplicialSet(0, {0: ["p", "q"]}, {})
    assert pi0(x) == [["p"], ["q"]]


def test_pi0_closure_over_zigzags():
    # one-directional edges still connect components
    n = nerve(corpus.poset_chain(2), 2)
    assert len(pi0(n)) == 1
    two = nerve(corpus.discrete(2), 2)
    assert len(pi0(two)) == 2


def test_pi0_of_boundary_is_connected():
    assert len(pi0(boundary(3))) == 1


def test_pi0_matches_zigzag_components_of_category():
    for cat in [
        corpus.walking_arrow(),
        corpus.discrete(3),
        corpus.poset_chain(2),
        corpus.parallel_pair(),
    ]:
        blocks = pi0(nerve(cat, 2))
        # category zig-zag components, computed directly on objects
        parent = {x: x for x in cat.objects}

        def find(v):
            while parent[v] != v:
                v = parent[v]
            return v

        for m in cat.morphisms:
            ra, rb = find(m.src), find(m.dst)
            if ra != rb:
                parent[ra] = rb
        assert len(blocks) == len({find(x) for x in cat.objects})


# -- Smith normal form ------------------------------------------------------------


def matmul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def test_smith_normal_form_properties_on_random_matrices():
    rng = random.Random(1001)
    for _ in range(150):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        a = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        diag, left, right = smith_normal_form(a)
        assert matmul(matmul(left, a), right) == diag
        entries = [
            diag[i][j] for i in range(rows) for j in range(cols)
        ]
        for i in range(rows):
            for j in range(cols):
                if i != j:
                    assert diag[i][j] == 0
        ds = [diag[i][i] for i in range(min(rows, cols))]
        assert all(d >= 0 for d in ds)
        for u, v in zip(ds, ds[1:]):
            if u != 0 and v != 0:
                assert v % u == 0
            if u == 0:
                assert v == 0


def test_smith_normal_form_against_sympy():
    from sympy import Matrix
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    rng = random.Random(3333)
    for _ in range(40):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        a = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
        diag, _, _ = smith_normal_form(a)
        ours = sorted(
            abs(diag[i][i]) for i in range(min(rows, cols)) if diag[i][i]
        )
        reference = sympy_snf(Matrix(a))
        theirs = sorted(
            abs(reference[i, i])
            for i in range(min(rows, cols))
            if reference[i, i]
        )
        assert ours == theirs


def test_abelian_invariants_examples():
    free = GroupPresentation(["a"], [])
    assert abelian_invariants(free) == (1, ())
    z2 = GroupPresentation(["a"], [(1, 1)])
    assert abelian_invariants(z2) == (0, (2,))
    torus = GroupPresentation(["a", "b"], [(1, 2, -1, -2)])
    assert abelian_invariants(torus) == (2, ())
    mixed = GroupPresentation(["a", "b"], [(1, 1, 2, 2, 2, 2)])
    assert abelian_invariants(mixed) == (1, (2,))


def matrix_presentation(rng, matrix, gens) -> GroupPresentation:
    """Relators whose exponent rows are the rows of ``matrix``, with the
    letters of each word shuffled."""
    words = []
    for row in matrix:
        word = []
        for j, c in enumerate(row):
            word.extend([j + 1 if c > 0 else -(j + 1)] * abs(c))
        rng.shuffle(word)
        words.append(tuple(word))
    return GroupPresentation([f"g{j}" for j in range(gens)], words)


def dense_invariants(matrix, gens) -> tuple[int, tuple[int, ...]]:
    """(rank, torsion) read off the Smith form of the whole matrix."""
    if gens == 0:
        return 0, ()
    if not matrix:
        return gens, ()
    diag, _, _ = smith_normal_form(matrix)
    nonzero = [d for d in (diag[i][i] for i in range(min(len(matrix), gens))) if d]
    return gens - len(nonzero), tuple(d for d in nonzero if d > 1)


def sparse_matrices(rng, count):
    """Seeded sparse integer matrices, tall, wide and square, some with no
    ±1 entry, some with zero rows and some with repeated rows."""
    for k in range(count):
        rows, cols = rng.randint(1, 9), rng.randint(1, 9)
        if k % 3 == 0:
            rows = max(rows, cols + 2)  # tall
        elif k % 3 == 1:
            cols = max(cols, rows + 2)  # wide
        else:
            cols = rows  # square
        values = [-6, -4, -3, -2, 2, 3, 4, 6] if k % 4 == 0 else [-3, -2, -1, 1, 2, 3]
        matrix = [
            [rng.choice(values) if rng.random() < 0.3 else 0 for _ in range(cols)]
            for _ in range(rows)
        ]
        if k % 5 == 0:
            matrix[rng.randrange(rows)] = [0] * cols
        if k % 7 == 0:
            matrix.append(list(rng.choice(matrix)))
        yield matrix, cols


def test_abelian_invariants_match_dense_smith_form():
    rng = random.Random(4242)
    for matrix, gens in sparse_matrices(rng, 400):
        pres = matrix_presentation(rng, matrix, gens)
        assert abelian_invariants(pres) == dense_invariants(matrix, gens), matrix
    # no generators, no relators, and only trivial relators
    assert abelian_invariants(GroupPresentation([], [])) == (0, ())
    assert abelian_invariants(GroupPresentation(["a", "b"], [])) == (2, ())
    assert abelian_invariants(GroupPresentation(["a", "b"], [(), (1, -1)])) == (2, ())


def test_abelian_invariants_against_sympy():
    from sympy import Matrix
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    rng = random.Random(5151)
    for matrix, gens in sparse_matrices(rng, 60):
        reference = sympy_snf(Matrix(matrix))
        factors = [
            abs(reference[i, i]) for i in range(min(len(matrix), gens)) if reference[i, i]
        ]
        want = (gens - len(factors), tuple(sorted(d for d in factors if d > 1)))
        assert abelian_invariants(matrix_presentation(rng, matrix, gens)) == want, matrix


@pytest.mark.parametrize("build,relators,homology", [
    (torus_triangulation, 755, (2, ())),
    (rp2_triangulation, 540, (0, (2,))),
])
def test_abelian_invariants_of_twice_subdivided_surfaces(build, relators, homology):
    x = sd(sd(build()).complex).complex
    pres = pi1(x, x.cells[0][0])
    assert len(pres.relators) == relators
    assert abelian_invariants(pres) == homology


# -- pi1 -----------------------------------------------------------------------


def test_pi1_of_circle():
    pres = pi1(s1_model(), "v")
    assert pres.generators == ["a"]
    assert pres.relators == []
    assert abelian_invariants(pres) == (1, ())


def test_pi1_of_boundary_of_tetrahedron_is_trivial():
    pres = pi1(boundary(3), "0")
    assert len(pres.generators) == 6
    assert abelian_invariants(pres) == (0, ())
    assert is_trivial_presentation(pres, budget=100)


def test_pi1_of_wedge_is_free_of_rank_two():
    pres = pi1(wedge_of_circles(), "v")
    assert sorted(pres.generators) == ["a", "b"]
    assert pres.relators == []
    assert abelian_invariants(pres) == (2, ())


def test_pi1_of_torus():
    pres = pi1(torus_triangulation(), "t0")
    assert len(pres.generators) == 21
    assert abelian_invariants(pres) == (2, ())


def test_pi1_of_standard_simplex_is_trivial():
    pres = pi1(standard_simplex(2, 2), "0")
    assert abelian_invariants(pres) == (0, ())
    assert is_trivial_presentation(pres)


def test_pi1_errors():
    with pytest.raises(BaseNotFound):
        pi1(s1_model(), "nope")
    with pytest.raises(DimensionTooLow):
        pi1(SimplicialSet(1, {0: ["v"], 1: []}, {}), "v")


def test_pi1_ignores_other_components():
    x = SimplicialSet(
        2,
        {0: ["v", "w"], 1: ["a"], 2: []},
        {(1, "a"): (CellRef("v"), CellRef("v"))},
    )
    x.validate()
    pres = pi1(x, "w")
    assert pres.generators == []
    pres_v = pi1(x, "v")
    assert pres_v.generators == ["a"]


def test_pi1_tree_choice_does_not_change_invariants():
    # recomputation with reversed edge order: same abelianization
    for build in [s1_model, wedge_of_circles, torus_triangulation, lambda: boundary(3)]:
        x = build()
        base = x.cells[0][0]
        direct = abelian_invariants(pi1(x, base))
        reversed_x = SimplicialSet(
            x.max_dim,
            {n: list(reversed(x.cells[n])) if n == 1 else x.cells[n] for n in x.cells},
            x.faces,
        )
        reversed_x.validate()
        again = abelian_invariants(pi1(reversed_x, base))
        assert direct == again


def test_pi1_of_disk_on_circle_is_trivial():
    pres = pi1(disk_on_circle(), "v")
    assert pres.generators == ["a"]
    assert pres.relators == [(1,)]
    assert is_trivial_presentation(pres)


# The pi1 that found the base component with a pi0 call and the spanning
# tree with a second search, kept verbatim as an oracle for the one-search
# pi1: the presentations must agree letter for letter.
def pi1_oracle(x: SimplicialSet, base: str) -> GroupPresentation:
    """Edge-path presentation relative to a breadth-first spanning tree.

    Generators are the nondegenerate 1-cells of the base component; tree
    edges become relators, and every nondegenerate 2-cell contributes
    d2 · d0 · d1⁻¹ with degenerate faces dropping out.
    """
    if x.max_dim < 2:
        raise DimensionTooLow(
            "pi1 needs the complex truncated at dimension 2 or higher",
            max_dim=x.max_dim,
        )
    if base not in x.cells[0]:
        raise BaseNotFound(f"unknown base vertex {base!r}", base=base)
    component = next(block for block in pi0(x) if base in block)
    in_component = set(component)
    edges = [
        name
        for name in x.cells[1]
        if _edge_endpoints(x, name)[0] in in_component
    ]
    generators = list(edges)
    gen_index = {name: k + 1 for k, name in enumerate(generators)}

    adjacency: dict[str, list[tuple[str, str]]] = {v: [] for v in component}
    for name in edges:
        src, dst = _edge_endpoints(x, name)
        adjacency[src].append((dst, name))
        adjacency[dst].append((src, name))
    for v in adjacency:
        adjacency[v].sort()

    tree_edges: list[str] = []
    seen = {base}
    queue = [base]
    while queue:
        v = queue.pop(0)
        for w, name in adjacency[v]:
            if w not in seen:
                seen.add(w)
                tree_edges.append(name)
                queue.append(w)

    relators: list[tuple[int, ...]] = [(gen_index[name],) for name in tree_edges]

    def letter(ref: CellRef) -> tuple[int, ...]:
        if ref.word:
            return ()  # degenerate edge: the constant path
        return (gen_index[ref.base],)

    for name in x.cells[2]:
        d0, d1, d2 = x.faces[(2, name)]
        if x.faces_of(d0.base, d0.word)[0][0] not in in_component:  # d0 d0: the corner
            continue
        word = free_reduce(letter(d2) + letter(d0) + invert_word(letter(d1)))
        if word:
            relators.append(word)
    pres = GroupPresentation(generators, relators)
    pres.validate()
    return pres


def disjoint_union(*parts: SimplicialSet) -> SimplicialSet:
    """The parts side by side, the cells of part k renamed 'k:name'; each
    level takes one cell of each part in turn, so no component is
    contiguous."""
    max_dim = min(x.max_dim for x in parts)
    cells = {n: [] for n in range(max_dim + 1)}
    faces = {}
    for n in range(max_dim + 1):
        rows = [[(k, x, name) for name in x.cells[n]] for k, x in enumerate(parts)]
        for k, x, name in filter(None, itertools.chain(*itertools.zip_longest(*rows))):
            cells[n].append(f"{k}:{name}")
            if n:
                faces[(n, f"{k}:{name}")] = tuple(
                    CellRef(f"{k}:{r.base}", r.word) for r in x.faces[(n, name)]
                )
    out = SimplicialSet(max_dim, cells, faces)
    out.validate()
    return out


def pi1_corpus() -> list[SimplicialSet]:
    from test_subdivision import sd_corpus  # test_subdivision imports this module

    return [x for x in sd_corpus().values() if x.max_dim >= 2] + [
        s1_model(), wedge_of_circles(), disk_on_circle(), figure_eight_with_disk(),
    ]


def assert_pi1_matches_the_oracle(x: SimplicialSet, base: str) -> None:
    got, want = pi1(x, base), pi1_oracle(x, base)
    assert got.to_json_dict() == want.to_json_dict()


def test_pi1_matches_the_two_search_oracle_on_the_corpus():
    for x in pi1_corpus():
        for base in x.cells[0]:
            assert_pi1_matches_the_oracle(x, base)


def test_pi1_matches_the_two_search_oracle_with_several_components():
    parts = [torus_triangulation(), s1_model(), rp2_triangulation(),
             SimplicialSet(2, {0: ["p"]}, {}), disk_on_circle(), boundary(3, 2)]
    x = disjoint_union(*parts)
    assert len(pi0(x)) == len(parts)
    for block in pi0(x):
        for base in (block[0], block[-1]):
            assert_pi1_matches_the_oracle(x, base)
    y = sd(x).complex
    for block in pi0(y):
        assert_pi1_matches_the_oracle(y, block[len(block) // 2])


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_pi1_matches_the_two_search_oracle_on_subdivided_seeded_surfaces(seed):
    for x in corpus.seeded_surfaces(seed):
        for _ in range(2):
            x = sd(x).complex
            assert_pi1_matches_the_oracle(x, x.cells[0][0])
            assert_pi1_matches_the_oracle(x, x.cells[0][-1])


# -- svk ------------------------------------------------------------------------


def test_svk_free_product_matches_wedge():
    trivial = GroupPresentation([], [])
    circle_a = GroupPresentation(["a"], [])
    circle_b = GroupPresentation(["b"], [])
    phi1 = GroupHomSpec(trivial, circle_a, {})
    phi2 = GroupHomSpec(trivial, circle_b, {})
    pushed = svk_pushout(phi1, phi2)
    assert pushed.generators == ["a", "b"]
    assert pushed.relators == []
    assert abelian_invariants(pushed) == abelian_invariants(pi1(wedge_of_circles(), "v"))


def test_svk_pushout_of_identities():
    p = GroupPresentation(["a"], [(1, 1, 1)])
    ident = GroupHomSpec(p, p, {"a": (1,)})
    pushed = svk_pushout(ident, ident)
    assert abelian_invariants(pushed) == abelian_invariants(p)


def test_svk_identified_generators():
    p0 = GroupPresentation(["c"], [])
    p1 = GroupPresentation(["x"], [])
    p2 = GroupPresentation(["x"], [])
    phi1 = GroupHomSpec(p0, p1, {"c": (1,)})
    phi2 = GroupHomSpec(p0, p2, {"c": (1,)})
    pushed = svk_pushout(phi1, phi2)
    assert pushed.generators == ["x", "x_2"]
    assert pushed.relators == [(1, -2)]
    assert abelian_invariants(pushed) == (1, ())


def test_svk_matches_figure_eight_with_disk():
    # decompose along the wedge point: the disk side kills its loop
    whole = abelian_invariants(pi1(figure_eight_with_disk(), "v"))
    trivial = GroupPresentation([], [])
    killed = pi1(disk_on_circle(), "v")
    circle = GroupPresentation(["b"], [])
    pushed = svk_pushout(
        GroupHomSpec(trivial, killed, {}), GroupHomSpec(trivial, circle, {})
    )
    assert abelian_invariants(pushed) == whole == (1, ())


def test_homspec_validation_rejects_bad_images():
    p0 = GroupPresentation(["c"], [(1, 1)])  # c of order 2
    target = GroupPresentation(["x"], [])  # free
    with pytest.raises(SchemaError):
        GroupHomSpec(p0, target, {"c": (1,)}).validate()
    # sending c to the identity is fine
    GroupHomSpec(p0, target, {"c": ()}).validate()


S3 = {"v": 1, "gens": ["a", "b"], "rels": [["a", "a"], ["b", "b", "b"], ["a", "b", "a", "b"]]}
ORDER_TWO = {"v": 1, "gens": ["c"], "rels": [["c", "c"]]}


def order_two_leg(target: dict, image: list) -> dict:
    """⟨c | c²⟩ → target, c going to ``image``."""
    return {"v": 1, "source": ORDER_TWO, "target": target, "images": {"c": image}}


def test_homspec_rejects_a_relator_image_that_is_not_the_identity():
    # in S₃ = ⟨a, b | a², b³, abab⟩ the image b² of c² is not 1, though it
    # dies in the abelianization Z/2 (where b is 0)
    with pytest.raises(SchemaError) as caught:
        homspec_from_json(order_two_leg(S3, ["b"]))
    assert caught.value.payload == {"relator": ["c", "c"]}
    assert "not the identity" in str(caught.value)
    homspec_from_json(order_two_leg(S3, ["a"]))
    homspec_from_json(order_two_leg(S3, ["b", "a", "B"]))  # a conjugate of a
    # an empty relator is dropped before the table is enumerated
    with_empty = {**S3, "rels": [[], *S3["rels"]]}
    with pytest.raises(SchemaError, match="not the identity"):
        homspec_from_json(order_two_leg(with_empty, ["b"]))
    homspec_from_json(order_two_leg(with_empty, ["a"]))
    is_identity = homotopy._identity_test(presentation_from_json(with_empty))
    assert is_identity((1, 2, 1, 2)) and is_identity((-2, -2, -2))
    assert not is_identity((2, 2)) and not is_identity((1, 2))


def test_homspec_into_a_target_with_no_generators():
    trivial = {"v": 1, "gens": [], "rels": [[]]}
    homspec_from_json(order_two_leg(trivial, []))
    assert homotopy._identity_test(presentation_from_json(trivial))(())


def test_homspec_falls_back_to_the_abelianization_on_an_infinite_target():
    # π₁ of the torus is Z², whose table never finishes: the relator check
    # falls back to the abelianization, where c ↦ a survives
    torus = {"v": 1, "gens": ["a", "b"], "rels": [["a", "b", "A", "B"]]}
    assert homotopy._identity_test(presentation_from_json(torus)) is None
    with pytest.raises(SchemaError, match="nontrivial in the target abelianization") as caught:
        homspec_from_json(order_two_leg(torus, ["a"]))
    assert caught.value.payload == {"relator": ["c", "c"]}
    homspec_from_json(order_two_leg(torus, ["a", "b", "A", "B"]))


def test_homspec_json():
    spec = homspec_from_json(
        {
            "v": 1,
            "source": {"v": 1, "gens": ["c"], "rels": []},
            "target": {"v": 1, "gens": ["x"], "rels": []},
            "images": {"c": ["x", "x"]},
        }
    )
    assert spec.images["c"] == (1, 1)


def dense_abelianized_trivial(word: tuple[int, ...], pres: GroupPresentation) -> bool:
    """The relator-image check as it ran before: the dense Smith form of the
    whole relator matrix with both transforms, and the image vector moved by
    the right one."""
    gens = len(pres.generators)
    vec = [0] * gens
    for letter in word:
        vec[abs(letter) - 1] += 1 if letter > 0 else -1
    if not any(vec):
        return True
    if not pres.relators:
        return False
    matrix = []
    for rel in pres.relators:
        row = [0] * gens
        for letter in rel:
            row[abs(letter) - 1] += 1 if letter > 0 else -1
        matrix.append(row)
    diag, _, right = smith_normal_form(matrix)
    moved = [
        sum(vec[i] * right[i][j] for i in range(gens)) for j in range(gens)
    ]
    for j in range(gens):
        d = diag[j][j] if j < len(matrix) else 0
        if d == 0:
            if moved[j] != 0:
                return False
        elif moved[j] % d != 0:
            return False
    return True


def lattice_probes(rng, pres: GroupPresentation):
    """Words to test against the relator lattice: integer combinations of
    the relators (members), multiples of one generator (members exactly
    where the torsion allows), and random words."""
    gens = len(pres.generators)
    combination = []
    for rel in pres.relators:
        k = rng.randint(-2, 2)
        combination.extend((rel if k > 0 else invert_word(rel)) * abs(k))
    rng.shuffle(combination)
    g = rng.randint(1, gens)
    return [
        tuple(combination),
        (g,) * rng.choice([1, 2, 3, 4, 6]),
        tuple(rng.choice([1, -1]) * rng.randint(1, gens) for _ in range(rng.randint(1, 6))),
        (),
    ]


def test_relator_image_check_matches_dense_oracle():
    rng = random.Random(6464)
    presentations = [
        matrix_presentation(rng, matrix, gens) for matrix, gens in sparse_matrices(rng, 200)
    ]
    presentations += [GroupPresentation(["a", "b"], []), GroupPresentation(["a"], [(1, 1)])]
    outcomes = []
    for pres in presentations:
        invariants = abelian_invariants(pres)
        probes = lattice_probes(rng, pres)
        wants = [dense_abelianized_trivial(word, pres) for word in probes]
        for word, want in zip(probes, wants):
            assert _abelianized_trivial([word], pres, invariants) == want, (pres, word)
        # the words lie in the lattice together exactly when each one does
        assert _abelianized_trivial(probes, pres, invariants) == all(wants)
        outcomes.extend(wants)
    assert outcomes.count(True) > 200 and outcomes.count(False) > 200


def test_relator_image_check_on_twice_subdivided_rp2_is_fast():
    import time

    x = sd(sd(rp2_triangulation()).complex).complex
    target = pi1(x, x.cells[0][0])
    assert len(target.relators) == 540
    invariants = abelian_invariants(target)  # (0, (2,))
    gens = range(1, len(target.generators) + 1)
    odd = next(g for g in gens if not _abelianized_trivial([(g,)], target, invariants))
    even = next(g for g in gens if _abelianized_trivial([(g,)], target, invariants))
    start = time.perf_counter()
    # the identity on π₁: 540 relator images, tested together
    identity = {name: (k + 1,) for k, name in enumerate(target.generators)}
    GroupHomSpec(target, target, identity).validate()
    # ⟨c | c⟩ → π₁: c may go to a generator that dies in H₁ = Z/2 ...
    GroupHomSpec(GroupPresentation(["c"], [(1,)]), target, {"c": (even,)}).validate()
    # ... or to any generator once c has order two, but not to one that survives
    GroupHomSpec(GroupPresentation(["c"], [(1, 1)]), target, {"c": (odd,)}).validate()
    with pytest.raises(SchemaError):
        GroupHomSpec(GroupPresentation(["c"], [(1,)]), target, {"c": (odd,)}).validate()
    assert time.perf_counter() - start < 1.0


# -- tietze -----------------------------------------------------------------------


def test_tietze_kills_simple_relator():
    pres = GroupPresentation(["a"], [(1,)])
    assert is_trivial_presentation(pres)


def test_tietze_rejects_a_negative_budget():
    pres = GroupPresentation(["a", "b"], [(1, 2, 1)])
    with pytest.raises(SchemaError, match="-5") as caught:
        tietze_simplify(pres, budget=-5)
    assert caught.value.payload == {"budget": -5}
    with pytest.raises(SchemaError):
        is_trivial_presentation(pres, budget=-1)
    # a budget of 0 allows no move
    kept = tietze_simplify(pres, budget=0)
    assert (kept.generators, kept.relators) == (pres.generators, pres.relators)


def test_relator_key_is_the_least_rotation_of_the_word_or_its_inverse():
    rng = random.Random(2718)
    for _ in range(3000):
        word = tuple(
            rng.choice([1, -1]) * rng.randint(1, 4) for _ in range(rng.randint(0, 9))
        )
        assert _relator_facts(word)[3] == _canonical_cyclic(cyclic_reduce(word)), word


def relator_facts_by_definition(word: tuple[int, ...]) -> tuple:
    """What ``_relator_facts`` means, spelled out: delete the leftmost
    adjacent inverse pair until none is left, then strip inverse ends; list
    the generators in order of first use; take the first that occurs
    once; key by the least rotation of the reduction or its inverse."""
    w = list(word)
    while any(w[i] == -w[i + 1] for i in range(len(w) - 1)):
        i = next(i for i in range(len(w) - 1) if w[i] == -w[i + 1])
        del w[i:i + 2]
    while len(w) >= 2 and w[0] == -w[-1]:
        w = w[1:-1]
    gens = [abs(letter) for letter in w]
    letters = tuple(dict.fromkeys(gens))
    lone = next((g for g in letters if gens.count(g) == 1), None)
    inverse = [-letter for letter in reversed(w)]
    rotations = [tuple(v[k:] + v[:k]) for v in (w, inverse) for k in range(len(v))]
    return tuple(w), letters, lone, min(rotations, default=())


def test_relator_facts_match_their_definition_on_random_words():
    rng = random.Random(8128)
    seen = {"distinct": 0, "repeated": 0, "adjacent": 0, "wrap": 0}
    for _ in range(20000):
        gens = rng.randint(1, 5)  # few generators, so repeats are common
        word = [rng.choice([1, -1]) * rng.randint(1, gens) for _ in range(rng.randint(0, 6))]
        if word and rng.random() < 0.3:  # an adjacent inverse pair
            k = rng.randrange(len(word))
            word.insert(k + 1, -word[k])
        if word and rng.random() < 0.3:  # a cancellation across the wrap
            word.append(-word[0])
        word = tuple(word)
        got = _relator_facts(word)
        assert (got[0], tuple(got[1]), got[2], got[3]) == relator_facts_by_definition(word), word
        distinct = len({abs(letter) for letter in word}) == len(word)
        seen["distinct" if distinct else "repeated"] += 1
        seen["adjacent"] += any(word[k] == -word[k + 1] for k in range(len(word) - 1))
        seen["wrap"] += len(word) >= 2 and word[0] == -word[-1]
    assert min(seen.values()) >= 3000, seen


def test_tietze_keeps_torus_presentation():
    pres = GroupPresentation(["a", "b"], [(1, 2, -1, -2)])
    reduced = tietze_simplify(pres, budget=50)
    assert len(reduced.generators) == 2
    assert reduced.relators == [(1, 2, -1, -2)]


def test_tietze_preserves_abelian_invariants():
    rng = random.Random(777)
    for _ in range(60):
        gens = [f"g{k}" for k in range(rng.randint(1, 4))]
        rels = []
        for _ in range(rng.randint(0, 4)):
            rels.append(
                tuple(
                    rng.choice([1, -1]) * rng.randint(1, len(gens))
                    for _ in range(rng.randint(1, 5))
                )
            )
        pres = GroupPresentation(gens, rels)
        reduced = tietze_simplify(pres, budget=100)
        assert abelian_invariants(pres) == abelian_invariants(reduced)


def _canonical_cyclic(word: tuple[int, ...]) -> tuple[int, ...]:
    """Least rotation among the word and its inverse, for deduplication."""
    if not word:
        return word
    candidates = []
    for w in (word, invert_word(word)):
        for k in range(len(w)):
            candidates.append(w[k:] + w[:k])
    return min(candidates)


# The move-by-move Tietze loop that renumbered every relator after each
# elimination, kept verbatim as an oracle: the incremental loop must give
# the same generators and relators, budget-bound runs included.
def tietze_oracle(pres: GroupPresentation, budget: int = 100) -> GroupPresentation:
    """Sound presentation cleanup within a move budget.

    Moves: free and cyclic reduction, dropping empty or duplicate relators,
    and eliminating a generator that occurs exactly once in some relator.
    The isomorphism class of the group never changes.
    """
    gens = list(pres.generators)
    rels = [cyclic_reduce(w) for w in pres.relators]
    moves = 0
    changed = True
    while changed and moves < budget:
        changed = False
        rels = [cyclic_reduce(w) for w in rels]
        rels = [w for w in rels if w]
        seen = {}
        for w in rels:
            key = _canonical_cyclic(w)
            if key not in seen:
                seen[key] = w
        if len(seen) != len(rels):
            rels = list(seen.values())
            changed = True
            moves += 1
            continue
        victim = None
        for r_idx, word in enumerate(rels):
            counts: dict[int, int] = {}
            for letter in word:
                counts[abs(letter)] = counts.get(abs(letter), 0) + 1
            for g_abs, c in counts.items():
                if c == 1:
                    victim = (r_idx, g_abs, word)
                    break
            if victim:
                break
        if victim is None:
            break
        r_idx, g_abs, word = victim
        pos = next(k for k, letter in enumerate(word) if abs(letter) == g_abs)
        # word = u g^e v  =>  g^e = u^{-1} v^{-1}, g = (v u)^{-e}
        u, e, v = word[:pos], word[pos], word[pos + 1:]
        replacement = invert_word(v + u) if e > 0 else (v + u)

        def substitute(w: tuple[int, ...]) -> tuple[int, ...]:
            out: list[int] = []
            for letter in w:
                if abs(letter) == g_abs:
                    out.extend(replacement if letter > 0 else invert_word(replacement))
                else:
                    out.append(letter)
            return free_reduce(tuple(out))

        rels = [substitute(w) for k, w in enumerate(rels) if k != r_idx]

        def renumber(w: tuple[int, ...]) -> tuple[int, ...]:
            out = []
            for letter in w:
                shiftv = abs(letter) - (1 if abs(letter) > g_abs else 0)
                out.append(shiftv if letter > 0 else -shiftv)
            return tuple(out)

        rels = [renumber(w) for w in rels]
        del gens[g_abs - 1]
        moves += 1
        changed = True
    out = GroupPresentation(gens, [w for w in (cyclic_reduce(w) for w in rels) if w])
    out.validate()
    return out


def random_presentation(rng) -> GroupPresentation:
    gens = [f"g{k}" for k in range(rng.randint(1, 6))]
    rels = []
    for _ in range(rng.randint(0, 8)):
        if rels and rng.random() < 0.25:
            # a rotation of an earlier relator or of its inverse: a duplicate
            w = rng.choice(rels)
            w = invert_word(w) if rng.random() < 0.5 else w
            k = rng.randrange(len(w)) if w else 0
            rels.append(w[k:] + w[:k])
            continue
        rels.append(tuple(
            rng.choice([1, -1]) * rng.randint(1, len(gens))
            for _ in range(rng.randint(0, 8))
        ))
    return GroupPresentation(gens, rels)


def test_tietze_matches_renumbering_oracle_on_random_presentations():
    rng = random.Random(9090)
    for _ in range(300):
        pres = random_presentation(rng)
        for budget in (0, 1, 5, 100):
            got = tietze_simplify(pres, budget=budget)
            want = tietze_oracle(pres, budget=budget)
            assert (got.generators, got.relators) == (want.generators, want.relators)


@pytest.mark.parametrize(
    "build",
    [lambda: boundary(3, 2), torus_triangulation, rp2_triangulation],
    ids=["sphere", "torus", "rp2"],
)
def test_tietze_matches_renumbering_oracle_on_subdivided_surfaces(build):
    x = build()
    for level in range(3):
        pres = pi1(x, x.cells[0][0])
        for budget in (5, 100) if level == 2 else (5, 100, 10**6):
            got = tietze_simplify(pres, budget=budget)
            want = tietze_oracle(pres, budget=budget)
            assert (got.generators, got.relators) == (want.generators, want.relators)
        x = sd(x).complex


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_tietze_matches_renumbering_oracle_on_seeded_surfaces_twice_subdivided(seed):
    for x in corpus.seeded_surfaces(seed):
        y = sd(sd(x).complex).complex
        pres = pi1(y, y.cells[0][0])
        got = tietze_simplify(pres, budget=100)
        want = tietze_oracle(pres, budget=100)
        assert (got.generators, got.relators) == (want.generators, want.relators)


# sha256 per seed of the sd-surfaces path: sd and sd² of each seeded
# surface, and at every level (the surface, sd, sd²) π₁ at the first vertex,
# its Tietze simplification at budgets 0, 1, 100 and 10⁶ and its abelian
# invariants.  Any change to Tietze, pi1, sd or the JSON they emit shows here.
SD_SURFACE_DIGESTS = {
    1: {
        "sd": "f5dd57b843171cdb80f186d37fadfd668a49045e17632767c58930c67e94ce3f",
        "sd2": "836cdb150a954ac83d2134b0a47c9c3fd979835df78c492db75ae7ddf1acfda5",
        "pi1": "9326d388f4758dc44e1c24ed1bd532e5954c73789e755017add4d00ce5ea8266",
        "tietze": "5df19e520a1ebf82cc93a9264c0effef4654db1f923fb047711692f03b023771",
        "abelian": "7ac5da98763ea8fa4c5a430c2a908156f3d4486605dc89508102991e0c0baf3f",
    },
    2: {
        "sd": "c55af3f43a06ee9be79a12478193e2f9942c26d93c2657ea9f400dbf1665fedd",
        "sd2": "f35bbcba8cdaaa45d0751921f4133f85171a6803bad2370505f7ada635da1281",
        "pi1": "ae93a330ba8916469b03ae041f24ee05dabe1a27cbb892872a30ce7daf54b637",
        "tietze": "73404a83ffee8dfaface8aece29ee8bea4c330a61ed716bfaa08c49522175e85",
        "abelian": "7ac5da98763ea8fa4c5a430c2a908156f3d4486605dc89508102991e0c0baf3f",
    },
    3: {
        "sd": "b357e4806a212c173bf917391e1eb45cca6962be10b773936e94fbf446220e34",
        "sd2": "f935a30443760ab3824aa24b17cf743ed389449fa56822585bc3bda4f8aad3be",
        "pi1": "ba3df4fefde4c4fcb53ba3816ab674af9a7238b6910091b72174ff1da6f09587",
        "tietze": "a63ae1385dea8c6e5f9e102cadc188b3680be550833e0d4709fce152ca511c25",
        "abelian": "7ac5da98763ea8fa4c5a430c2a908156f3d4486605dc89508102991e0c0baf3f",
    },
}


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sd_surface_path_is_byte_identical(seed):
    parts = {"sd": [], "sd2": [], "pi1": [], "tietze": [], "abelian": []}
    for x in corpus.seeded_surfaces(seed):
        for level in range(3):
            if level:
                x = sd(x).complex
                parts["sd" if level == 1 else "sd2"].append(x.to_json_dict())
            pres = pi1(x, x.cells[0][0])
            parts["pi1"].append(pres.to_json_dict())
            parts["tietze"].append([
                tietze_simplify(pres, budget=budget).to_json_dict()
                for budget in (0, 1, 100, 10**6)
            ])
            parts["abelian"].append(abelian_invariants(pres))
    got = {
        kind: hashlib.sha256(json.dumps(value).encode()).hexdigest()
        for kind, value in parts.items()
    }
    assert got == SD_SURFACE_DIGESTS[seed]


def record_rewrites(monkeypatch) -> list[tuple[int, tuple[int, ...]]]:
    """Every relator an elimination rewrites, beside the generator it
    eliminates."""
    seen = []
    substitute = homotopy._substitute

    def counted(word, g_abs, image, inverse):
        seen.append((g_abs, word))
        return substitute(word, g_abs, image, inverse)

    monkeypatch.setattr(homotopy, "_substitute", counted)
    return seen


def test_tietze_elimination_rewrites_only_the_relators_using_the_generator(monkeypatch):
    seen = record_rewrites(monkeypatch)
    # g1 occurs once in the first relator and is eliminated as g1 = g2⁻²;
    # two of the other twelve relators use it, and no other move is open
    using = [(1, 1, 3, 3, 3), (4, 4, 1, 1)]
    others = [(4, 4, 5, 5), (5, 5, 5)] + [(k, k) for k in range(6, 16)]
    pres = GroupPresentation(
        [f"g{k}" for k in range(1, 16)],
        [(1, 2, 2), using[0]] + others[:5] + [using[1]] + others[5:],
    )
    got = tietze_simplify(pres, budget=100)
    want = tietze_oracle(pres, budget=100)
    assert (got.generators, got.relators) == (want.generators, want.relators)
    assert seen == [(1, w) for w in using]
    # on larger runs every rewritten relator holds the eliminated generator
    x = sd(torus_triangulation()).complex
    for pres in [pi1(x, x.cells[0][0])] + [
        random_presentation(random.Random(k)) for k in range(200)
    ]:
        seen.clear()
        tietze_simplify(pres, budget=100)
        assert all(g in map(abs, w) for g, w in seen)
    assert seen
