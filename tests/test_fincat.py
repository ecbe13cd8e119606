from __future__ import annotations

import itertools
import random

import pytest

from homcat import setcalc
from homcat.errors import (
    BadEndpoints,
    BudgetExceeded,
    DuplicateName,
    MissingComposite,
    NonAssociative,
)
from homcat.fincat import (
    FinFunctor,
    enumerate_functors,
    enumerate_nat_trans,
    hom_functor,
    identity_functor,
    iso_classes,
    join_names,
    opposite,
    partition,
    product_category,
    quotient,
    UnionFind,
    validate_category,
    yoneda_check,
)

import corpus


def test_identity_only_category():
    cat = validate_category({"objects": ["A"], "morphisms": [], "compose": []})
    assert cat.objects == ["A"]
    assert len(cat.morphisms) == 1
    assert cat.is_identity("id_A")


def test_walking_arrow_has_three_morphisms():
    cat = corpus.walking_arrow()
    assert len(cat.morphisms) == 3
    assert cat.compose("id_B", "f") == "f"
    assert cat.compose("f", "id_A") == "f"


def test_z2_and_idempotent_monoids_are_both_valid():
    z2 = validate_category(
        {
            "objects": ["*"],
            "morphisms": [{"name": "g", "src": "*", "dst": "*"}],
            "compose": [["g", "g", "id_*"]],
        }
    )
    assert z2.compose("g", "g") == "id_*"
    idem = corpus.idempotent_monoid_category()
    assert idem.compose("g", "g") == "g"


def one_object_table_is_associative(table: dict) -> bool:
    """Direct oracle: check every triple in a one-object composition table."""
    names = ["id", "a", "b"]
    full = dict(table)
    for x in names:
        full[("id", x)] = x
        full[(x, "id")] = x
    return all(
        full[(full[(h, g)], f)] == full[(h, full[(g, f)])]
        for h in names
        for g in names
        for f in names
    )


def test_nonassociative_witness_found_by_exhaustive_table_scan():
    # scan all one-object tables on {id, a, b}; the validator must agree
    # with the direct oracle on every single one of them
    names = ["a", "b"]
    pairs = [(g, f) for g in names for f in names]
    seen_bad = 0
    for values in itertools.product(["id", "a", "b"], repeat=4):
        table = dict(zip(pairs, values))
        raw = {
            "objects": ["*"],
            "morphisms": [
                {"name": "a", "src": "*", "dst": "*"},
                {"name": "b", "src": "*", "dst": "*"},
            ],
            "compose": [
                [g, f, h if h != "id" else "id_*"] for (g, f), h in table.items()
            ],
        }
        if one_object_table_is_associative(table):
            validate_category(raw)
        else:
            seen_bad += 1
            with pytest.raises(NonAssociative) as exc:
                validate_category(raw)
            witness = exc.value.payload.get("witness")
            assert witness is not None and len(witness) == 3
    assert seen_bad > 0


def test_missing_composite_is_reported():
    raw = {
        "objects": ["A", "B", "C"],
        "morphisms": [
            {"name": "f", "src": "A", "dst": "B"},
            {"name": "g", "src": "B", "dst": "C"},
        ],
        "compose": [],
    }
    with pytest.raises(MissingComposite) as exc:
        validate_category(raw)
    assert exc.value.payload == {"g": "g", "f": "f"}


def test_bad_endpoints_and_duplicates_rejected():
    with pytest.raises(BadEndpoints):
        validate_category(
            {
                "objects": ["A"],
                "morphisms": [{"name": "f", "src": "A", "dst": "Z"}],
                "compose": [],
            }
        )
    with pytest.raises(DuplicateName):
        validate_category({"objects": ["A", "A"], "morphisms": [], "compose": []})
    with pytest.raises(DuplicateName):
        validate_category(
            {
                "objects": ["A"],
                "morphisms": [{"name": "id_A", "src": "A", "dst": "A"}],
                "compose": [],
            }
        )


def test_round_trip_through_serialization():
    for cat in [
        corpus.walking_arrow(),
        corpus.walking_iso(),
        corpus.poset_chain(2),
        corpus.cyclic_group_category(3),
    ]:
        again = validate_category(cat.to_json_dict())
        assert again.objects == cat.objects
        assert {m.name for m in again.morphisms} == {m.name for m in cat.morphisms}
        assert again.compose_table == cat.compose_table


def test_round_trip_with_renamed_identities():
    # product categories name identities as pairs; serialization must
    # rewrite identity-valued composites so the payload reloads
    p = product_category(corpus.walking_iso(), corpus.walking_iso())
    again = validate_category(p.to_json_dict())
    assert len(again.morphisms) == len(p.morphisms)
    assert again.compose("(g,g)", "(f,f)") == "id_(A,A)"


def test_opposite_is_an_involution():
    for cat in [corpus.walking_arrow(), corpus.cyclic_group_category(2)]:
        opop = opposite(opposite(cat))
        assert opop.objects == cat.objects
        assert opop.compose_table == cat.compose_table
        assert [ (m.name, m.src, m.dst) for m in opop.morphisms ] == [
            (m.name, m.src, m.dst) for m in cat.morphisms
        ]


def test_opposite_of_abelian_one_object_category_is_itself():
    z2 = corpus.cyclic_group_category(2)
    op = opposite(z2)
    assert op.compose_table == z2.compose_table


def test_opposite_of_poset_reverses_order():
    op = opposite(corpus.poset_chain(2))
    assert op.src("le02") == "2" and op.dst("le02") == "0"


def test_product_with_terminal_category_is_isomorphic():
    c = corpus.walking_arrow()
    p = product_category(c, corpus.terminal_category())
    assert len(p.objects) == len(c.objects)
    assert len(p.morphisms) == len(c.morphisms)
    # composition transported along the renaming x -> (x,*)
    for (g, f), h in c.compose_table.items():
        assert p.compose(f"({g},id_*)", f"({f},id_*)") == f"({h},id_*)"


def test_product_of_walking_arrows_counts():
    c = corpus.walking_arrow()
    p = product_category(c, c)
    assert len(p.objects) == 4
    assert len(p.morphisms) == 9
    p.validate()


def test_product_of_z2_with_z2_is_klein_four():
    z2 = corpus.cyclic_group_category(2)
    p = product_category(z2, z2)
    assert len(p.morphisms) == 4
    ident = p.identity["(*,*)"]
    for m in p.morphisms:
        assert p.compose(m.name, m.name) == ident  # every element self-inverse
    for a in p.morphisms:
        for b in p.morphisms:
            assert p.compose(a.name, b.name) == p.compose(b.name, a.name)


def test_iso_classes():
    assert iso_classes(corpus.discrete(2)) == [["D0"], ["D1"]]
    assert iso_classes(corpus.walking_iso()) == [["A", "B"]]
    assert iso_classes(corpus.poset_chain(1)) == [["0"], ["1"]]
    for cat in [corpus.walking_iso(), corpus.poset_chain(2)]:
        assert iso_classes(cat) == iso_classes(opposite(cat))


def test_iso_classes_come_in_order_of_first_member():
    # A ≅ C with B between them: the class of A comes first whichever
    # way the isomorphism points
    cat = validate_category(
        {
            "objects": ["A", "B", "C"],
            "morphisms": [
                {"name": "f", "src": "A", "dst": "C"},
                {"name": "g", "src": "C", "dst": "A"},
            ],
            "compose": [["g", "f", "id_A"], ["f", "g", "id_C"]],
        }
    )
    assert iso_classes(cat) == iso_classes(opposite(cat)) == [["A", "C"], ["B"]]


def reachable_least(elements, pairs) -> dict:
    """Least member of each element's class, by breadth-first search over
    the pairs read as undirected edges."""
    edges = {x: set() for x in elements}
    for a, b in pairs:
        edges[a].add(b)
        edges[b].add(a)
    least = {}
    for x in elements:
        seen, frontier = {x}, [x]
        while frontier:
            frontier = [z for y in frontier for z in edges[y] if z not in seen]
            seen.update(frontier)
        least[x] = min(seen)
    return least


def quotient_cases():
    strings = ["b", "a", "c", "a:b", "a|b"]
    words = [(("m", "f"),), (("i", "f"),), (("m", "f"), ("i", "f")), ()]
    yield strings, []
    yield strings, [("a", "a"), ("c", "c")]
    yield strings, [("c", "b"), ("b", "c"), ("a|b", "a:b")]
    yield words, [(words[2], words[3]), (words[1], words[0])]
    yield [], []
    words += [(("m", "g"),), (("i", "g"), ("m", "f"))]
    rng = random.Random(7)
    for trial in range(60):
        pool = strings if trial % 2 else words
        elements = rng.sample(pool, rng.randint(1, len(pool)))
        pairs = [
            (rng.choice(elements), rng.choice(elements))
            for _ in range(rng.randint(0, 2 * len(elements)))
        ]
        pairs += [(b, a) for a, b in pairs[:2]] + [(elements[0], elements[0])]
        yield elements, pairs


def test_quotient_matches_reachability_closure():
    for elements, pairs in quotient_cases():
        least = reachable_least(elements, pairs)
        assert quotient(elements, pairs) == least
        blocks: dict = {}
        for x in elements:
            blocks.setdefault(least[x], []).append(x)
        assert partition(elements, pairs) == list(blocks.values())
        # grown one pair at a time, each element added on first sight
        classes = UnionFind()
        for a, b in pairs:
            classes.add(a)
            classes.add(b)
            classes.union(a, b)
        for x in elements:
            classes.add(x)
            assert classes.find(x) == least[x]


def corpus_categories():
    rng = random.Random(11)
    cats = [
        corpus.terminal_category(),
        corpus.walking_arrow(),
        corpus.walking_iso(),
        corpus.discrete(3),
        corpus.poset_chain(3),
        corpus.parallel_pair(),
        corpus.cyclic_group_category(4),
        corpus.idempotent_monoid_category(),
        corpus.chaotic_groupoid(["a", "b", "c"]),
        corpus.path_category(3, [(0, 1, "p"), (0, 1, "q"), (1, 2, "r"), (0, 2, "s")]),
        product_category(corpus.walking_arrow(), corpus.parallel_pair()),
    ] + [corpus.random_shape(rng) for _ in range(20)]
    return cats + [opposite(cat) for cat in cats]


def test_hom_index_matches_linear_scan():
    for cat in corpus_categories():
        for x in cat.objects + ["not an object"]:
            for y in cat.objects:
                scan = [m.name for m in cat.morphisms if m.src == x and m.dst == y]
                got = cat.hom(x, y)
                assert got == scan
                got.append("zz")  # a caller's change does not reach the index
                assert cat.hom(x, y) == scan


def test_nat_trans_identity_on_terminal():
    t = corpus.terminal_category()
    nats = enumerate_nat_trans(identity_functor(t), identity_functor(t))
    assert len(nats) == 1


def test_nat_trans_identity_on_z2_is_the_center():
    z2 = corpus.cyclic_group_category(2)
    nats = enumerate_nat_trans(identity_functor(z2), identity_functor(z2))
    assert len(nats) == 2  # the center of Z/2 is the whole group


def test_nat_trans_between_constant_functors():
    c = corpus.walking_arrow()
    const_a = FinFunctor(c, c, {"A": "A", "B": "A"}, {m.name: "id_A" for m in c.morphisms})
    const_b = FinFunctor(c, c, {"A": "B", "B": "B"}, {m.name: "id_B" for m in c.morphisms})
    const_a.validate()
    const_b.validate()
    nats = enumerate_nat_trans(const_a, const_b)
    assert len(nats) == 1
    assert all(v == "f" for v in nats[0].components.values())


def test_hom_functor_values():
    c = corpus.walking_arrow()
    h_a = hom_functor(c, "A", "co")
    assert "id_A" in h_a.values["A"].elements
    assert {len(h_a.values["A"]), len(h_a.values["B"])} == {1}
    z2 = corpus.cyclic_group_category(2)
    h = hom_functor(z2, "*", "co")
    assert len(h.values["*"]) == 2
    # the action of g is translation, hence a fixed-point-free bijection
    action = h.arrows["g1"]
    assert action.is_bijective()
    assert all(action(x) != x for x in h.values["*"].elements)


def test_hom_functor_contravariant():
    c = corpus.walking_arrow()
    h_b = hom_functor(c, "B", "contra")
    assert set(h_b.values["A"].elements) == {"f"}
    assert set(h_b.values["B"].elements) == {"id_B"}
    h_b.validate()


def test_yoneda_specialized_to_representables():
    c = corpus.walking_arrow()
    for x in c.objects:
        witness = yoneda_check(c, x, hom_functor(c, x, "co"))
        assert len(witness) == len(c.hom(x, x))


def test_yoneda_on_terminal_with_three_element_set():
    t = corpus.terminal_category()
    s = setcalc.FinSetRep("S", ("p", "q", "r"))
    diagram = setcalc.constant_diagram(t, s)
    witness = yoneda_check(t, "*", diagram)
    assert len(witness) == 3


def test_yoneda_empty_value_forces_empty_nat_set():
    c = corpus.walking_arrow()
    empty = setcalc.FinSetRep("E", ())
    diagram = setcalc.Diagram(
        c,
        {"A": empty, "B": empty},
        {m.name: setcalc.FinFunction(empty, empty, {}) for m in c.morphisms},
    )
    hx = hom_functor(c, "A", "co")
    assert setcalc.diagram_nat_trans(hx, diagram) == []


def test_yoneda_fuzzed_over_random_categories():
    rng = random.Random(31415)
    for _ in range(25):
        shape = corpus.random_shape(rng)
        if not shape.objects:
            continue
        diagram = corpus.random_diagram(rng, shape)
        x = rng.choice(shape.objects)
        nats = setcalc.diagram_nat_trans(hom_functor(shape, x, "co"), diagram)
        assert len(nats) == len(diagram.values[x])
        yoneda_check(shape, x, diagram)  # must never raise NotBijective


def test_enumerate_functors_counts():
    t = corpus.terminal_category()
    arrow = corpus.walking_arrow()
    assert len(enumerate_functors(t, arrow)) == 2
    # functors arrow -> arrow: pick images of A,B with a map between them
    assert len(enumerate_functors(arrow, arrow)) == 3


def test_enumerate_functors_budget():
    z3 = corpus.cyclic_group_category(3)
    with pytest.raises(BudgetExceeded):
        enumerate_functors(z3, z3, budget=2)


def test_a_tripped_budget_says_what_it_spent_and_on_what():
    z3 = corpus.cyclic_group_category(3)
    with pytest.raises(BudgetExceeded, match="budget of 2 values exhausted") as caught:
        enumerate_functors(z3, z3, budget=2)
    # the third value tried trips a budget of two
    assert caught.value.payload == {"limit": 2, "spent": 3, "what": "functor enumeration"}


def test_functor_searches_match_the_product_references():
    cats = [
        corpus.terminal_category(),
        corpus.walking_arrow(),
        corpus.walking_iso(),
        corpus.discrete(2),
        corpus.poset_chain(2),
        corpus.parallel_pair(),
        corpus.cyclic_group_category(2),
        corpus.cyclic_group_category(3),
        corpus.idempotent_monoid_category(),
        corpus.chaotic_groupoid(["a", "b", "c"]),
    ]
    functors = transformations = 0
    for c in cats:
        for d in cats:
            got = enumerate_functors(c, d)
            want = corpus.enumerate_functors_by_product(c, d)
            assert [
                (list(f.object_map.items()), list(f.morphism_map.items())) for f in got
            ] == [
                (list(f.object_map.items()), list(f.morphism_map.items())) for f in want
            ]
            functors += len(got)
            for f in got:
                for g in got:
                    nats = enumerate_nat_trans(f, g)
                    assert [list(nt.components.items()) for nt in nats] == [
                        list(nt.components.items())
                        for nt in corpus.enumerate_nat_trans_by_product(f, g)
                    ]
                    transformations += len(nats)
    assert (functors, transformations) == (361, 3217)


def test_nat_trans_agrees_with_end_computation():
    # the set of natural transformations is the end of Mor(F-, G-)
    z2 = corpus.cyclic_group_category(2)
    arrow = corpus.walking_arrow()
    cases = []
    for c in (z2, arrow):
        functors = enumerate_functors(c, c)
        for f in functors:
            for g in functors:
                cases.append((f, g))
    assert cases
    for f, g in cases:
        direct = enumerate_nat_trans(f, g)
        via_end = setcalc.end(setcalc.nat_trans_bifunctor(f, g))
        assert len(direct) == len(via_end)


def test_join_names_escapes_only_on_a_collision():
    assert join_names([("a", "b"), ("c",), ()], ",", "(", ")") == {
        ("a", "b"): "(a,b)", ("c",): "(c)", (): "()"
    }
    assert join_names([("a,b", "c"), ("a", "b,c"), ("(\\", ")")], ",", "(", ")") == {
        ("a,b", "c"): "(a\\,b,c)",
        ("a", "b,c"): "(a,b\\,c)",
        ("(\\", ")"): "(\\(\\\\,\\))",
    }


def test_join_names_is_injective_on_random_keys():
    rng = random.Random(31)
    for _ in range(200):
        length = rng.randint(1, 3)
        keys = list(dict.fromkeys(
            tuple("".join(rng.choice("a|\\") for _ in range(rng.randint(0, 3)))
                  for _ in range(length))
            for _ in range(rng.randint(1, 12))
        ))
        names = join_names(keys, "|")
        assert len(set(names.values())) == len(keys)


def test_product_category_names_pairs_that_plain_joins_merge():
    # joined plainly, (a,b , c) and (a , b,c) are both (a,b,c)
    c = validate_category({"objects": ["a,b", "a"], "morphisms": [], "compose": []})
    d = validate_category({"objects": ["c", "b,c"], "morphisms": [], "compose": []})
    p = product_category(c, d)
    p.validate()
    assert p.objects == ["(a\\,b,c)", "(a\\,b,b\\,c)", "(a,c)", "(a,b\\,c)"]
    assert p.identity["(a,b\\,c)"] == "(id_a,id_b,c)"


def test_product_category_names_are_injective_on_clashing_names():
    rng = random.Random(4409)
    for _ in range(100):
        x, y, z, f, g, *extras = corpus.clash_names(rng, rng.randint(5, 7))
        # joined plainly, (x,y , z) and (x , y,z) are the same string
        left = [f"{x},{y}", x] + extras[:1]
        right = [z, f"{y},{z}"] + extras[1:]
        rng.shuffle(left)
        rng.shuffle(right)
        factors = [
            validate_category(
                {
                    "objects": objects,
                    "morphisms": [{"name": m, "src": objects[0], "dst": objects[1]}],
                    "compose": [],
                }
            )
            for objects, m in ((left, f), (right, g))
        ]
        p = product_category(*factors)
        p.validate()  # rejects a repeated object or morphism name
        assert len(set(p.objects)) == len(left) * len(right)
        assert len({m.name for m in p.morphisms}) == (len(left) + 1) * (len(right) + 1)
