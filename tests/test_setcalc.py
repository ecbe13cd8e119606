from __future__ import annotations

import itertools
import json
import random

import pytest

from homcat import fincat, setcalc
from homcat.errors import EndpointMismatch, NotUniversal, SchemaError
from homcat.fincat import FinFunctor, identity_functor, opposite, product_category
from homcat.setcalc import (
    Bifunctor,
    ConeResult,
    Diagram,
    FinFunction,
    FinSetRep,
    check_kan_universal,
    coend,
    colimit,
    constant_diagram,
    diagram_nat_trans,
    diagram_to_json,
    end,
    end_cone,
    equalizer,
    identity_function,
    lan,
    limit,
    product,
    pullback,
    pushout,
    ran,
)

import corpus


def tup(parts) -> str:
    """A tuple of element names as one name, like the elements of a product."""
    return "(" + ",".join(parts) + ")"


# -- oracles --------------------------------------------------------------


def limit_oracle(d: Diagram) -> list[dict[str, str]]:
    """All compatible families, found by filtering the raw product."""
    objs = d.shape.objects
    found = []
    for combo in itertools.product(*(d.values[y].elements for y in objs)):
        fam = dict(zip(objs, combo))
        if all(
            d.arrows[m.name](fam[m.src]) == fam[m.dst] for m in d.shape.morphisms
        ):
            found.append(fam)
    return found


def check_limit_against_oracle(d: Diagram) -> None:
    cone = limit(d)
    families = limit_oracle(d)
    # legs must form a cone
    for m in d.shape.morphisms:
        for e in cone.apex.elements:
            assert d.arrows[m.name](cone.legs[m.src](e)) == cone.legs[m.dst](e)
    # the tuple-of-legs map is the unique cone morphism onto the oracle;
    # it must be a bijection
    tuples = [
        tuple(cone.legs[y](e) for y in d.shape.objects) for e in cone.apex.elements
    ]
    assert len(set(tuples)) == len(tuples), "legs are not jointly injective"
    oracle_tuples = {tuple(fam[y] for y in d.shape.objects) for fam in families}
    assert set(tuples) == oracle_tuples


def colimit_oracle(d: Diagram) -> set[frozenset]:
    """Partition of the tagged union, by naive repeated merging."""
    elements = [(y, e) for y in d.shape.objects for e in d.values[y].elements]
    labels = {x: i for i, x in enumerate(elements)}
    changed = True
    while changed:
        changed = False
        for m in d.shape.morphisms:
            for e in d.values[m.src].elements:
                a = labels[(m.src, e)]
                b = labels[(m.dst, d.arrows[m.name](e))]
                if a != b:
                    for k, v in labels.items():
                        if v == max(a, b):
                            labels[k] = min(a, b)
                    changed = True
    blocks: dict[int, set] = {}
    for x, lab in labels.items():
        blocks.setdefault(lab, set()).add(x)
    return {frozenset(b) for b in blocks.values()}


def check_colimit_against_oracle(d: Diagram) -> None:
    cone = colimit(d)
    for m in d.shape.morphisms:
        for e in d.values[m.src].elements:
            assert cone.legs[m.dst](d.arrows[m.name](e)) == cone.legs[m.src](e)
    blocks: dict[str, set] = {c: set() for c in cone.apex.elements}
    for y in d.shape.objects:
        for e in d.values[y].elements:
            blocks[cone.legs[y](e)].add((y, e))
    assert all(blocks.values()), "an apex element is hit by no leg"
    assert {frozenset(b) for b in blocks.values()} == colimit_oracle(d)


# -- names joined from user names ------------------------------------------


def discrete_diagram(sets: dict) -> Diagram:
    shape = fincat.validate_category(
        {"objects": list(sets), "morphisms": [], "compose": []}
    )
    return corpus.diagram_from_tables(shape, sets, {})


def test_colimit_keeps_elements_whose_tags_join_alike():
    # A beside b:c and A:b beside c would both be tagged A:b:c
    d = discrete_diagram({"A": ["b:c"], "A:b": ["c"]})
    assert len(colimit(d).apex) == 2
    check_colimit_against_oracle(d)


def test_limit_keeps_families_whose_tuples_join_alike():
    # (a,b , c) and (a , b,c) would both be named (a,b,c)
    d = discrete_diagram({"X": ["a,b", "a"], "Y": ["c", "b,c"]})
    assert len(limit(d).apex) == 4
    check_limit_against_oracle(d)


def test_lan_over_an_object_named_with_a_bar():
    d = discrete_diagram({"p|q": ["u"]})
    l, unit = lan(d, identity_functor(d.shape))
    assert len(l.values["p|q"]) == 1
    assert unit["p|q"].is_bijective()


def clashing_names(rng: random.Random) -> tuple[list[str], list[str]]:
    """Object names ``x``, ``x:y``, ``z`` and element names ``x``, ``y``,
    ``z``, ``x:y``, ``y:z``, or the same with ',', for three of
    ``a b ( ) | \\``: joined on the same character, the pieces before and
    after one cut of ``x:y:z`` give the same text as those of the other."""
    x, y, z = rng.sample("ab()|\\", 3)
    sep = rng.choice(":,")
    return [x, x + sep + y, z], [x, y, z, x + sep + y, y + sep + z]


def renamed_diagram(rng: random.Random, d: Diagram) -> Diagram:
    """``d`` with its objects and the elements of each set renamed from one
    :func:`clashing_names` pool, and its morphisms renamed to random strings
    over ``a b : , | ( ) \\``."""
    objects, pool = clashing_names(rng)
    shape = d.shape
    obj = dict(zip(shape.objects, rng.sample(objects, len(shape.objects))))
    nonid = [m for m in shape.morphisms if not shape.is_identity(m.name)]
    mor = {}
    while len(mor) < len(nonid):
        name = "".join(rng.choice("ab:,|()\\") for _ in range(rng.randint(1, 3)))
        if name not in mor.values():
            mor[nonid[len(mor)].name] = name
    for x in shape.objects:
        mor[shape.identity[x]] = "id_" + obj[x]
    new_shape = fincat.validate_category({
        "objects": [obj[x] for x in shape.objects],
        "morphisms": [{"name": mor[m.name], "src": obj[m.src], "dst": obj[m.dst]}
                      for m in nonid],
        "compose": [[mor[g], mor[f], mor[h]] for (g, f), h in shape.compose_table.items()
                    if not shape.is_identity(g) and not shape.is_identity(f)],
    })
    elem = {
        x: dict(zip(d.values[x].elements, rng.sample(pool, len(d.values[x]))))
        for x in shape.objects
    }
    return corpus.diagram_from_tables(
        new_shape,
        {obj[x]: list(elem[x].values()) for x in shape.objects},
        {
            mor[m.name]: {elem[m.src][e]: elem[m.dst][v]
                          for e, v in d.arrows[m.name].mapping.items()}
            for m in nonid
        },
    )


def test_limits_and_colimits_of_diagrams_with_clashing_names():
    rng = random.Random(2718)
    clashes = {"tags": 0, "tuples": 0}
    for _ in range(400):
        d = renamed_diagram(rng, corpus.random_diagram(rng, max_set=4, min_set=2))
        objs = d.shape.objects
        check_colimit_against_oracle(d)
        assert len(colimit(d).apex) == len(colimit_oracle(d))
        check_limit_against_oracle(d)
        cone = product([d.values[y] for y in objs])
        assert len(set(cone.apex.elements)) == len(cone.apex.elements)
        families = [tuple(cone.legs[k](e) for k in range(len(objs)))
                    for e in cone.apex.elements]
        assert families == list(itertools.product(*(d.values[y].elements for y in objs)))
        # how often the plain joins collide, so that escaping is exercised
        tags = [f"{y}:{e}" for y in objs for e in d.values[y].elements]
        tuples = [",".join(t) for t in families]
        clashes["tags"] += len(set(tags)) < len(tags)
        clashes["tuples"] += len(set(tuples)) < len(tuples)
    assert min(clashes.values()) >= 10, clashes


# -- products and equalizers ----------------------------------------------


def test_empty_product_is_terminal():
    cone = product([])
    assert cone.apex.elements == ("()",)


def test_binary_product_counts():
    a = FinSetRep("A", ("a", "b"))
    b = FinSetRep("B", ("0", "1", "2"))
    cone = product([a, b])
    assert len(cone.apex) == 6
    for e in cone.apex.elements:
        assert e == tup([cone.legs[0](e), cone.legs[1](e)])


def test_unary_product_is_the_set_itself():
    a = FinSetRep("A", ("x", "y"))
    cone = product([a])
    assert len(cone.apex) == 2
    assert cone.legs[0].is_bijective()


def test_equalizer_of_equal_maps_is_everything():
    a = FinSetRep("A", ("a", "b"))
    b = FinSetRep("B", ("0", "1"))
    f = FinFunction(a, b, {"a": "0", "b": "1"})
    assert equalizer(f, f).apex.elements == ("a", "b")


def test_equalizer_pointwise():
    a = FinSetRep("A", ("a", "b"))
    b = FinSetRep("B", ("0", "1"))
    f = FinFunction(a, b, {"a": "0", "b": "1"})
    g = FinFunction(a, b, {"a": "1", "b": "1"})
    assert equalizer(f, g).apex.elements == ("b",)
    h = FinFunction(a, b, {"a": "1", "b": "0"})
    assert equalizer(f, h).apex.elements == ()


def test_equalizer_needs_parallel_pair():
    a = FinSetRep("A", ("a",))
    b = FinSetRep("B", ("0",))
    f = FinFunction(a, b, {"a": "0"})
    g = FinFunction(b, a, {"0": "a"})
    with pytest.raises(EndpointMismatch):
        equalizer(f, g)


# -- limits ---------------------------------------------------------------


def test_limit_of_discrete_shape_is_product():
    shape = corpus.discrete(2)
    d = corpus.diagram_from_tables(shape, {"D0": ["a", "b"], "D1": ["0", "1", "2"]}, {})
    cone = limit(d)
    assert len(cone.apex) == 6
    check_limit_against_oracle(d)


def test_limit_of_parallel_pair_is_equalizer():
    shape = corpus.parallel_pair()
    d = corpus.diagram_from_tables(
        shape,
        {"S": ["a", "b"], "T": ["0", "1"]},
        {"a": {"a": "0", "b": "1"}, "b": {"a": "1", "b": "1"}},
    )
    cone = limit(d)
    assert [cone.legs["S"](e) for e in cone.apex.elements] == ["b"]
    check_limit_against_oracle(d)


def test_limit_of_cospan_is_pullback():
    shape = setcalc.cospan_shape()
    d = corpus.diagram_from_tables(
        shape,
        {"L": ["a", "b"], "R": ["c"], "M": ["0", "1"]},
        {"l": {"a": "0", "b": "1"}, "r": {"c": "1"}},
    )
    cone = limit(d)
    pairs = [
        (cone.legs["L"](e), cone.legs["R"](e)) for e in cone.apex.elements
    ]
    assert pairs == [("b", "c")]
    check_limit_against_oracle(d)


def test_limit_of_empty_shape_is_singleton():
    shape = corpus.path_category(0, [])
    d = Diagram(shape, {}, {})
    assert len(limit(d).apex) == 1
    assert len(colimit(d).apex) == 0


# -- colimits -------------------------------------------------------------


def test_colimit_of_discrete_shape_is_disjoint_union():
    shape = corpus.discrete(2)
    d = corpus.diagram_from_tables(shape, {"D0": ["a"], "D1": ["0", "1"]}, {})
    cone = colimit(d)
    assert len(cone.apex) == 3
    check_colimit_against_oracle(d)


def test_pushout_of_points_is_a_point():
    s = FinSetRep("S", ("*",))
    f = identity_function(s)
    cone = pushout(f, f)
    assert len(cone.apex) == 1


def test_pushout_gluing_two_intervals_along_an_endpoint():
    m = FinSetRep("M", ("0",))
    l = FinSetRep("L", ("0", "1"))
    r = FinSetRep("R", ("0", "1"))
    f = FinFunction(m, l, {"0": "0"})
    g = FinFunction(m, r, {"0": "0"})
    cone = pushout(f, g)
    assert len(cone.apex) == 3
    assert cone.legs["L"]("0") == cone.legs["R"]("0")


def test_pullback_of_identities_is_diagonal():
    s = FinSetRep("S", ("x", "y", "z"))
    cone = pullback(identity_function(s), identity_function(s))
    assert len(cone.apex) == 3


def test_pullback_of_equal_constants_is_full_product():
    a = FinSetRep("A", ("a", "b"))
    b = FinSetRep("B", ("c", "d", "e"))
    t = FinSetRep("T", ("0", "1"))
    f = FinFunction(a, t, {"a": "0", "b": "0"})
    g = FinFunction(b, t, {"c": "0", "d": "0", "e": "0"})
    assert len(pullback(f, g).apex) == 6


def test_swap_against_identity_glues_to_a_point_as_coequalizer():
    # for a parallel pair the gluing happens in one copy of the target:
    # the colimit over (⇉) identifies the a~b chain down to a point
    s = FinSetRep("S", ("a", "b"))
    swap = FinFunction(s, s, {"a": "b", "b": "a"})
    assert len(setcalc.coequalizer(swap, identity_function(s)).apex) == 1
    shape = corpus.parallel_pair()
    d = corpus.diagram_from_tables(
        shape,
        {"S": ["a", "b"], "T": ["a", "b"]},
        {"a": {"a": "b", "b": "a"}, "b": {"a": "a", "b": "b"}},
    )
    cone = colimit(d)
    assert len(cone.apex) == 1
    check_colimit_against_oracle(d)
    # the span-shaped pushout of the same pair keeps two classes, since the
    # two feet are separate copies of the set
    assert len(pushout(swap, identity_function(s)).apex) == 2


def test_random_limits_and_colimits_against_oracles():
    rng = random.Random(2718)
    for _ in range(60):
        d = corpus.random_diagram(rng)
        check_limit_against_oracle(d)
        check_colimit_against_oracle(d)


def colimit_via_dual_construction(d: Diagram) -> ConeResult:
    """Mirror image of the limit construction: the coequalizer of
    ∐_f F(dom f) ⇉ ∐_Y F(Y), with the two maps being the injection at
    dom f and the injection at cod f after applying F(f)."""
    obj_cop = FinSetRep(
        "∐obj",
        tuple(
            f"{y}:{e}" for y in d.shape.objects for e in d.values[y].elements
        ),
    )
    mor_elems = []
    for m in d.shape.morphisms:
        mor_elems.extend(
            f"{m.name}:{e}" for e in d.values[m.src].elements
        )
    mor_cop = FinSetRep("∐mor", tuple(mor_elems))
    s_map, t_map = {}, {}
    for m in d.shape.morphisms:
        for e in d.values[m.src].elements:
            s_map[f"{m.name}:{e}"] = f"{m.src}:{e}"
            t_map[f"{m.name}:{e}"] = f"{m.dst}:{d.arrows[m.name](e)}"
    co = setcalc.coequalizer(
        FinFunction(mor_cop, obj_cop, s_map), FinFunction(mor_cop, obj_cop, t_map)
    )
    proj = co.legs[0]
    legs = {
        y: FinFunction(
            d.values[y],
            co.apex,
            {e: proj(f"{y}:{e}") for e in d.values[y].elements},
        )
        for y in d.shape.objects
    }
    return ConeResult(co.apex, legs)


def test_colimit_matches_the_dualized_limit_construction():
    # dualizing the equalizer-of-products route on the nose must reproduce
    # the direct union-find colimit, block by block
    rng = random.Random(99)
    for _ in range(30):
        d = corpus.random_diagram(rng)
        direct = colimit(d)
        dual = colimit_via_dual_construction(d)
        assert len(direct.apex) == len(dual.apex)
        blocks_direct = {}
        blocks_dual = {}
        for y in d.shape.objects:
            for e in d.values[y].elements:
                blocks_direct.setdefault(direct.legs[y](e), set()).add((y, e))
                blocks_dual.setdefault(dual.legs[y](e), set()).add((y, e))
        assert {frozenset(b) for b in blocks_direct.values()} == {
            frozenset(b) for b in blocks_dual.values()
        }


def test_pullback_pasting():
    # pasting two pullback squares horizontally gives the pullback of the
    # composite
    rng = random.Random(1234)
    for _ in range(20):
        sizes = [rng.randint(1, 3) for _ in range(3)]
        a = FinSetRep("A", tuple(f"a{k}" for k in range(sizes[0])))
        b = FinSetRep("B", tuple(f"b{k}" for k in range(sizes[1])))
        c = FinSetRep("C", tuple(f"c{k}" for k in range(sizes[2])))
        f = FinFunction(a, b, {x: rng.choice(b.elements) for x in a.elements})
        g = FinFunction(b, c, {x: rng.choice(c.elements) for x in b.elements})
        h = FinFunction(c, c, {x: rng.choice(c.elements) for x in c.elements})
        # inner square: pullback of g along h; then pull f back along the
        # induced projection and compare with pulling g∘f back along h
        inner = pullback(g, h)
        outer = pullback(inner.legs["L"], f)
        direct = pullback(f.then(g), h)
        assert len(outer.apex) == len(direct.apex)


# -- ends, coends, Fubini -------------------------------------------------


def constant_bifunctor(shape, s: FinSetRep) -> Bifunctor:
    values = {(x, y): s for x in shape.objects for y in shape.objects}
    actions = {
        (f.name, g.name): identity_function(s)
        for f in shape.morphisms
        for g in shape.morphisms
    }
    return Bifunctor(shape, values, actions)


def test_end_of_constant_bifunctor_on_connected_shape():
    s = FinSetRep("S", ("p", "q"))
    for shape in [corpus.walking_arrow(), corpus.cyclic_group_category(2)]:
        h = constant_bifunctor(shape, s)
        h.validate()
        assert len(end(h)) == len(s)
        assert len(coend(h)) == len(s)


def test_end_computes_natural_transformations():
    arrow = corpus.walking_arrow()
    functors = fincat.enumerate_functors(arrow, arrow)
    for f in functors:
        for g in functors:
            h = setcalc.nat_trans_bifunctor(f, g)
            h.validate()
            assert len(end(h)) == len(fincat.enumerate_nat_trans(f, g))


def mixed_bifunctor(shape, contra: Diagram, cov: Diagram) -> Bifunctor:
    """H(x, y) = contra(x) × cov(y); contra lives over opposite(shape)."""
    values = {}
    parts = {}
    for x in shape.objects:
        for y in shape.objects:
            pairs = {
                tup([u, v]): (u, v)
                for u in contra.values[x].elements
                for v in cov.values[y].elements
            }
            parts.update(pairs)
            values[(x, y)] = FinSetRep(f"H({x},{y})", tuple(pairs))
    actions = {}
    for f in shape.morphisms:
        for g in shape.morphisms:
            source = values[(f.dst, g.src)]
            target = values[(f.src, g.dst)]
            mapping = {}
            for e in source.elements:
                u, v = parts[e]
                mapping[e] = tup(
                    [contra.arrows[f.name](u), cov.arrows[g.name](v)]
                )
            actions[(f.name, g.name)] = FinFunction(source, target, mapping)
    return Bifunctor(shape, values, actions)


def test_end_of_first_constant_bifunctor_is_limit_of_diagonal():
    rng = random.Random(5)
    for _ in range(15):
        shape = corpus.random_shape(rng)
        if not shape.objects:
            continue
        cov = corpus.random_diagram(rng, shape)
        point = constant_diagram(opposite(shape), FinSetRep("pt", ("*",)))
        h = mixed_bifunctor(shape, point, cov)
        h.validate()
        assert len(end(h)) == len(limit(cov).apex)


def product_pairs(p_cat, c_cat, pc) -> tuple[dict, dict]:
    """The names that the product category ``pc`` = p×c gives each pair of
    objects and each pair of morphisms, read off its own object and
    morphism lists (both in lexicographic pair order)."""
    mor_names = [[m.name for m in cat.morphisms] for cat in (p_cat, c_cat)]
    pair_obj = dict(zip(itertools.product(p_cat.objects, c_cat.objects), pc.objects))
    pair_mor = dict(
        zip(itertools.product(*mor_names), (m.name for m in pc.morphisms))
    )
    for (p, x), name in pair_obj.items():
        assert pc.identity[name] == pair_mor[p_cat.identity[p], c_cat.identity[x]]
    return pair_obj, pair_mor


def double_end(big: Bifunctor, p_cat, c_cat, inner: str) -> int:
    """|∫_outer ∫_inner H| for H over the product category p×c.

    ``inner`` names which factor is integrated first ("p" or "c").
    """
    pair_obj, pair_mor = product_pairs(p_cat, c_cat, big.shape)

    if inner == "c":
        outer_cat, inner_cat = p_cat, c_cat

        def val(po, qo, xo, yo):
            return big.value(pair_obj[po, xo], pair_obj[qo, yo])

        def act(a, b, f, g):
            return big.action(pair_mor[a, f], pair_mor[b, g])

    else:
        outer_cat, inner_cat = c_cat, p_cat

        def val(po, qo, xo, yo):
            return big.value(pair_obj[xo, po], pair_obj[yo, qo])

        def act(a, b, f, g):
            return big.action(pair_mor[f, a], pair_mor[g, b])

    cones = {}
    for po in outer_cat.objects:
        for qo in outer_cat.objects:
            sub = Bifunctor(
                inner_cat,
                {
                    (x, y): val(po, qo, x, y)
                    for x in inner_cat.objects
                    for y in inner_cat.objects
                },
                {
                    (f.name, g.name): act(
                        outer_cat.identity[po], outer_cat.identity[qo], f.name, g.name
                    )
                    for f in inner_cat.morphisms
                    for g in inner_cat.morphisms
                },
            )
            cones[(po, qo)] = end_cone(sub)
    values = {pq: cone.apex for pq, cone in cones.items()}
    actions = {}
    for a in outer_cat.morphisms:
        for b in outer_cat.morphisms:
            source = values[(a.dst, b.src)]
            target = values[(a.src, b.dst)]
            source_legs = cones[(a.dst, b.src)].legs
            target_legs = cones[(a.src, b.dst)].legs
            by_family = {
                tuple(target_legs[x](t) for x in inner_cat.objects): t
                for t in target.elements
            }
            mapping = {}
            for e in source.elements:
                moved = tuple(
                    act(a.name, b.name, inner_cat.identity[x], inner_cat.identity[x])(
                        source_legs[x](e)
                    )
                    for x in inner_cat.objects
                )
                assert moved in by_family
                mapping[e] = by_family[moved]
            actions[(a.name, b.name)] = FinFunction(source, target, mapping)
    e_bif = Bifunctor(outer_cat, values, actions)
    e_bif.validate()
    return len(end(e_bif))


def big_product_bifunctor(p_cat, c_cat, contra_p, cov_p, contra_c, cov_c):
    """H((p,x),(q,y)) = contra_p(p)×cov_p(q)×contra_c(x)×cov_c(y)."""
    pc = product_category(p_cat, c_cat)
    pair_obj, pair_mor = product_pairs(p_cat, c_cat, pc)
    pair = {name: fg for fg, name in pair_mor.items()}
    parts = {}
    values = {}
    for p in p_cat.objects:
        for x in c_cat.objects:
            for q in p_cat.objects:
                for y in c_cat.objects:
                    toks = {
                        tup([a, b, c, d]): (a, b, c, d)
                        for a in contra_p.values[p].elements
                        for b in cov_p.values[q].elements
                        for c in contra_c.values[x].elements
                        for d in cov_c.values[y].elements
                    }
                    parts.update(toks)
                    values[(pair_obj[p, x], pair_obj[q, y])] = FinSetRep(
                        f"H({p},{x};{q},{y})", tuple(toks)
                    )
    actions = {}
    for a in pc.morphisms:
        for b in pc.morphisms:
            src = values[(a.dst, b.src)]
            tgt = values[(a.src, b.dst)]
            ap, ax = pair[a.name]
            bp, bx = pair[b.name]
            mapping = {}
            for e in src.elements:
                t1, t2, t3, t4 = parts[e]
                mapping[e] = tup(
                    [
                        contra_p.arrows[ap](t1),
                        cov_p.arrows[bp](t2),
                        contra_c.arrows[ax](t3),
                        cov_c.arrows[bx](t4),
                    ]
                )
            actions[(a.name, b.name)] = FinFunction(src, tgt, mapping)
    return Bifunctor(pc, values, actions)


def test_fubini_on_random_instances():
    rng = random.Random(628)
    shapes = [corpus.walking_arrow, corpus.parallel_pair, lambda: corpus.poset_chain(1)]
    for _ in range(8):
        p_cat = rng.choice(shapes)()
        c_cat = rng.choice(shapes)()
        big = big_product_bifunctor(
            p_cat,
            c_cat,
            corpus.random_diagram(rng, opposite(p_cat), max_set=2),
            corpus.random_diagram(rng, p_cat, max_set=2),
            corpus.random_diagram(rng, opposite(c_cat), max_set=2),
            corpus.random_diagram(rng, c_cat, max_set=2),
        )
        one = double_end(big, p_cat, c_cat, inner="c")
        two = double_end(big, p_cat, c_cat, inner="p")
        assert one == two


# -- Kan extensions -------------------------------------------------------


def test_lan_along_identity_is_the_diagram_itself():
    rng = random.Random(7)
    for _ in range(10):
        shape = corpus.random_shape(rng)
        if not shape.objects:
            continue
        d = corpus.random_diagram(rng, shape)
        l, unit = lan(d, identity_functor(shape))
        for x in shape.objects:
            assert len(l.values[x]) == len(d.values[x])
            assert unit[x].is_bijective()


def test_lan_and_ran_along_discrete_inclusion():
    a_cat = corpus.discrete(1)
    c_cat = corpus.discrete(2)
    i = FinFunctor(a_cat, c_cat, {"D0": "D0"}, {"id_D0": "id_D0"})
    i.validate()
    d = corpus.diagram_from_tables(a_cat, {"D0": ["x", "y"]}, {})
    l, _ = lan(d, i)
    assert len(l.values["D0"]) == 2
    assert len(l.values["D1"]) == 0  # extended by the empty set
    r = ran(d, i)
    assert len(r.values["D0"]) == 2
    assert len(r.values["D1"]) == 1  # extended by a singleton


def test_lan_from_terminal_into_walking_arrow():
    t = corpus.terminal_category()
    arrow = corpus.walking_arrow()
    i = FinFunctor(t, arrow, {"*": "A"}, {"id_*": "id_A"})
    i.validate()
    d = corpus.diagram_from_tables(t, {"*": ["u", "v"]}, {})
    l, unit = lan(d, i)
    assert len(l.values["A"]) == 2
    assert len(l.values["B"]) == 2
    assert l.arrows["f"].is_bijective()
    check_kan_universal(l, d, i)


def test_kan_universal_identity_case():
    shape = corpus.walking_arrow()
    d = corpus.diagram_from_tables(
        shape, {"A": ["x"], "B": ["0", "1"]}, {"f": {"x": "0"}}
    )
    check_kan_universal(d, d, identity_functor(shape))


def test_kan_universal_discrete_case_counts():
    a_cat = corpus.discrete(1)
    c_cat = corpus.discrete(2)
    i = FinFunctor(a_cat, c_cat, {"D0": "D0"}, {"id_D0": "id_D0"})
    d = corpus.diagram_from_tables(a_cat, {"D0": ["x", "y"]}, {})
    l, _ = lan(d, i)
    witness = check_kan_universal(l, d, i)
    assert witness["tests"]["constant-2"]["nat_l"] == witness["tests"]["constant-2"]["nat_f"]


def test_kan_universal_rejects_corrupted_extension():
    a_cat = corpus.discrete(1)
    c_cat = corpus.discrete(2)
    i = FinFunctor(a_cat, c_cat, {"D0": "D0"}, {"id_D0": "id_D0"})
    d = corpus.diagram_from_tables(a_cat, {"D0": ["x", "y"]}, {})
    l, _ = lan(d, i)
    corrupted = Diagram(
        c_cat,
        {
            "D0": l.values["D0"],
            "D1": FinSetRep("extra", ("spurious",)),
        },
        {
            "id_D0": identity_function(l.values["D0"]),
            "id_D1": identity_function(FinSetRep("extra", ("spurious",))),
        },
    )
    with pytest.raises(NotUniversal):
        check_kan_universal(corrupted, d, i)


def test_terminal_object_unique_up_to_unique_iso():
    # any two singletons admit exactly one bijection between them
    s1 = FinSetRep("S1", ("a",))
    s2 = FinSetRep("S2", ("b",))
    fns = [
        m
        for m in [FinFunction(s1, s2, {"a": "b"})]
        if m.is_bijective()
    ]
    assert len(fns) == 1
    # the initial object is the empty set: exactly one map out of it
    empty = FinSetRep("0", ())
    assert FinFunction(empty, s1, {}).mapping == {}


# -- limits and ends without the product over morphisms ----------------------


def end_oracle(h: Bifunctor) -> list[dict[str, str]]:
    """All wedges, found by filtering the raw product over objects:
    families (w_X) with H(id, f)(w_dom f) = H(f, id)(w_cod f) for every f."""
    c = h.shape
    found = []
    for combo in itertools.product(*(h.value(x, x).elements for x in c.objects)):
        fam = dict(zip(c.objects, combo))
        if all(
            h.action(c.identity[m.src], m.name)(fam[m.src])
            == h.action(m.name, c.identity[m.dst])(fam[m.dst])
            for m in c.morphisms
        ):
            found.append(fam)
    return found


def same_families(cone: ConeResult, objects, oracle) -> bool:
    """The cone's apex lists exactly the oracle's families, in its order."""
    got = [tuple(cone.legs[y](e) for y in objects) for e in cone.apex.elements]
    return got == [tuple(fam[y] for y in objects) for fam in oracle]


def morphism_product_size(sets, shape) -> int:
    size = 1
    for m in shape.morphisms:
        size *= len(sets(m))
    return size


def test_ends_match_wedges_on_random_shapes():
    rng = random.Random(1618)
    for _ in range(40):
        shape = corpus.random_shape(rng)
        pair = FinSetRep("P", ("p", "q"))
        for h in [
            mixed_bifunctor(
                shape,
                constant_diagram(opposite(shape), pair),
                corpus.random_diagram(rng, shape),
            ),
            setcalc.nat_trans_bifunctor(identity_functor(shape), identity_functor(shape)),
        ]:
            h.validate()
            assert same_families(end_cone(h), shape.objects, end_oracle(h))


def chain_diagram(rng, n: int, size: int) -> Diagram:
    """Random maps along 0 ≤ 1 ≤ ... ≤ n between sets of ``size`` elements,
    extended to every composite."""
    shape = corpus.poset_chain(n)
    sets = {x: [f"{x}e{k}" for k in range(size)] for x in shape.objects}
    steps = {
        i: {u: rng.choice(sets[str(i + 1)]) for u in sets[str(i)]} for i in range(n)
    }
    functions = {}
    for m in shape.morphisms:
        if shape.is_identity(m.name):
            continue
        table = {}
        for u in sets[m.src]:
            v = u
            for i in range(int(m.src), int(m.dst)):
                v = steps[i][v]
            table[u] = v
        functions[m.name] = table
    return corpus.diagram_from_tables(shape, sets, functions)


def test_limit_and_end_never_enumerate_the_product_over_morphisms(monkeypatch):
    import math
    import time

    def bounded_product(sets):
        # fail at once, instead of filling memory, if ∏_f is asked for
        assert math.prod(len(s) for s in sets) < 10**6
        return product(sets)

    monkeypatch.setattr(setcalc, "product", bounded_product)
    d = chain_diagram(random.Random(31), 4, 4)
    assert morphism_product_size(lambda m: d.values[m.dst].elements, d.shape) >= 10**8
    start = time.perf_counter()
    cone = limit(d)
    assert time.perf_counter() - start < 0.5
    assert same_families(cone, d.shape.objects, limit_oracle(d))

    z10 = corpus.cyclic_group_category(10)
    ident = identity_functor(z10)
    h = setcalc.nat_trans_bifunctor(ident, ident)
    assert morphism_product_size(lambda m: h.value(m.src, m.dst).elements, z10) >= 10**8
    start = time.perf_counter()
    cone = end_cone(h)
    assert time.perf_counter() - start < 0.5
    assert len(cone.apex) == 10  # Z/10 is abelian: every element is central
    assert same_families(cone, z10.objects, end_oracle(h))


def test_function_with_an_image_outside_its_target_is_rejected():
    s = FinSetRep("S", ("a", "b"))
    t = FinSetRep("T", ("0", "1"))
    FinFunction(s, t, {"a": "0", "b": "1"})
    with pytest.raises(SchemaError):
        FinFunction(s, t, {"a": "0", "b": "2"})
    with pytest.raises(SchemaError):
        FinFunction(s, t, {"a": "0"})
    with pytest.raises(SchemaError):
        FinFunction(s, FinSetRep("E", ()), {"a": "a", "b": "b"})


def test_limit_compares_morphism_components_as_tuples():
    # over (g, id), the pairs (a, a,a) and (a,a, a) would both be written
    # "(a,a,a)"; the morphism side is never written out, so nothing collides
    d = corpus.diagram_from_tables(
        corpus.idempotent_monoid_category(),
        {"*": ["a", "a,a"]},
        {"g": {"a": "a", "a,a": "a"}},
    )
    assert same_families(limit(d), ["*"], limit_oracle(d))
    assert limit(d).apex.elements == ("(a)",)


# -- names built from user names that plain joins would merge ----------------


def idempotent_diagram(obj: str, e: str, elements: list, images: list) -> Diagram:
    """F on the one-object category ``obj`` with one idempotent ``e``."""
    cat = fincat.validate_category(
        {
            "objects": [obj],
            "morphisms": [{"name": e, "src": obj, "dst": obj}],
            "compose": [[e, e, e]],
        }
    )
    return corpus.diagram_from_tables(
        cat, {obj: elements}, {e: dict(zip(elements, images))}
    )


def test_ran_names_families_that_plain_joins_merge():
    # joined plainly, the families at p and at y,id_A>p are both
    # A{e>x,id_A>y,id_A>p}
    elements = ["p", "y,id_A>p", "x,id_A>y", "x"]
    d = idempotent_diagram("A", "e", elements, ["x,id_A>y", "x", "x,id_A>y", "x"])
    r = ran(d, identity_functor(d.shape))
    at_p, at_xy, at_yp, at_x = r.values["A"].elements
    assert (at_p, at_xy, at_yp, at_x) == (
        "A{e>x\\,id_A>y,id_A>p}",
        "A{e>x\\,id_A>y,id_A>x\\,id_A>y}",
        "A{e>x,id_A>y\\,id_A>p}",
        "A{e>x,id_A>x}",
    )
    assert r.arrows["e"].mapping == {
        at_p: at_xy, at_xy: at_xy, at_yp: at_x, at_x: at_x
    }


def test_ran_names_are_injective_on_clashing_names():
    rng = random.Random(1103)
    for _ in range(150):
        obj, e, x, y, z, *extras = corpus.clash_names(rng, rng.randint(5, 8))
        ident = f"id_{obj}"
        # Ran F ≅ F along the identity, the family at v being e ↦ F(e)v,
        # id ↦ v, with its two pairs in name order.  Joined plainly, the
        # families at v1 and v2 below are the same string.
        if e < ident:
            s = f",{ident}>"
            (a1, v1), (a2, v2) = (x, y + s + z), (x + s + y, z)
        else:
            s = f",{e}>"
            (v1, a1), (v2, a2) = (x, y + s + z), (x + s + y, z)
        image = {a1: a1, a2: a2, v1: a1, v2: a2}
        if len(image) < 4:
            continue
        for v in extras:
            image[v] = rng.choice([v, a1, a2])
        elements = list(image)
        rng.shuffle(elements)
        d = idempotent_diagram(obj, e, elements, [image[v] for v in elements])
        r = ran(d, identity_functor(d.shape))  # raises on a repeated name
        names = r.values[obj].elements
        assert len(set(names)) == len(elements)
        fixed = sum(image[v] == v for v in elements)
        assert sum(r.arrows[e](n) == n for n in names) == fixed
        plain = {
            f"{obj}{{" + ",".join(f"{m}>{w}" for m, w in sorted(
                [(e, image[v]), (ident, v)]
            )) + "}"
            for v in elements
        }
        assert len(plain) < len(elements)


def test_kan_universal_tells_transformations_apart_by_components():
    # joined plainly, the identity of {b,b>b, b} and the swap are both
    # *[b,b>b>b,b>b,b>b]
    t = corpus.terminal_category()
    units = []
    for elements in (["b,b>b", "b"], ["p", "q"]):
        d = corpus.diagram_from_tables(t, {"*": elements}, {})
        units.append(check_kan_universal(d, d, identity_functor(t))["unit"])
    assert units == ["*[b,b>b>b,b>b,b>b]", "*[p>p,q>q]"]


# -- the searches against their brute-force references -------------------


def components(transformations) -> list:
    """Natural transformations as plain lists, so that comparing two lists
    of them compares their order too."""
    return [
        [(x, list(fn.mapping.items())) for x, fn in nt.items()]
        for nt in transformations
    ]


def test_diagram_nat_trans_matches_the_product_reference():
    # every second F is representable, so many pairs have transformations
    rng = random.Random(2718)
    found = 0
    for k in range(300):
        shape = corpus.random_shape(rng)
        g = corpus.random_diagram(rng, shape, max_set=3)
        if k % 2 and shape.objects:
            f = fincat.hom_functor(shape, rng.choice(shape.objects))
        else:
            f = corpus.random_diagram(rng, shape, max_set=3)
        want = corpus.diagram_nat_trans_by_product(f, g)
        assert components(diagram_nat_trans(f, g)) == components(want)
        found += len(want)
    assert found > 1000


def test_ran_matches_the_product_reference():
    rng = random.Random(1618)
    targets = [
        corpus.walking_iso(),
        corpus.cyclic_group_category(2),
        corpus.cyclic_group_category(3),
        corpus.idempotent_monoid_category(),
        corpus.chaotic_groupoid(["a", "b"]),
        corpus.poset_chain(2),
        corpus.parallel_pair(),
    ]
    checked = elements = 0
    while checked < 150:
        a = corpus.random_shape(rng, max_objects=2, max_nonid_mors=3)
        c = rng.choice(targets + [corpus.random_shape(rng)])
        functors = fincat.enumerate_functors(a, c)
        if not functors:
            continue
        i = rng.choice(functors)
        f = corpus.random_diagram(rng, a, max_set=3)
        got = diagram_to_json(ran(f, i))
        assert json.dumps(got) == json.dumps(diagram_to_json(corpus.ran_by_product(f, i)))
        elements += sum(len(v) for v in got["sets"].values())
        checked += 1
    assert elements > 300


@pytest.mark.parametrize("n, budget", [(6, 1000), (8, 10**7)])
def test_nat_trans_of_a_cyclic_group_on_itself_tries_few_values(n, budget):
    # the product of the components has n**n candidates: 46,656 for Z/6,
    # and 8**8 component functions for Z/8 before the first charge
    h = fincat.hom_functor(corpus.cyclic_group_category(n), "*")
    nats = diagram_nat_trans(h, h, budget=budget)
    assert len(nats) == n
    assert len({tuple(nt["*"].mapping.values()) for nt in nats}) == n
