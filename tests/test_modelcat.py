from __future__ import annotations

import itertools
import random

import pytest

from homcat import fincat
from homcat.errors import CapExceeded, SchemaError
from homcat.fincat import (
    FinCategory,
    FinFunctor,
    Mor,
    enumerate_functors,
    partition,
    product_category,
    validate_category,
)
from homcat.modelcat import (
    Localization,
    MarkedCategory,
    ModelData,
    check_model,
    lifting_counterexample,
    localize,
    model_from_json,
    saturate_two_of_three,
    square_lifts,
    trivial_model,
)

from homcat.homotopy import pi1
from homcat.simplicial import boundary, nerve, nerve_names
from homcat.subdivision import sd

import corpus
from test_homotopy import rp2_triangulation


def walking_weak_equivalence() -> MarkedCategory:
    cat = corpus.walking_arrow()
    return saturate_two_of_three(cat, ["f"])


# -- saturation ----------------------------------------------------------------


def test_empty_seed_gives_exactly_the_isomorphisms():
    for cat in [corpus.walking_arrow(), corpus.walking_iso(), corpus.poset_chain(2)]:
        marked = saturate_two_of_three(cat, [])
        assert marked.weq == {m.name for m in cat.morphisms if cat.is_iso(m.name)}
        marked.validate()


def test_seed_on_walking_arrow():
    marked = walking_weak_equivalence()
    assert marked.weq == {"id_A", "id_B", "f"}


def test_two_of_three_forces_the_third():
    cat = corpus.poset_chain(2)  # composable le01, le12 with le02
    marked = saturate_two_of_three(cat, ["le01", "le02"])
    assert "le12" in marked.weq


def test_saturation_is_idempotent_and_monotone():
    cat = corpus.poset_chain(2)
    small = saturate_two_of_three(cat, ["le01"])
    again = saturate_two_of_three(cat, small.weq)
    assert again.weq == small.weq
    bigger = saturate_two_of_three(cat, ["le01", "le12"])
    assert small.weq <= bigger.weq


def test_marked_category_validation():
    cat = corpus.walking_iso()
    with pytest.raises(SchemaError):
        MarkedCategory(cat, frozenset({"id_A", "id_B"})).validate()  # f,g iso but unmarked


# -- localization ----------------------------------------------------------------


def test_localize_at_isomorphisms_reproduces_category():
    for cat in [corpus.walking_arrow(), corpus.terminal_category(), corpus.walking_iso()]:
        marked = saturate_two_of_three(cat, [])
        result = localize(marked)
        assert len(result.category.morphisms) == len(cat.morphisms)
        assert result.category.objects == cat.objects
        # the projection is bijective on morphisms here
        images = {result.projection.on_mor(m.name) for m in cat.morphisms}
        assert len(images) == len(cat.morphisms)


def test_localize_walking_weak_equivalence_gives_walking_iso():
    result = localize(walking_weak_equivalence())
    assert len(result.category.objects) == 2
    assert len(result.category.morphisms) == 4
    f_image = result.projection.on_mor("f")
    assert result.category.is_iso(f_image)


def test_localize_terminal_category():
    t = corpus.terminal_category()
    result = localize(saturate_two_of_three(t, []))
    assert len(result.category.morphisms) == 1


def test_localization_projection_inverts_marked_morphisms():
    cat = corpus.poset_chain(2)
    marked = saturate_two_of_three(cat, ["le01"])
    result = localize(marked)
    assert result.category.is_iso(result.projection.on_mor("le01"))
    # unmarked morphisms need not become invertible
    assert not result.category.is_iso(result.projection.on_mor("le12"))


def test_localization_universal_property_by_enumeration():
    # every functor killing the marked class factors uniquely through p
    test_targets = [
        corpus.walking_iso(),
        corpus.terminal_category(),
        corpus.cyclic_group_category(2),
    ]
    for marked in [
        walking_weak_equivalence(),
        saturate_two_of_three(corpus.walking_arrow(), []),
    ]:
        result = localize(marked)
        for target in test_targets:
            functors = enumerate_functors(marked.base, target)
            inverting = [
                f
                for f in functors
                if all(target.is_iso(f.on_mor(w)) for w in marked.weq)
            ]
            candidates = enumerate_functors(result.category, target)
            for f in inverting:
                factored = [
                    g
                    for g in candidates
                    if all(
                        g.on_mor(result.projection.on_mor(m.name)) == f.on_mor(m.name)
                        for m in marked.base.morphisms
                    )
                    and all(
                        g.on_obj(result.projection.on_obj(x)) == f.on_obj(x)
                        for x in marked.base.objects
                    )
                ]
                assert len(factored) == 1


def test_localization_cap():
    marked = walking_weak_equivalence()
    with pytest.raises(CapExceeded):
        localize(marked, cap=3)


def test_localized_category_serializes_and_reloads():
    from homcat.fincat import validate_category

    result = localize(walking_weak_equivalence())
    again = validate_category(result.category.to_json_dict())
    assert len(again.morphisms) == 4
    assert again.is_iso("f") and again.is_iso("f^-1")
    assert again.compose("f^-1", "f") == "id_A"


# -- localization against the string-word oracle ---------------------------------
#
# The oracle localizes by congruence closure over a bounded universe of
# (kind, name) words: at every word length it rebuilds the universe and its
# partition by single rewrites through the category, and it stops when two
# lengths give the same category.


def _letter_endpoints(cat: FinCategory, letter: tuple[str, str]) -> tuple[str, str]:
    kind, name = letter
    if kind == "m":
        return cat.src(name), cat.dst(name)
    return cat.dst(name), cat.src(name)


def _word_endpoints(cat: FinCategory, word: tuple) -> tuple[str, str]:
    return _letter_endpoints(cat, word[0])[0], _letter_endpoints(cat, word[-1])[1]


def _rewrites(cat: FinCategory, weq: frozenset, word: tuple):
    """All single-step reductions of a word; none of them lengthen it."""
    n = len(word)
    for k in range(n - 1):
        (k1, n1), (k2, n2) = word[k], word[k + 1]
        if k1 == "m" and k2 == "m":
            # diagrammatic order: first n1 then n2 is the composite n2∘n1
            yield word[:k] + (("m", cat.compose(n2, n1)),) + word[k + 2:]
        elif k1 == "m" and k2 == "i" and n1 == n2:
            yield word[:k] + (("m", cat.identity[cat.src(n1)]),) + word[k + 2:]
        elif k1 == "i" and k2 == "m" and n1 == n2:
            yield word[:k] + (("m", cat.identity[cat.dst(n1)]),) + word[k + 2:]
        elif k1 == "i" and k2 == "i":
            # first n1⁻¹ then n2⁻¹ equals (n1∘n2)⁻¹ when that composite exists
            if cat.dst(n2) == cat.src(n1):
                composite = cat.compose(n1, n2)
                if composite in weq:
                    yield word[:k] + (("i", composite),) + word[k + 2:]
    if n >= 2:
        for k in range(n):
            kind, name = word[k]
            if kind == "m" and cat.is_identity(name):
                yield word[:k] + word[k + 1:]
    for k in range(n):
        kind, name = word[k]
        if kind == "i":
            inv = cat.inverse(name)
            if inv is not None:
                yield word[:k] + (("m", inv),) + word[k + 1:]


def _letter_label(letter: tuple[str, str]) -> str:
    kind, name = letter
    return name if kind == "m" else f"{name}^-1"


def _word_label(word: tuple) -> str:
    return "*".join(_letter_label(l) for l in word)


def oracle_localize(marked: MarkedCategory, cap: int = 20000) -> Localization:
    """Adjoin formal inverses for the marked morphisms.

    Raises :class:`CapExceeded` when the word universe outgrows ``cap``
    before the class structure stabilizes.
    """
    cat = marked.base
    weq = marked.weq
    letters = [("m", m.name) for m in cat.morphisms] + [
        ("i", name) for name in sorted(weq)
    ]

    def closure(max_len: int):
        universe: set[tuple] = set()
        frontier = [(l,) for l in letters]
        universe.update(frontier)
        while frontier:
            if len(universe) > cap:
                raise CapExceeded(
                    "localization word universe exceeded the cap", cap=cap
                )
            new = []
            for word in frontier:
                if len(word) == max_len:
                    continue
                end = _letter_endpoints(cat, word[-1])[1]
                for l in letters:
                    if _letter_endpoints(cat, l)[0] == end:
                        extended = word + (l,)
                        if extended not in universe:
                            universe.add(extended)
                            new.append(extended)
            frontier = new
        blocks = partition(
            universe,
            ((word, other)
             for word in universe
             for other in _rewrites(cat, weq, word)),
        )
        rep_of = {}
        for members in blocks:
            # shortest first; prefer plain letters over formal inverses so
            # classes of ordinary morphisms keep their ordinary names
            rep = min(
                members,
                key=lambda w: (len(w), sum(k == "i" for k, _ in w), w),
            )
            for w in members:
                rep_of[w] = rep
        return rep_of

    def structure(rep_of, half: int):
        reps = sorted(
            {r for r in rep_of.values() if len(r) <= half},
            key=lambda w: (len(w), w),
        )
        table = {}
        for u in reps:
            for v in reps:
                if _word_endpoints(cat, u)[1] == _word_endpoints(cat, v)[0]:
                    product = rep_of.get(u + v)
                    if product is None or product not in reps:
                        return None
                    table[(u, v)] = product
        return reps, table

    max_len, previous = 4, None
    while True:
        rep_of = closure(max_len)
        current = structure(rep_of, max_len // 2)
        if current is not None and previous is not None and current == previous:
            break
        if max_len > 2 and current is not None:
            previous = current
        max_len += 2
        if max_len > 40:
            raise CapExceeded(
                "localization did not stabilize within word length 40", cap=cap
            )

    reps, table = current
    names = {}
    for x in cat.objects:
        names[rep_of[(("m", cat.identity[x]),)]] = f"id_{x}"
    for rep in reps:
        names.setdefault(rep, _word_label(rep))
    morphisms = [
        Mor(names[rep], *_word_endpoints(cat, rep)) for rep in reps
    ]
    compose_table = {
        (names[v], names[u]): names[w] for (u, v), w in table.items()
    }
    identity = {}
    for x in cat.objects:
        rep = rep_of[(("m", cat.identity[x]),)]
        identity[x] = names[rep]
    localized = FinCategory(list(cat.objects), morphisms, compose_table, identity)
    localized.validate()
    projection = FinFunctor(
        cat,
        localized,
        {x: x for x in cat.objects},
        {m.name: names[rep_of[(("m", m.name),)]] for m in cat.morphisms},
    )
    projection.validate()
    result = Localization(localized, projection, marked)
    for name in weq:
        if not localized.is_iso(projection.on_mor(name)):
            raise CapExceeded(
                f"projection of marked morphism {name!r} is not invertible; "
                "the universe was too small",
                cap=cap,
            )
    return result


def small_marked_categories():
    """Every corpus category with at most 4 morphisms, with every seed
    subset of its non-identity morphisms, one case per marked class."""
    cats = [
        corpus.terminal_category(),
        corpus.walking_arrow(),
        corpus.walking_iso(),
        corpus.discrete(2),
        corpus.discrete(4),
        corpus.poset_chain(1),
        corpus.parallel_pair(),
        corpus.cyclic_group_category(2),
        corpus.cyclic_group_category(3),
        corpus.cyclic_group_category(4),
        corpus.idempotent_monoid_category(),
        corpus.chaotic_groupoid(["a", "b"]),
    ]
    for cat in cats:
        assert len(cat.morphisms) <= 4
        nonid = [m.name for m in cat.morphisms if not cat.is_identity(m.name)]
        seen = set()
        for r in range(len(nonid) + 1):
            for seed in itertools.combinations(nonid, r):
                marked = saturate_two_of_three(cat, seed)
                if marked.weq not in seen:
                    seen.add(marked.weq)
                    yield marked


def localization_outcome(localizer, marked, cap):
    try:
        result = localizer(marked, cap=cap)
    except CapExceeded as exc:
        return ("CapExceeded", exc.message)
    category = result.category
    return (
        category.to_json_dict(),
        [(m.name, m.src, m.dst) for m in category.morphisms],
        category.identity,
        result.projection.object_map,
        result.projection.morphism_map,
    )


def test_localize_matches_string_word_oracle():
    # where the oracle finishes, at the default cap or at ten times it,
    # localize returns its exact answer at the default cap; at smaller caps
    # localize either trips or returns that same answer
    outcomes, tripped, beyond_oracle = set(), [], []
    for marked in small_marked_categories():
        got = localization_outcome(localize, marked, 20000)
        want = localization_outcome(oracle_localize, marked, 20000)
        outcomes.add(want[0] if want[0] == "CapExceeded" else "category")
        if got[0] == "CapExceeded":
            # an infinite localization: the oracle cannot finish either
            assert want[0] == "CapExceeded"
            tripped.append(marked)
            continue
        if want[0] == "CapExceeded":
            want = localization_outcome(oracle_localize, marked, 200000)
        if want[0] == "CapExceeded":
            beyond_oracle.append(marked)
        else:
            assert got == want
        for cap in (3, 30, 300, 3000):
            small = localization_outcome(localize, marked, cap)
            assert small[0] == "CapExceeded" or small == got
    assert outcomes == {"CapExceeded", "category"}
    # the parallel pair with a, b or both marked: a⁻¹∘b has infinite order
    assert {tuple(sorted(m.weq)) for m in tripped} == {
        ("a", "id_S", "id_T"), ("b", "id_S", "id_T"), ("a", "b", "id_S", "id_T"),
    }
    # only Z/4 with every morphism marked is out of the oracle's reach;
    # test_localize_groupoids_without_a_seed covers it
    assert {tuple(sorted(m.weq)) for m in beyond_oracle} == {
        ("g1", "g2", "g3", "id_*")
    }


def test_localize_cap_says_where_it_tripped():
    with pytest.raises(CapExceeded) as small:
        localize(walking_weak_equivalence(), cap=3)
    # id_A, then f and f⁻¹ while tracing f·f⁻¹ = () from id_A
    assert small.value.payload == {"cap": 3, "cosets": 4, "object": "A"}
    marked = saturate_two_of_three(corpus.parallel_pair(), ["a"])
    with pytest.raises(CapExceeded) as infinite:
        localize(marked)
    # the localization is infinite (a⁻¹∘b has infinite order), and Hom(S, −)
    # is enumerated first
    assert infinite.value.payload == {"cap": 20000, "cosets": 20001, "object": "S"}


# -- localizations that finish exactly when they are finite ----------------------


def test_localize_cyclic_groups_without_a_seed_give_the_group():
    for n in (7, 8, 10, 16):
        cat = corpus.cyclic_group_category(n)
        result = localize(saturate_two_of_three(cat, []))
        assert sorted(m.name for m in result.category.morphisms) == sorted(
            m.name for m in cat.morphisms
        )
        assert result.category.compose_table == cat.compose_table
        assert result.projection.morphism_map == {m.name: m.name for m in cat.morphisms}


def test_localize_everything_marked_gives_the_chaotic_groupoid():
    for cat, count in [
        (corpus.poset_chain(4), 25),
        (corpus.poset_chain(5), 36),
        (corpus.poset_chain(6), 49),
        (product_category(corpus.poset_chain(1), corpus.poset_chain(2)), 36),
    ]:
        marked = saturate_two_of_three(cat, [m.name for m in cat.morphisms])
        localized = localize(marked).category
        assert len(localized.morphisms) == count == len(cat.objects) ** 2
        for x in cat.objects:
            for y in cat.objects:
                (only,) = localized.hom(x, y)
                assert localized.is_iso(only)


def permutation_group_category(n: int) -> FinCategory:
    """The symmetric group on n points as a one-object category."""
    perms = list(itertools.permutations(range(n)))
    name = {p: "p" + "".join(map(str, p)) for p in perms}
    unit = tuple(range(n))
    name[unit] = "id_*"
    compose = [
        [name[g], name[f], name[tuple(g[f[k]] for k in range(n))]]
        for g in perms
        for f in perms
        if g != unit and f != unit
    ]
    return validate_category(
        {
            "objects": ["*"],
            "morphisms": [{"name": name[p], "src": "*", "dst": "*"} for p in perms if p != unit],
            "compose": compose,
        }
    )


def test_localize_groupoids_without_a_seed():
    # every morphism is an isomorphism, so the localization is C itself
    for cat in [
        corpus.cyclic_group_category(3),
        corpus.cyclic_group_category(4),
        permutation_group_category(3),
        corpus.chaotic_groupoid(["a", "b", "c"]),
    ]:
        result = localize(saturate_two_of_three(cat, []))
        images = {result.projection.on_mor(m.name) for m in cat.morphisms}
        assert len(images) == len(cat.morphisms) == len(result.category.morphisms)
        assert result.category.objects == cat.objects


# -- the enumeration core on presentations with longer relations ---------------


def then(p: tuple, q: tuple) -> tuple:
    """The permutation p followed by q."""
    return tuple(q[i] for i in p)


def reach(act: list[dict], start, step) -> list:
    """The image of every coset of ``act``, walking from coset 0 (image
    ``start``); coset k followed by letter a has image step(image, a).
    Asserts that the walk reaches every coset and that the images agree
    with every entry of the table."""
    image, todo = {0: start}, [0]
    for k in todo:
        for a, j in act[k].items():
            h = step(image[k], a)
            if j not in image:
                image[j] = h
                todo.append(j)
            assert image[j] == h
    assert len(image) == len(act)
    return [image[k] for k in range(len(act))]


def test_hom_tables_enumerates_von_dyck_groups():
    # ⟨a, b | a², b³, (ab)^m⟩ is A4, S4 and A5 for m = 3, 4, 5, realized
    # here by permutations of five points; relations this long make the
    # coincidences cascade through rows
    for m, a, b, order in [
        (3, (0, 2, 1, 4, 3), (0, 1, 3, 4, 2), 12),
        (4, (0, 1, 2, 4, 3), (0, 2, 3, 1, 4), 24),
        (5, (0, 2, 1, 4, 3), (1, 3, 2, 0, 4), 60),
    ]:
        perms = [a, b, a, tuple(sorted(range(5), key=b.__getitem__))]  # a, b, a⁻¹, b⁻¹
        relations = [((0, 0), ()), ((1, 1, 1), ()), ((0, 1) * m, ())]
        relations += [((0, 2), ()), ((2, 0), ()), ((1, 3), ()), ((3, 1), ())]
        (act,) = fincat.hom_tables(["*"], [("*", "*")] * 4, relations).values()
        image = reach(act, tuple(range(5)), lambda p, letter: then(p, perms[letter]))
        assert len(set(image)) == len(image) == order
        assert all(len(row) == 4 for row in act)


def group_category(pres) -> tuple[list, list]:
    """The ends and relations of a group presentation as a one-object
    category: letter 2i is generator i + 1 and letter 2i + 1 its inverse,
    with g·g⁻¹ = g⁻¹·g = () and relator = ()."""
    def letter(signed: int) -> int:
        return 2 * abs(signed) - 2 + (signed < 0)

    letters = 2 * len(pres.generators)
    relations = [((a, a ^ 1), ()) for a in range(letters)]
    relations += [(tuple(map(letter, w)), ()) for w in pres.relators]
    return [(0, 0)] * letters, relations


def test_hom_tables_deduces_inverse_entries():
    # π₁ of sd² ∂Δ³ is trivial on 216 generators, and π₁ of sd² RP² has
    # order 2 on 540.  Defining k·g = j also sets j·g⁻¹ = k, which closes
    # the first table under 2,000 cosets and the second under 20,000;
    # without the deduction they trip those caps, the second even 200,000
    for x, generators, order, cap in [
        (sd(sd(boundary(3)).complex).complex, 216, 1, 2000),
        (sd(sd(rp2_triangulation()).complex).complex, 540, 2, 20000),
    ]:
        pres = pi1(x, x.cells[0][0])
        assert len(pres.generators) == generators
        (act,) = fincat.hom_tables([0], *group_category(pres), cap).values()
        assert len(act) == order
        assert all(len(row) == 2 * generators for row in act)
        # a letter followed by its inverse is the identity, at every coset
        assert all(fincat.follow(act, k, (a, a ^ 1)) == k
                   for k in range(order) for a in range(2 * generators))


# -- the fundamental category of a nerve, by the same enumeration --------------


def walking_retraction() -> FinCategory:
    """s: A→B and r: B→A with r∘s = id_A; e = s∘r is idempotent."""
    return validate_category(
        {
            "objects": ["A", "B"],
            "morphisms": [
                {"name": "s", "src": "A", "dst": "B"},
                {"name": "r", "src": "B", "dst": "A"},
                {"name": "e", "src": "B", "dst": "B"},
            ],
            "compose": [
                ["r", "s", "id_A"],
                ["s", "r", "e"],
                ["e", "e", "e"],
                ["e", "s", "s"],
                ["r", "e", "r"],
            ],
        }
    )


def fundamental_category_tables(x) -> tuple[list[str], dict]:
    """The edges of X and the Hom tables of τ₁(X): the 0-cells, a letter per
    nondegenerate 1-cell, and d₁σ = d₀σ·d₂σ for every nondegenerate 2-cell
    σ, a degenerate edge being () (a degenerate σ gives a trivial one)."""
    edges = x.cells[1]
    letter = {e: a for a, e in enumerate(edges)}
    ends = [(x.faces[(1, e)][1].base, x.faces[(1, e)][0].base) for e in edges]

    def word(ref) -> tuple:
        return () if ref.word else (letter[ref.base],)

    relations = []
    for sigma in x.cells[2]:
        d0, d1, d2 = x.faces[(2, sigma)]
        relations.append((word(d2) + word(d0), word(d1)))
    return edges, fincat.hom_tables(x.cells[0], ends, relations)


def test_fundamental_category_of_a_nerve_is_the_category():
    cats = [
        corpus.terminal_category(),
        corpus.walking_arrow(),
        corpus.walking_iso(),
        corpus.discrete(4),
        corpus.poset_chain(3),
        corpus.parallel_pair(),
        corpus.cyclic_group_category(5),
        corpus.idempotent_monoid_category(),
        corpus.chaotic_groupoid(["a", "b", "c"]),
        permutation_group_category(3),
        walking_retraction(),
        product_category(corpus.poset_chain(1), corpus.walking_iso()),
    ]
    for cat in cats:
        edges, tables = fundamental_category_tables(nerve(cat, 2))
        vertices, chains = nerve_names(cat, 1)
        morphism = {
            chains[(m.name,)]: m.name for m in cat.morphisms if not cat.is_identity(m.name)
        }
        for x in cat.objects:
            # τ₁(N C) ≅ C: sending id_x to id_x and each letter to composing
            # with its morphism is a bijection onto the arrows out of x
            act = tables[vertices[x]]
            image = reach(act, cat.identity[x], lambda h, a: cat.compose(morphism[edges[a]], h))
            assert sorted(image) == sorted(m.name for m in cat.morphisms if m.src == x)
            for k, row in enumerate(act):
                assert sorted(morphism[edges[a]] for a in row) == sorted(
                    m for m in morphism.values() if cat.src(m) == cat.dst(image[k])
                )


# -- lifting -----------------------------------------------------------------------


def test_lifting_against_identity_always_works():
    cat = corpus.walking_arrow()
    for m in cat.morphisms:
        assert square_lifts(cat, m.name, "id_B")
        assert square_lifts(cat, "id_A", m.name)


def test_lifting_self_square_on_walking_arrow():
    cat = corpus.walking_arrow()
    # squares from f to f: top and bottom must satisfy f∘u = v∘f; the only
    # choice is u = id misaligned, so enumerate and decide
    assert square_lifts(cat, "f", "f") == (
        lifting_counterexample(cat, "f", "f") is None
    )
    # concretely: the square with top id_A-side leg u: A→A, v: B→B commutes
    # and needs h: B→A, which does not exist
    assert not square_lifts(cat, "f", "f")
    witness = lifting_counterexample(cat, "f", "f")
    assert witness == {"top": "id_A", "bottom": "id_B"}


# -- model axioms ---------------------------------------------------------------------


def test_trivial_model_passes_on_corpus():
    for cat in [
        corpus.walking_arrow(),
        corpus.walking_iso(),
        corpus.poset_chain(2),
        corpus.cyclic_group_category(2),
        corpus.parallel_pair(),
    ]:
        report = check_model(trivial_model(cat))
        assert report.passed, [a for a in report.axioms if not a.passed]
        assert report.functoriality_checked is False


def test_removing_identity_from_fib_breaks_an_axiom():
    cat = corpus.walking_arrow()
    model = trivial_model(cat)
    # strict validation refuses the data outright...
    with pytest.raises(SchemaError):
        ModelData(
            cat, model.weq, model.fib - {"id_A"}, model.cof
        ).validate()
    # ...while the checker lets the axioms speak: factorization or lifting
    # fails with a witness
    report = check_model(ModelData(cat, model.weq, model.fib - {"id_A"}, model.cof))
    assert not report.passed
    assert any(
        a.axiom in ("factorization", "lifting") and a.witnesses
        for a in report.axioms
        if not a.passed
    )
    # dropping a non-identity from fib instead also fails
    smaller = ModelData(cat, model.weq, model.fib - {"f"}, model.cof)
    report = check_model(smaller)
    assert not report.passed
    for axiom in report.axioms:
        if not axiom.passed:
            assert axiom.witnesses


def test_single_element_mutations_always_produce_witnesses():
    cat = corpus.walking_iso()
    model = trivial_model(cat)
    nonid = [m.name for m in cat.morphisms if not cat.is_identity(m.name)]
    for name in nonid:
        for which in ("fib", "cof"):
            mutated = ModelData(
                cat,
                model.weq,
                model.fib - {name} if which == "fib" else model.fib,
                model.cof - {name} if which == "cof" else model.cof,
            )
            report = check_model(mutated)
            assert not report.passed
            assert any(a.witnesses for a in report.axioms if not a.passed)


def test_non_retract_closed_class_fails_axiom_one():
    # B is a retract of A x B; arrange a class containing the bigger
    # morphism but not its retract
    cat = corpus.walking_iso()  # f: A->B, g its inverse
    model = trivial_model(cat)
    # remove f: f is a retract of id via (sections f, id) since g∘f = id
    mutated = ModelData(cat, model.weq, model.fib - {"f"}, model.cof)
    report = check_model(mutated)
    retract = next(a for a in report.axioms if a.axiom == "retracts")
    assert not retract.passed
    assert any(w["outside"] == "f" for w in retract.witnesses)


def test_passing_model_contains_isos_in_all_classes():
    for cat in [corpus.walking_iso(), corpus.cyclic_group_category(2)]:
        model = trivial_model(cat)
        report = check_model(model)
        assert report.passed
        for m in cat.morphisms:
            if cat.is_iso(m.name):
                assert m.name in model.weq
                assert m.name in model.fib
                assert m.name in model.cof


def test_model_json_roundtrip_and_schema():
    cat = corpus.walking_arrow()
    raw = {
        "v": 1,
        "category": cat.to_json_dict(),
        "weq": ["f"],
        "fib": ["f"],
        "cof": ["f"],
    }
    model = model_from_json(raw)
    assert "f" in model.weq and "id_A" in model.fib
    with pytest.raises(SchemaError):
        model_from_json({**raw, "extra": 1})


# -- names built from user names that plain joins would merge ----------------


def test_localize_names_a_morphism_spelled_like_a_formal_inverse():
    # joined plainly, the formal inverse of f and the morphism f^-1 are both f^-1
    cat = validate_category(
        {
            "objects": ["A", "B", "C"],
            "morphisms": [
                {"name": "f", "src": "A", "dst": "B"},
                {"name": "f^-1", "src": "B", "dst": "C"},
                {"name": "k", "src": "A", "dst": "C"},
            ],
            "compose": [["f^-1", "f", "k"]],
        }
    )
    loc = localize(saturate_two_of_three(cat, ["f"]))
    assert [m.name for m in loc.category.morphisms] == [
        "f^-1", "f", "f\\^-1", "id_A", "id_B", "id_C", "k"
    ]
    assert loc.projection.on_mor("f^-1") == "f\\^-1"
    assert loc.category.compose("f^-1", "f") == "id_A"
    assert loc.category.compose("f\\^-1", "f") == "k"


def test_localize_names_are_injective_on_clashing_names():
    rng = random.Random(2207)
    clashes = 0
    for _ in range(30):
        a, b, c, d, e, f, h, other = corpus.clash_names(rng, 8)
        # with h marked, the localization adds the letter h^-1 and the word
        # f*h^-1: A → C; k may spell either of them
        k = rng.choice([f"{h}^-1", f"{f}*{h}^-1", other])
        cat = validate_category(
            {
                "objects": [a, b, c, d, e],
                "morphisms": [
                    {"name": f, "src": a, "dst": b},
                    {"name": h, "src": c, "dst": b},
                    {"name": k, "src": d, "dst": e},
                ],
                "compose": [],
            }
        )
        loc = localize(saturate_two_of_three(cat, [h]))  # validate rejects repeats
        names = [m.name for m in loc.category.morphisms]
        assert len(set(names)) == len(names) == 10
        assert loc.category.is_iso(loc.projection.on_mor(h))
        clashes += k in (f"{h}^-1", f"{f}*{h}^-1")
    assert clashes >= 10
