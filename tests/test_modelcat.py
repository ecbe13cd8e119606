from __future__ import annotations

import itertools
import random

import pytest

from homcat import modelcat
from homcat.errors import CapExceeded, SchemaError
from homcat.fincat import (
    FinCategory,
    FinFunctor,
    Mor,
    enumerate_functors,
    partition,
    quotient,
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

import corpus


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
# The oracle is the localization as it was before words were interned as
# integers: it rebuilds the whole universe and its partition at every word
# length and rewrites (kind, name) words through the category.


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
    # the reduced universe is far smaller than the oracle's, so where the
    # oracle trips a cap, localize may finish: then its answer must be the
    # oracle's at a cap ten times the default
    outcomes = set()
    beyond_oracle = []
    for marked in small_marked_categories():
        roomy = None
        for cap in (20000, 3, 30, 300, 3000):
            want = localization_outcome(oracle_localize, marked, cap)
            got = localization_outcome(localize, marked, cap)
            outcomes.add(want[0] if want[0] == "CapExceeded" else "category")
            if want[0] != "CapExceeded" or got[0] == "CapExceeded":
                assert got == want
                continue
            if roomy is None:
                roomy = localization_outcome(oracle_localize, marked, 200000)
            if roomy[0] == "CapExceeded":
                beyond_oracle.append(marked)
            else:
                assert got == roomy
    assert outcomes == {"CapExceeded", "category"}
    # only Z/4 with every morphism marked is out of the oracle's reach;
    # test_localize_groupoids_without_a_seed covers it
    assert {tuple(sorted(m.weq)) for m in beyond_oracle} == {
        ("g1", "g2", "g3", "id_*")
    }


def count_reduced_words(marked: MarkedCategory, max_len: int) -> int:
    """Words of the reduced universe of lengths 1 to ``max_len``, counted by
    endpoints: every letter alone, then composable words with no identity
    and no formal inverse of a morphism that has an inverse in C."""
    cat = marked.base
    letters = [(m.src, m.dst) for m in cat.morphisms]
    letters += [(cat.dst(name), cat.src(name)) for name in marked.weq]
    reduced = [(m.src, m.dst) for m in cat.morphisms if not cat.is_identity(m.name)]
    reduced += [
        (cat.dst(name), cat.src(name))
        for name in marked.weq
        if cat.inverse(name) is None
    ]
    ending = {x: 0 for x in cat.objects}  # words of the current length, by end
    for _, dst in reduced:
        ending[dst] += 1
    total = len(letters)
    for _ in range(max_len - 1):
        after = {x: 0 for x in cat.objects}
        for src, dst in reduced:
            after[dst] += ending[src]
        ending = after
        total += sum(ending.values())
    return total


def test_localize_rewrites_each_word_once(monkeypatch):
    rewritten = []
    original = modelcat._rewrites

    def counting(*args):
        rewritten.append(args[-1])
        return original(*args)

    monkeypatch.setattr(modelcat, "_rewrites", counting)
    for marked in [
        walking_weak_equivalence(),
        saturate_two_of_three(corpus.poset_chain(2), ["le01"]),
        saturate_two_of_three(corpus.walking_iso(), []),
    ]:
        rewritten.clear()
        localize(marked)
        longest = max(len(word) for word in rewritten)
        assert len(set(rewritten)) == len(rewritten)
        assert len(rewritten) == count_reduced_words(marked, longest)


def test_localize_cap_says_where_it_tripped():
    with pytest.raises(CapExceeded) as small:
        localize(walking_weak_equivalence(), cap=3)
    # six letters: f, id_A, id_B and their formal inverses
    assert small.value.payload == {"cap": 3, "universe": 6, "word_length": 4}
    marked = saturate_two_of_three(corpus.parallel_pair(), ["a"])
    with pytest.raises(CapExceeded) as infinite:
        localize(marked)
    # the localization is infinite (a⁻¹∘b has infinite order): the reduced
    # words up to length 22 fit in the cap, those up to length 23 do not,
    # while the universe grows to word length 24
    assert count_reduced_words(marked, 22) <= 20000 < count_reduced_words(marked, 23)
    assert infinite.value.payload == {
        "cap": 20000, "universe": count_reduced_words(marked, 23), "word_length": 24,
    }


# -- the reduced word universe -----------------------------------------------------


def walking_retraction() -> FinCategory:
    """s: A→B and r: B→A with r∘s = id_A; e = s∘r is idempotent.  Marking s
    marks everything, and then first r⁻¹ then s⁻¹ is (r∘s)⁻¹ = id_A⁻¹, a
    formal inverse that swaps to a forward letter."""
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


def reduction_cases():
    yield from small_marked_categories()
    yield saturate_two_of_three(walking_retraction(), ["s"])


def letter_is_reduced(cat: FinCategory, letter: tuple[str, str]) -> bool:
    kind, name = letter
    if kind == "m":
        return not cat.is_identity(name)
    return cat.inverse(name) is None


def composable_words(t, max_len: int, letters) -> list[tuple]:
    """Composable words of lengths 1 to ``max_len``: any letter first, then
    only ``letters``."""
    level = [(a,) for a in range(len(t.pairs))]
    words = list(level)
    for _ in range(max_len - 1):
        level = [
            w + (b,)
            for w in level
            if w[-1] in letters
            for b in letters
            if t.src[b] == t.dst[w[-1]]
        ]
        words += level
    return words


def is_reduced_word(t, cat: FinCategory, word: tuple) -> bool:
    return len(word) == 1 or all(letter_is_reduced(cat, t.pairs[a]) for a in word)


def test_reduced_rewrites_stay_in_the_reduced_universe():
    for marked in reduction_cases():
        cat = marked.base
        t = modelcat._letter_tables(cat, marked.weq)
        reduced = [a for a in range(len(t.pairs)) if letter_is_reduced(cat, t.pairs[a])]
        for word in composable_words(t, 6, reduced):
            for other in modelcat._rewrites(t, word):
                image = modelcat._reduce(t, other)
                assert is_reduced_word(t, cat, image), (t.pairs, word, image)
                assert len(image) <= len(word)
                assert (t.src[image[0]], t.dst[image[-1]]) == (
                    t.src[word[0]], t.dst[word[-1]]
                )


def test_reduced_classes_agree_with_the_full_universe():
    # reduced(L) is no coarser than full(L) on reduced words, and full(L)
    # is no coarser than reduced(L + 2), whose longer words close the i·i
    # joins; where reduced(L) and reduced(L + 2) agree, all three agree
    pinched = 0
    for marked in reduction_cases():
        cat = marked.base
        t = modelcat._letter_tables(cat, marked.weq)
        everything = range(len(t.pairs))
        reduced = [a for a in everything if letter_is_reduced(cat, t.pairs[a])]

        def reduced_classes(bound: int) -> dict:
            words = composable_words(t, bound, reduced)
            edges = [
                (w, modelcat._reduce(t, other))
                for w in words
                for other in modelcat._rewrites(t, w)
            ]
            return quotient(words, edges)

        for bound in range(2, 7):
            full_words = composable_words(t, bound, everything)
            if len(full_words) > 12000:
                break
            full = quotient(
                full_words,
                ((w, other) for w in full_words for other in modelcat._rewrites(t, w)),
            )
            short, longer = reduced_classes(bound), reduced_classes(bound + 2)
            for w in full_words:
                image = modelcat._reduce(t, w)
                assert is_reduced_word(t, cat, image) and full[image] == full[w]
                for other in modelcat._rewrites(t, w):
                    assert longer[modelcat._reduce(t, other)] == longer[image]
            pairs = list(itertools.combinations(short, 2))
            for u, v in pairs:
                if short[u] == short[v]:
                    assert full[u] == full[v]
                if full[u] == full[v]:
                    assert longer[u] == longer[v]
            if all((short[u] == short[v]) == (longer[u] == longer[v]) for u, v in pairs):
                pinched += 1
    assert pinched > 0


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
