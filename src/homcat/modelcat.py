"""Weak equivalences, zig-zag localization, lifting, and model axioms.

Localization works over a bounded universe of composable letter words
(forward morphisms and formal inverses of marked ones), interned as
integers with the rewrites of every letter pair tabulated once.  The
universe is reduced: every letter is a word, but a longer word uses only
non-identity forward letters and formal inverses of marked morphisms
with no inverse in C, since every other letter rewrites to something
lower.  ``cap`` (the CLI's ``--cap``) bounds the number of words in this
reduced universe.  Local rewrites never lengthen a word, so congruence
closure inside the universe is a union-find over single rewrite steps,
and a word's rewrites are the same at every bound: the universe and its
union-find are grown once, one word length at a time, until the class
structure is stable or the cap is hit.  Whether the result really is the
localization is then re-checked behaviorally: the projection must send
marked morphisms to isomorphisms, and the test-suite verifies the
universal property by functor enumeration on the corpus."""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter

from .errors import CapExceeded, SchemaError
from .fincat import FinCategory, FinFunctor, Mor, UnionFind, join_names


# -- marked categories -------------------------------------------------------


def saturate_two_of_three(cat: FinCategory, seed) -> "MarkedCategory":
    """Least class containing the seed and all isomorphisms, closed under
    two-of-three; reached by monotone iteration."""
    marked = {m.name for m in cat.morphisms if cat.is_iso(m.name)}
    marked |= set(seed)
    unknown = set(seed) - {m.name for m in cat.morphisms}
    if unknown:
        raise SchemaError(f"unknown morphisms in seed: {sorted(unknown)}")
    changed = True
    while changed:
        changed = False
        for g, f in cat.composable_pairs():
            h = cat.compose(g, f)
            known = (f in marked) + (g in marked) + (h in marked)
            if known == 2:
                before = len(marked)
                marked |= {f, g, h}
                changed = changed or len(marked) != before
    return MarkedCategory(cat, frozenset(marked))


@dataclass
class MarkedCategory:
    base: FinCategory
    weq: frozenset[str]

    def validate(self) -> None:
        names = {m.name for m in self.base.morphisms}
        for name in self.weq:
            if name not in names:
                raise SchemaError(f"marked morphism {name!r} not in the category")
        for m in self.base.morphisms:
            if self.base.is_iso(m.name) and m.name not in self.weq:
                raise SchemaError(f"isomorphism {m.name!r} is not marked")
        if saturate_two_of_three(self.base, self.weq).weq != self.weq:
            raise SchemaError("marked class is not two-of-three closed")


# -- localization -------------------------------------------------------------


def _letter_endpoints(cat: FinCategory, letter: tuple[str, str]) -> tuple[str, str]:
    kind, name = letter
    if kind == "m":
        return cat.src(name), cat.dst(name)
    return cat.dst(name), cat.src(name)


@dataclass
class _Letters:
    """Integer letter tables of one localization.

    Letter ``a`` is ``pairs[a]``, the ``a``-th ``(kind, name)`` pair in
    sorted order, so comparing integer words compares the words of pairs.
    The formal inverses ``("i", name)`` sort first: letter ``a`` is one
    exactly when ``a < n_inverse``.
    """

    pairs: list[tuple[str, str]]
    letter: dict[tuple[str, str], int]  # pairs[a] -> a
    n_inverse: int
    src: list[str]
    dst: list[str]
    # the reduced letters that may follow each letter in a word of length
    # at least 2: none after an identity or a swappable formal inverse
    follow: list[list[int]]
    pair: dict[tuple[int, int], int]  # a two-letter factor's one-letter rewrite
    identity: list[bool]
    # the forward letter equal to a formal inverse of a morphism that has an
    # inverse in C; every other letter is its own swap
    swap: list[int]
    reduced: list[bool]  # neither an identity nor swappable


def _letter_tables(cat: FinCategory, weq: frozenset) -> _Letters:
    pairs = sorted(
        [("m", m.name) for m in cat.morphisms] + [("i", name) for name in weq]
    )
    letter = {p: a for a, p in enumerate(pairs)}
    ends = [_letter_endpoints(cat, p) for p in pairs]
    pair = {}
    for a, (k1, n1) in enumerate(pairs):
        for b, (k2, n2) in enumerate(pairs):
            if ends[b][0] != ends[a][1]:
                continue
            if k1 == "m" and k2 == "m":
                # diagrammatic order: first n1 then n2 is the composite n2∘n1
                pair[a, b] = letter["m", cat.compose(n2, n1)]
            elif k1 == "m" and k2 == "i" and n1 == n2:
                pair[a, b] = letter["m", cat.identity[cat.src(n1)]]
            elif k1 == "i" and k2 == "m" and n1 == n2:
                pair[a, b] = letter["m", cat.identity[cat.dst(n1)]]
            elif k1 == "i" and k2 == "i":
                # first n1⁻¹ then n2⁻¹ is (n1∘n2)⁻¹ when that composite is in W
                composite = cat.compose(n1, n2)
                if composite in weq:
                    pair[a, b] = letter["i", composite]
    swap = []
    for a, (kind, name) in enumerate(pairs):
        inv = cat.inverse(name) if kind == "i" else None
        swap.append(a if inv is None else letter["m", inv])
    identity = [kind == "m" and cat.is_identity(name) for kind, name in pairs]
    reduced = [swap[a] == a and not identity[a] for a in range(len(pairs))]
    follow = [
        [b for b in range(len(pairs)) if reduced[b] and ends[b][0] == end]
        if reduced[a] else []
        for a, (_, end) in enumerate(ends)
    ]
    return _Letters(
        pairs,
        letter,
        len(weq),
        [src for src, _ in ends],
        [dst for _, dst in ends],
        follow,
        pair,
        identity,
        swap,
        reduced,
    )


def _rewrites(t: _Letters, word: tuple):
    """All single-step reductions of a word; none of them lengthen it."""
    pair = t.pair
    for k in range(len(word) - 1):
        c = pair.get((word[k], word[k + 1]))
        if c is not None:
            yield word[:k] + (c,) + word[k + 2:]
    for k, a in enumerate(word):
        if t.identity[a] and len(word) >= 2:
            yield word[:k] + word[k + 1:]
        b = t.swap[a]
        if b != a:
            yield word[:k] + (b,) + word[k + 1:]


def _reduce(t: _Letters, word: tuple) -> tuple:
    """ρ: apply every swap, then delete every identity letter; a word of
    identities keeps its first letter."""
    if all(map(t.reduced.__getitem__, word)):
        return word
    word = tuple([t.swap[a] for a in word])
    kept = tuple([a for a in word if not t.identity[a]])
    return kept or word[:1]


@dataclass
class Localization:
    category: FinCategory
    projection: FinFunctor
    marked: MarkedCategory


# Why the reduced universe gives the answer of the full one.
#
# Every rewrite path maps into the reduced universe: if u rewrites to v
# in the full universe, ρ(u) and ρ(v) are joined by rewrites of reduced
# words, each followed by ρ.  Below, n' is the forward letter for n⁻¹.
# - Swap, identity deletion: ρ(u) = ρ(v).
# - m·m: with an identity factor this is an identity deletion; otherwise
#   ρ(u) keeps the factor and rewrites it.
# - m·i, i·m of one name n: if n has an inverse n', ρ(u) holds n·n' or
#   n'·n, an m·m factor with the same identity as product; if not, ρ(u)
#   keeps the factor.
# - i·i, first n₁⁻¹ then n₂⁻¹ for n₂: A→B, n₁: B→C, c = n₁∘n₂ in W: if
#   both swap, ρ(u) holds n₁'·n₂', whose m·m product is c⁻¹ in C, the
#   swap of c⁻¹; if neither swaps, ρ(u) keeps the factor.  If only n₁
#   swaps (and is no identity, else ρ(u) = ρ(v)), c has no inverse and
#   the reduced word (c⁻¹, c, n₁', n₂⁻¹) rewrites by c⁻¹·c = id_C to
#   (n₁', n₂⁻¹) and by c·n₁' = n₂, then n₂·n₂⁻¹ = id_A, to (c⁻¹).  If
#   only n₂ swaps, (n₁⁻¹, n₂', c, c⁻¹) joins (n₁⁻¹, n₂') to (c⁻¹) alike.
#   These joins take two more letters than u has, so at one bound the
#   reduced classes may be finer than the full ones; they agree once the
#   classes are stable.
# Representatives do not change: a swap lowers a word in representative
# order (as many letters, one formal inverse fewer) and an identity
# deletion shortens it, so the least word of every class is reduced or
# one letter long, and it is in the reduced universe.
#
# Each reduced edge is a chain of full rewrites, so the union-find only
# joins equal morphisms of C[W⁻¹]; the closure check, ``validate`` and
# the invertibility check then make any returned answer exact.  So the
# reduction changes whether the search finishes, not what it returns.


def localize(marked: MarkedCategory, cap: int = 20000) -> Localization:
    """Adjoin formal inverses for the marked morphisms.

    The universe of composable words up to length L = 4, 6, ... is grown
    once per call: the words of each new length are numbered in
    representative order (shortest, then fewest formal inverses, then
    lexicographic), added to one union-find and joined to their
    rewrites, so the least member of a class is its representative.  The
    words of lengths up to L/2 give a candidate category; L stops growing
    when a candidate agrees with the last one found.

    The universe is reduced (see the module docstring): a formal inverse
    w⁻¹ of a morphism w with an inverse w' in C *swaps* to the forward
    letter w', and the normalizer ρ (:func:`_reduce`) maps each rewrite,
    and each product of two representatives, into the universe.

    Raises :class:`CapExceeded` when the reduced universe outgrows
    ``cap`` before the class structure stabilizes, or when L passes 40;
    the payload names the ``universe`` size and the ``word_length`` L
    reached.
    """
    cat = marked.base
    weq = marked.weq
    t = _letter_tables(cat, weq)
    words: list[tuple] = []  # word id -> word, in representative order
    index: dict[tuple, int] = {}
    classes = UnionFind()
    find = classes.find
    upto = [0]  # upto[k]: the number of words of length at most k
    # the longest words so far, in lexicographic order, with inverse counts
    level: list[tuple[tuple, int]] = []

    def grow(max_len: int) -> None:
        nonlocal level
        start = len(words)
        for length in range(len(upto), max_len + 1):
            if length == 1:
                level = [((a,), int(a < t.n_inverse)) for a in range(len(t.pairs))]
            else:
                level = [
                    (word + (b,), inverses + (b < t.n_inverse))
                    for word, inverses in level
                    for b in t.follow[word[-1]]
                ]
            if level:
                # fewest formal inverses first, so that classes of ordinary
                # morphisms keep their ordinary names
                for word, _ in sorted(level, key=itemgetter(1)):
                    index[word] = len(words)
                    classes.add(len(words))
                    words.append(word)
                if len(words) > cap:
                    raise CapExceeded(
                        "localization word universe exceeded the cap",
                        cap=cap,
                        universe=len(words),
                        word_length=max_len,
                    )
            upto.append(len(words))
        # a rewrite never lengthens a word, so the edges of the new words
        # are complete now, and no later length adds to them
        union = classes.union
        for w in range(start, len(words)):
            for other in _rewrites(t, words[w]):
                union(w, index[_reduce(t, other)])

    def structure(half: int):
        reps = sorted(
            (r for r in range(upto[half]) if find(r) == r),
            key=lambda r: (len(words[r]), words[r]),
        )
        rep_set = set(reps)
        table = {}
        for u in reps:
            end = t.dst[words[u][-1]]
            for v in reps:
                if t.src[words[v][0]] == end:
                    product = find(index[_reduce(t, words[u] + words[v])])
                    if product not in rep_set:
                        return None
                    table[(u, v)] = product
        return reps, table

    max_len, previous = 4, None
    while True:
        grow(max_len)
        current = structure(max_len // 2)
        if current is not None and previous is not None and current == previous:
            break
        if current is not None:
            previous = current
        max_len += 2
        if max_len > 40:
            raise CapExceeded(
                "localization did not stabilize within word length 40",
                cap=cap,
                universe=len(words),
                word_length=40,
            )

    reps, table = current

    def rep_of(name: str) -> int:
        return find(index[(t.letter["m", name],)])

    # a letter is named (name,) or (name, "-1") on '^', a word on '*'
    keys = [(n,) if k == "m" else (n, "-1") for k, n in t.pairs]
    label = join_names(keys, "^")
    spell = {r: tuple(label[keys[a]] for a in words[r]) for r in reps}
    spelled = join_names(spell.values(), "*")
    names = {rep_of(cat.identity[x]): f"id_{x}" for x in cat.objects}
    for rep in reps:
        names.setdefault(rep, spelled[spell[rep]])
    morphisms = [
        Mor(names[rep], t.src[words[rep][0]], t.dst[words[rep][-1]]) for rep in reps
    ]
    compose_table = {
        (names[v], names[u]): names[w] for (u, v), w in table.items()
    }
    identity = {x: names[rep_of(cat.identity[x])] for x in cat.objects}
    localized = FinCategory(list(cat.objects), morphisms, compose_table, identity)
    localized.validate()
    projection = FinFunctor(
        cat,
        localized,
        {x: x for x in cat.objects},
        {m.name: names[rep_of(m.name)] for m in cat.morphisms},
    )
    projection.validate()
    result = Localization(localized, projection, marked)
    for name in weq:
        if not localized.is_iso(projection.on_mor(name)):
            raise CapExceeded(
                f"projection of marked morphism {name!r} is not invertible; "
                "the universe was too small",
                cap=cap,
                universe=len(words),
                word_length=max_len,
            )
    return result


# -- lifting ------------------------------------------------------------------


def lifting_counterexample(cat: FinCategory, i: str, p: str):
    """First commuting square from i to p with no diagonal, or None."""
    for u in cat.hom(cat.src(i), cat.src(p)):
        for v in cat.hom(cat.dst(i), cat.dst(p)):
            if cat.compose(p, u) != cat.compose(v, i):
                continue
            if not any(
                cat.compose(h, i) == u and cat.compose(p, h) == v
                for h in cat.hom(cat.dst(i), cat.src(p))
            ):
                return {"top": u, "bottom": v}
    return None


def square_lifts(cat: FinCategory, i: str, p: str) -> bool:
    """True iff every commuting square from i to p has a diagonal filler."""
    return lifting_counterexample(cat, i, p) is None


# -- model structures -----------------------------------------------------------


@dataclass
class ModelData:
    base: FinCategory
    weq: frozenset[str]
    fib: frozenset[str]
    cof: frozenset[str]

    def validate(self) -> None:
        MarkedCategory(self.base, self.weq).validate()
        names = {m.name for m in self.base.morphisms}
        for cls, label in ((self.fib, "fib"), (self.cof, "cof")):
            if not cls <= names:
                raise SchemaError(f"unknown morphisms in {label}")
            for x in self.base.objects:
                if self.base.identity[x] not in cls:
                    raise SchemaError(f"{label} must contain every identity")


def model_from_json(raw: dict) -> ModelData:
    from .fincat import validate_category

    if not isinstance(raw, dict):
        raise SchemaError("model payload must be an object")
    for key in raw:
        if key not in {"v", "category", "weq", "fib", "cof"}:
            raise SchemaError(f"unknown field {key!r} in model file")
    cat = validate_category(raw.get("category", {}))

    def with_identities(listed) -> frozenset:
        return frozenset(listed) | set(cat.identity.values())

    data = ModelData(
        cat,
        frozenset(saturate_two_of_three(cat, raw.get("weq", [])).weq),
        with_identities(raw.get("fib", [])),
        with_identities(raw.get("cof", [])),
    )
    data.validate()
    return data


def trivial_model(cat: FinCategory) -> ModelData:
    """Weak equivalences the isomorphisms, everything a (co)fibration."""
    names = frozenset(m.name for m in cat.morphisms)
    return ModelData(
        cat, saturate_two_of_three(cat, ()).weq, names, names
    )


def _retract_witness(cat: FinCategory, f: str, g: str):
    """Data exhibiting f as a retract of g, or None."""
    fx, fx2 = cat.src(f), cat.dst(f)
    gy, gy2 = cat.src(g), cat.dst(g)
    for sec in cat.hom(fx, gy):
        for ret in cat.hom(gy, fx):
            if cat.compose(ret, sec) != cat.identity[fx]:
                continue
            for sec2 in cat.hom(fx2, gy2):
                for ret2 in cat.hom(gy2, fx2):
                    if cat.compose(ret2, sec2) != cat.identity[fx2]:
                        continue
                    if (
                        cat.compose(g, sec) == cat.compose(sec2, f)
                        and cat.compose(f, ret) == cat.compose(ret2, g)
                    ):
                        return {
                            "section": [sec, sec2],
                            "retraction": [ret, ret2],
                        }
    return None


@dataclass
class AxiomReport:
    axiom: str
    passed: bool
    witnesses: list = field(default_factory=list)


@dataclass
class ModelReport:
    axioms: list[AxiomReport]
    functoriality_checked: bool = False

    @property
    def passed(self) -> bool:
        return all(a.passed for a in self.axioms)


def check_model(model: ModelData) -> ModelReport:
    """Verify retract closure, lifting, and per-morphism factorization.

    The weak equivalences must form a valid marked class, but fib and cof
    are taken as given so that mutations of them (an identity removed, say)
    surface as failed axioms with witnesses rather than as rejections.
    Functoriality of the factorizations is out of the checker's reach and
    reported as unchecked.
    """
    MarkedCategory(model.base, model.weq).validate()
    names = {m.name for m in model.base.morphisms}
    if not (model.fib <= names and model.cof <= names):
        raise SchemaError("fib/cof mention unknown morphisms")
    cat = model.base
    axioms = []

    retract_failures = []
    for label, cls in (("weq", model.weq), ("fib", model.fib), ("cof", model.cof)):
        for f in cat.morphisms:
            if f.name in cls:
                continue
            for g in sorted(cls):
                witness = _retract_witness(cat, f.name, g)
                if witness is not None:
                    retract_failures.append(
                        {"class": label, "outside": f.name, "inside": g, **witness}
                    )
    axioms.append(AxiomReport("retracts", not retract_failures, retract_failures))

    lifting_failures = []
    acyclic_fib = sorted(model.fib & model.weq)
    acyclic_cof = sorted(model.cof & model.weq)
    for i in sorted(model.cof):
        for p in acyclic_fib:
            square = lifting_counterexample(cat, i, p)
            if square is not None:
                lifting_failures.append({"i": i, "p": p, **square})
    for i in acyclic_cof:
        for p in sorted(model.fib):
            square = lifting_counterexample(cat, i, p)
            if square is not None:
                lifting_failures.append({"i": i, "p": p, **square})
    axioms.append(AxiomReport("lifting", not lifting_failures, lifting_failures))

    factor_failures = []
    for f in cat.morphisms:
        ways = {"cof-then-acyclic-fib": False, "acyclic-cof-then-fib": False}
        for mid in cat.objects:
            for i in cat.hom(f.src, mid):
                for p in cat.hom(mid, f.dst):
                    if cat.compose(p, i) != f.name:
                        continue
                    if i in model.cof and p in model.fib and p in model.weq:
                        ways["cof-then-acyclic-fib"] = True
                    if i in model.cof and i in model.weq and p in model.fib:
                        ways["acyclic-cof-then-fib"] = True
        for way, ok in ways.items():
            if not ok:
                factor_failures.append({"morphism": f.name, "missing": way})
    axioms.append(
        AxiomReport("factorization", not factor_failures, factor_failures)
    )
    return ModelReport(axioms)
