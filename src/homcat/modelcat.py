"""Weak equivalences, zig-zag localization, lifting, and model axioms.

Localization works over a bounded universe of composable letter words
(forward morphisms and formal inverses of marked ones).  Local rewrites
never lengthen a word, so congruence closure inside the universe is a
union-find over single rewrite steps; the universe grows until the class
structure is stable or the cap is hit.  Whether the result really is the
localization is then re-checked behaviorally: the projection must send
marked morphisms to isomorphisms, and the test-suite verifies the
universal property by functor enumeration on the corpus.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import CapExceeded, SchemaError
from .fincat import FinCategory, FinFunctor, Mor, partition


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
        for name in self.weq:
            if name not in {m.name for m in self.base.morphisms}:
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


@dataclass
class Localization:
    category: FinCategory
    projection: FinFunctor
    marked: MarkedCategory


def localize(marked: MarkedCategory, cap: int = 20000) -> Localization:
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
