"""Weak equivalences, zig-zag localization, lifting, and model axioms.

C[W⁻¹] is presented by C's morphisms and formal inverses of W, with C's
composition and the inverse laws as relations, and computed by the coset
enumerator of :mod:`homcat.fincat`, Todd–Coxeter on each Hom(x, −)
(Carmody & Walters, 1991).  The enumeration ends exactly when the
localization is finite; ``cap`` (the CLI's ``--cap``) bounds the cosets it
defines."""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import NotUniversal, SchemaError
from .fincat import FinCategory, FinFunctor, Mor, join_names, validate_category
from .fincat import follow, hom_tables, least_words


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


@dataclass
class Localization:
    category: FinCategory
    projection: FinFunctor
    marked: MarkedCategory


def localize(marked: MarkedCategory, cap: int = 20000) -> Localization:
    """Adjoin formal inverses for the marked morphisms.

    C[W⁻¹] is presented by the letters ``(kind, name)`` in sorted order,
    C's morphisms ``("m", f)`` and the formal inverses ``("i", w)``, which
    sort first; the relations are (id_y) = (), (f, g) = (g∘f) for every
    composable pair of non-identities, and (w, w⁻¹) = (w⁻¹, w) = () for
    w in W: present, enumerate, name.  :func:`fincat.hom_tables`
    enumerates each Hom(x, −), and each arrow is named by spelling its
    least non-empty word in the order (length, formal inverses, letters)
    from :func:`fincat.least_words`; the arrows are listed by length, then
    word.  ``cap`` bounds the cosets defined over all objects; the
    enumeration ends exactly when the localization is finite, so an
    infinite one raises :class:`CapExceeded`.
    """
    cat = marked.base
    weq = marked.weq
    pairs = sorted(
        [("m", m.name) for m in cat.morphisms] + [("i", name) for name in weq]
    )
    letter = {p: a for a, p in enumerate(pairs)}
    ends = [
        (cat.src(name), cat.dst(name)) if kind == "m" else (cat.dst(name), cat.src(name))
        for kind, name in pairs
    ]
    relations = [((letter["m", cat.identity[x]],), ()) for x in cat.objects]
    relations += [
        ((letter["m", f], letter["m", g]), (letter["m", cat.compose(g, f)],))
        for g, f in cat.composable_pairs()
        if not cat.is_identity(g) and not cat.is_identity(f)
    ]
    for name in weq:
        w, inverse = letter["m", name], letter["i", name]
        relations += [((w, inverse), ()), ((inverse, w), ())]
    tables = hom_tables(cat.objects, ends, relations, cap)
    word = {(x, k): w for x, act in tables.items()
            for k, w in least_words(act, range(len(weq))).items()}
    reps = sorted(word, key=lambda r: (len(word[r]), word[r]))
    end = {r: ends[word[r][-1]][1] for r in reps}
    # a letter is named (name,) or (name, "-1") on '^', a word on '*'
    keys = [(n,) if k == "m" else (n, "-1") for k, n in pairs]
    label = join_names(keys, "^")
    spell = {r: tuple(label[keys[a]] for a in word[r]) for r in reps}
    spelled = join_names(spell.values(), "*")
    names = {(x, 0): f"id_{x}" for x in cat.objects}
    for r in reps:
        names.setdefault(r, spelled[spell[r]])
    morphisms = [Mor(names[r], r[0], end[r]) for r in reps]
    out_of = {x: [] for x in cat.objects}
    for r in reps:
        out_of[r[0]].append(r)
    compose_table = {
        (names[v], names[u]): names[u[0], follow(tables[u[0]], u[1], word[v])]
        for u in reps
        for v in out_of[end[u]]
    }
    identity = {x: f"id_{x}" for x in cat.objects}
    localized = FinCategory(list(cat.objects), morphisms, compose_table, identity)
    localized.validate()
    projection = FinFunctor(
        cat,
        localized,
        {x: x for x in cat.objects},
        {m.name: names[m.src, tables[m.src][0][letter["m", m.name]]] for m in cat.morphisms},
    )
    projection.validate()
    for name in weq:
        if not localized.is_iso(projection.on_mor(name)):
            raise NotUniversal(
                f"projection of marked morphism {name!r} is not invertible",
                morphism=name,
            )
    return Localization(localized, projection, marked)


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
