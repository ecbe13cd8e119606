"""Diagrams of finite sets: limits, colimits, ends, coends, Kan extensions.

Limits are computed literally as the equalizer of the two parallel maps
out of the big product over objects into the product over morphisms; dually
for colimits with a union-find quotient.  Everything is exact enumeration.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import (
    Budget,
    DEFAULT_FUNCTOR_BUDGET,
    EndpointMismatch,
    EngineError,
    InvalidStructure,
    NotUniversal,
    SchemaError,
)
from .fincat import FinCategory, FinFunctor, Mor, opposite
from .fincat import quotient as _quotient  # perfbench/tracing.py wraps this name


@dataclass(frozen=True)
class FinSetRep:
    """A named finite set; element tokens are distinct strings."""

    name: str
    elements: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.elements)) != len(self.elements):
            raise SchemaError(f"set {self.name!r} has repeated elements")

    def __len__(self):
        return len(self.elements)


@dataclass(frozen=True)
class FinFunction:
    source: FinSetRep
    target: FinSetRep
    mapping: dict

    def __post_init__(self):
        for x in self.source.elements:
            if x not in self.mapping:
                raise SchemaError(f"function undefined on {x!r}")
            if self.mapping[x] not in self.target.elements:
                raise SchemaError(f"image of {x!r} is outside the target")

    def __call__(self, x: str) -> str:
        return self.mapping[x]

    def then(self, other: "FinFunction") -> "FinFunction":
        """other ∘ self."""
        return FinFunction(
            self.source, other.target, {x: other.mapping[y] for x, y in self.mapping.items()}
        )

    def is_bijective(self) -> bool:
        return len(set(self.mapping.values())) == len(self.source.elements) == len(
            self.target.elements
        )


def identity_function(s: FinSetRep) -> FinFunction:
    return FinFunction(s, s, {x: x for x in s.elements})


def tuple_token(parts) -> str:
    return "(" + ",".join(parts) + ")"


def split_tuple_token(token: str) -> list[str]:
    """Inverse of :func:`tuple_token` for balanced component tokens."""
    if not (token.startswith("(") and token.endswith(")")):
        raise SchemaError(f"not a tuple token: {token!r}")
    inner = token[1:-1]
    if not inner:
        return []
    parts, depth, cur = [], 0, []
    for ch in inner:
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
            continue
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        cur.append(ch)
    parts.append("".join(cur))
    return parts


@dataclass
class Diagram:
    """A set-valued functor on a finite shape category."""

    shape: FinCategory
    values: dict[str, FinSetRep]
    arrows: dict[str, FinFunction]

    def validate(self) -> None:
        for x in self.shape.objects:
            if x not in self.values:
                raise SchemaError(f"no value set at object {x!r}")
        for m in self.shape.morphisms:
            fn = self.arrows.get(m.name)
            if fn is None:
                raise SchemaError(f"no function at morphism {m.name!r}")
            if fn.source != self.values[m.src] or fn.target != self.values[m.dst]:
                raise EndpointMismatch(f"function at {m.name!r} has wrong endpoints")
        for x in self.shape.objects:
            idm = self.shape.identity[x]
            if self.arrows[idm].mapping != identity_function(self.values[x]).mapping:
                raise InvalidStructure(f"arrow at identity of {x!r} is not the identity")
        for g, f in self.shape.composable_pairs():
            gf = self.shape.compose(g, f)
            if self.arrows[f].then(self.arrows[g]).mapping != self.arrows[gf].mapping:
                raise InvalidStructure(f"functoriality fails on ({g!r},{f!r})")


@dataclass
class ConeResult:
    """Apex plus one leg per shape object.

    For limits the legs map out of the apex; for colimits into it.
    """

    apex: FinSetRep
    legs: dict[str, FinFunction]


def constant_diagram(shape: FinCategory, s: FinSetRep) -> Diagram:
    return Diagram(
        shape,
        {x: s for x in shape.objects},
        {m.name: identity_function(s) for m in shape.morphisms},
    )


def product(sets: list[FinSetRep]) -> ConeResult:
    """Cartesian product with coordinate projections; empty input gives
    the one-element terminal set."""
    tuples = list(itertools.product(*(s.elements for s in sets)))
    apex = FinSetRep(
        tuple_token([s.name for s in sets]), tuple(tuple_token(t) for t in tuples)
    )
    legs = {}
    for k, s in enumerate(sets):
        legs[k] = FinFunction(
            apex, s, {tuple_token(t): t[k] for t in tuples}
        )
    return ConeResult(apex, legs)


def equalizer(f: FinFunction, g: FinFunction) -> ConeResult:
    if f.source != g.source or f.target != g.target:
        raise EndpointMismatch("equalizer needs a parallel pair")
    kept = tuple(x for x in f.source.elements if f(x) == g(x))
    apex = FinSetRep(f"eq({f.source.name})", kept)
    inc = FinFunction(apex, f.source, {x: x for x in kept})
    return ConeResult(apex, {0: inc})


def coequalizer(f: FinFunction, g: FinFunction) -> ConeResult:
    if f.source != g.source or f.target != g.target:
        raise EndpointMismatch("coequalizer needs a parallel pair")
    classes = _quotient(
        list(f.target.elements), [(f(x), g(x)) for x in f.source.elements]
    )
    apex = FinSetRep(
        f"coeq({f.target.name})", tuple(sorted(set(classes.values())))
    )
    proj = FinFunction(f.target, apex, classes)
    return ConeResult(apex, {0: proj})


def limit(d: Diagram) -> ConeResult:
    """Universal cone, as the equalizer of the two parallel maps
    ∏_Y F(Y) ⇉ ∏_f F(cod f)."""
    objs = d.shape.objects
    obj_prod = product([d.values[y] for y in objs])
    mors = [m for m in d.shape.morphisms]
    mor_prod = product([d.values[m.dst] for m in mors])

    def to_mor_tuple(elem: str, component) -> str:
        return tuple_token([component(m, k) for k, m in enumerate(mors)])

    def side_one(elem: str) -> str:
        # component at f is F(f) applied to the dom(f) coordinate
        return to_mor_tuple(
            elem,
            lambda m, k: d.arrows[m.name](obj_prod.legs[objs.index(m.src)](elem)),
        )

    def side_two(elem: str) -> str:
        # component at f is the cod(f) coordinate, untouched
        return to_mor_tuple(
            elem, lambda m, k: obj_prod.legs[objs.index(m.dst)](elem)
        )

    s = FinFunction(
        obj_prod.apex, mor_prod.apex, {e: side_one(e) for e in obj_prod.apex.elements}
    )
    t = FinFunction(
        obj_prod.apex, mor_prod.apex, {e: side_two(e) for e in obj_prod.apex.elements}
    )
    eq = equalizer(s, t)
    legs = {
        y: eq.legs[0].then(obj_prod.legs[k]) for k, y in enumerate(objs)
    }
    apex = FinSetRep(f"lim({obj_prod.apex.name})", eq.apex.elements)
    legs = {
        y: FinFunction(apex, d.values[y], dict(fn.mapping)) for y, fn in legs.items()
    }
    return ConeResult(apex, legs)


def _tagged(obj: str, elem: str) -> str:
    return f"{obj}:{elem}"


def colimit(d: Diagram) -> ConeResult:
    """Disjoint union of the values, quotiented by x ~ F(f)(x)."""
    elements = [
        _tagged(y, e) for y in d.shape.objects for e in d.values[y].elements
    ]
    pairs = []
    for m in d.shape.morphisms:
        for e in d.values[m.src].elements:
            pairs.append((_tagged(m.src, e), _tagged(m.dst, d.arrows[m.name](e))))
    classes = _quotient(elements, pairs)
    apex = FinSetRep("colim", tuple(sorted(set(classes.values()))))
    legs = {
        y: FinFunction(
            d.values[y],
            apex,
            {e: classes[_tagged(y, e)] for e in d.values[y].elements},
        )
        for y in d.shape.objects
    }
    return ConeResult(apex, legs)


def cospan_shape() -> FinCategory:
    l = Mor("l", "L", "M")
    r = Mor("r", "R", "M")
    ids = [Mor("id_L", "L", "L"), Mor("id_R", "R", "R"), Mor("id_M", "M", "M")]
    table = {}
    for m in [l, r] + ids:
        table[(m.name, f"id_{m.src}")] = m.name
        table[(f"id_{m.dst}", m.name)] = m.name
    return FinCategory(
        ["L", "R", "M"], [l, r] + ids, table, {"L": "id_L", "R": "id_R", "M": "id_M"}
    )


def span_shape() -> FinCategory:
    return opposite(cospan_shape())


def pullback(f: FinFunction, g: FinFunction) -> ConeResult:
    """Limit over the cospan ``f: L→M ← R :g``; legs keyed 'L' and 'R'.

    The generic computation is cross-checked against the direct formula
    {(x, x') : f(x) = g(x')} before returning.
    """
    if f.target != g.target:
        raise EndpointMismatch("pullback needs a common target")
    shape = cospan_shape()
    d = Diagram(
        shape,
        {"L": f.source, "R": g.source, "M": f.target},
        {
            "l": f,
            "r": g,
            "id_L": identity_function(f.source),
            "id_R": identity_function(g.source),
            "id_M": identity_function(f.target),
        },
    )
    cone = limit(d)
    direct = {
        (x, y)
        for x in f.source.elements
        for y in g.source.elements
        if f(x) == g(y)
    }
    via_legs = {
        (cone.legs["L"](e), cone.legs["R"](e)) for e in cone.apex.elements
    }
    if direct != via_legs or len(cone.apex.elements) != len(direct):
        raise EngineError("pullback disagrees with the direct formula")
    return ConeResult(cone.apex, {"L": cone.legs["L"], "R": cone.legs["R"]})


def pushout(f: FinFunction, g: FinFunction) -> ConeResult:
    """Colimit over the span ``L ← M → R``; cross-checked against the
    direct disjoint-union-then-glue formula."""
    if f.source != g.source:
        raise EndpointMismatch("pushout needs a common source")
    shape = span_shape()
    d = Diagram(
        shape,
        {"L": f.target, "R": g.target, "M": f.source},
        {
            "l": f,
            "r": g,
            "id_L": identity_function(f.target),
            "id_R": identity_function(g.target),
            "id_M": identity_function(f.source),
        },
    )
    cone = colimit(d)
    elements = [_tagged("L", e) for e in f.target.elements] + [
        _tagged("R", e) for e in g.target.elements
    ]
    classes = _quotient(
        elements,
        [(_tagged("L", f(w)), _tagged("R", g(w))) for w in f.source.elements],
    )
    if len(set(classes.values())) != len(cone.apex.elements):
        raise EngineError("pushout disagrees with the direct formula")
    return ConeResult(cone.apex, {"L": cone.legs["L"], "R": cone.legs["R"]})


# -- ends and coends ----------------------------------------------------


@dataclass
class Bifunctor:
    """A functor C^op × C → Set given by tables.

    ``values[(x, y)]`` is H(x, y); ``actions[(f, g)]`` is the map
    H(dst f, src g) → H(src f, dst g), contravariant in the first slot.
    """

    shape: FinCategory
    values: dict[tuple[str, str], FinSetRep]
    actions: dict[tuple[str, str], FinFunction]

    def value(self, x: str, y: str) -> FinSetRep:
        return self.values[(x, y)]

    def action(self, f: str, g: str) -> FinFunction:
        return self.actions[(f, g)]

    def validate(self) -> None:
        c = self.shape
        for x in c.objects:
            for y in c.objects:
                if (x, y) not in self.values:
                    raise SchemaError(f"no value at ({x!r},{y!r})")
        for f in c.morphisms:
            for g in c.morphisms:
                fn = self.actions.get((f.name, g.name))
                if fn is None:
                    raise SchemaError(f"no action at ({f.name!r},{g.name!r})")
                if fn.source != self.values[(f.dst, g.src)] or fn.target != self.values[
                    (f.src, g.dst)
                ]:
                    raise EndpointMismatch(
                        f"action at ({f.name!r},{g.name!r}) has wrong endpoints"
                    )
        for x in c.objects:
            for y in c.objects:
                idx, idy = c.identity[x], c.identity[y]
                if self.actions[(idx, idy)].mapping != identity_function(
                    self.values[(x, y)]
                ).mapping:
                    raise InvalidStructure(
                        f"action at identities of ({x!r},{y!r}) not id"
                    )
        for f2, f1 in c.composable_pairs():  # f2∘f1 in the contravariant slot
            for g2, g1 in c.composable_pairs():
                lhs = self.actions[(c.compose(f2, f1), c.compose(g2, g1))]
                rhs = self.actions[(f2, g1)].then(self.actions[(f1, g2)])
                if lhs.mapping != rhs.mapping:
                    raise InvalidStructure(
                        f"mixed functoriality fails at ({f2!r}∘{f1!r}, {g2!r}∘{g1!r})"
                    )


def nat_trans_bifunctor(f: FinFunctor, g: FinFunctor) -> Bifunctor:
    """H(x, y) = Mor_D(F(x); G(y)), whose end is the set Nat(F; G)."""
    c, d = f.source, f.target
    values = {
        (x, y): FinSetRep(
            f"Mor({f.on_obj(x)};{g.on_obj(y)})",
            tuple(d.hom(f.on_obj(x), g.on_obj(y))),
        )
        for x in c.objects
        for y in c.objects
    }
    actions = {}
    for a in c.morphisms:
        for b in c.morphisms:
            source = values[(a.dst, b.src)]
            target = values[(a.src, b.dst)]
            mapping = {
                h: d.compose(g.on_mor(b.name), d.compose(h, f.on_mor(a.name)))
                for h in source.elements
            }
            actions[(a.name, b.name)] = FinFunction(source, target, mapping)
    return Bifunctor(c, values, actions)


def end_cone(h: Bifunctor) -> ConeResult:
    """End as the equalizer of ∏_X H(X,X) ⇉ ∏_f H(dom f, cod f)."""
    c = h.shape
    objs = c.objects
    diag_prod = product([h.value(x, x) for x in objs])
    mors = list(c.morphisms)
    mor_prod = product([h.value(m.src, m.dst) for m in mors])

    def build(side) -> FinFunction:
        mapping = {}
        for e in diag_prod.apex.elements:
            mapping[e] = tuple_token([side(e, m) for m in mors])
        return FinFunction(diag_prod.apex, mor_prod.apex, mapping)

    s = build(
        lambda e, m: h.action(c.identity[m.src], m.name)(
            diag_prod.legs[objs.index(m.src)](e)
        )
    )
    t = build(
        lambda e, m: h.action(m.name, c.identity[m.dst])(
            diag_prod.legs[objs.index(m.dst)](e)
        )
    )
    eq = equalizer(s, t)
    apex = FinSetRep("end", eq.apex.elements)
    legs = {
        x: FinFunction(
            apex,
            h.value(x, x),
            {e: diag_prod.legs[k](e) for e in apex.elements},
        )
        for k, x in enumerate(objs)
    }
    return ConeResult(apex, legs)


def end(h: Bifunctor) -> FinSetRep:
    return end_cone(h).apex


def coend_cocone(h: Bifunctor) -> ConeResult:
    """Coend as ∐_X H(X,X) quotiented by H(f,id)(w) ~ H(id,f)(w)."""
    c = h.shape
    elements = [
        _tagged(x, e) for x in c.objects for e in h.value(x, x).elements
    ]
    pairs = []
    for m in c.morphisms:
        for w in h.value(m.dst, m.src).elements:
            left = h.action(m.name, c.identity[m.src])(w)  # in H(src, src)
            right = h.action(c.identity[m.dst], m.name)(w)  # in H(dst, dst)
            pairs.append((_tagged(m.src, left), _tagged(m.dst, right)))
    classes = _quotient(elements, pairs)
    apex = FinSetRep("coend", tuple(sorted(set(classes.values()))))
    legs = {
        x: FinFunction(
            h.value(x, x),
            apex,
            {e: classes[_tagged(x, e)] for e in h.value(x, x).elements},
        )
        for x in c.objects
    }
    return ConeResult(apex, legs)


def coend(h: Bifunctor) -> FinSetRep:
    return coend_cocone(h).apex


# -- natural transformations between diagrams ---------------------------


def diagram_nat_trans(
    f: Diagram, g: Diagram, budget: int = DEFAULT_FUNCTOR_BUDGET
) -> list[dict[str, FinFunction]]:
    """All natural transformations between two set-valued diagrams that
    share a shape, as dicts object → component function."""
    if f.shape.objects != g.shape.objects:
        raise EndpointMismatch("diagrams do not share a shape")
    meter = Budget(budget)
    per_object = []
    for x in f.shape.objects:
        dom, cod = f.values[x], g.values[x]
        fns = []
        for images in itertools.product(cod.elements, repeat=len(dom.elements)):
            fns.append(
                FinFunction(dom, cod, dict(zip(dom.elements, images)))
            )
        per_object.append((x, fns))
    found = []
    for combo in itertools.product(*(fns for _, fns in per_object)):
        meter.charge(1, "natural transformation enumeration")
        comp = {x: fn for (x, _), fn in zip(per_object, combo)}
        ok = True
        for m in f.shape.morphisms:
            lhs = f.arrows[m.name].then(comp[m.dst])
            rhs = comp[m.src].then(g.arrows[m.name])
            if lhs.mapping != rhs.mapping:
                ok = False
                break
        if ok:
            found.append(comp)
    return found


def serialize_components(components: dict[str, FinFunction]) -> str:
    parts = []
    for x in sorted(components):
        fn = components[x]
        inner = ",".join(f"{k}>{fn.mapping[k]}" for k in fn.source.elements)
        parts.append(f"{x}[{inner}]")
    return ";".join(parts)


# -- Kan extensions ------------------------------------------------------


def restrict_diagram(g: Diagram, i: FinFunctor) -> Diagram:
    """Precompose a diagram over i's target with i."""
    return Diagram(
        i.source,
        {y: g.values[i.on_obj(y)] for y in i.source.objects},
        {a.name: g.arrows[i.on_mor(a.name)] for a in i.source.morphisms},
    )


def lan(f: Diagram, i: FinFunctor) -> tuple[Diagram, dict[str, FinFunction]]:
    """Left Kan extension of ``f`` along ``i``, computed pointwise as the
    coend ∐_Y Mor(i(Y); X) · F(Y) modulo the usual gluing, together with
    the unit F(Y) → L(i(Y))."""
    a_cat, c_cat = i.source, i.target
    if f.shape.objects != a_cat.objects:
        raise EndpointMismatch("diagram shape must be the functor's source")

    def tag(y: str, m: str, e: str) -> str:
        return f"{y}|{m}|{e}"

    pointwise_classes: dict[str, dict[str, str]] = {}
    values: dict[str, FinSetRep] = {}
    for x in c_cat.objects:
        elements = [
            tag(y, m, e)
            for y in a_cat.objects
            for m in c_cat.hom(i.on_obj(y), x)
            for e in f.values[y].elements
        ]
        pairs = []
        for a in a_cat.morphisms:  # a: Y -> Z
            for m in c_cat.hom(i.on_obj(a.dst), x):
                pre = c_cat.compose(m, i.on_mor(a.name))
                for e in f.values[a.src].elements:
                    pairs.append(
                        (tag(a.src, pre, e), tag(a.dst, m, f.arrows[a.name](e)))
                    )
        classes = _quotient(elements, pairs)
        pointwise_classes[x] = classes
        values[x] = FinSetRep(f"Lan({x})", tuple(sorted(set(classes.values()))))

    arrows = {}
    for g in c_cat.morphisms:  # g: X -> X'
        mapping = {}
        src_classes = pointwise_classes[g.src]
        dst_classes = pointwise_classes[g.dst]
        for rep in values[g.src].elements:
            y, m, e = rep.split("|", 2)
            mapping[rep] = dst_classes[tag(y, c_cat.compose(g.name, m), e)]
        arrows[g.name] = FinFunction(values[g.src], values[g.dst], mapping)
    result = Diagram(c_cat, values, arrows)
    result.validate()

    unit = {}
    for y in a_cat.objects:
        x = i.on_obj(y)
        unit[y] = FinFunction(
            f.values[y],
            values[x],
            {
                e: pointwise_classes[x][tag(y, c_cat.identity[x], e)]
                for e in f.values[y].elements
            },
        )
    return result, unit


def ran(f: Diagram, i: FinFunctor) -> Diagram:
    """Right Kan extension, pointwise as the end of powers
    ∏_Y F(Y)^{Mor(X; i(Y))} cut down to the compatible families."""
    a_cat, c_cat = i.source, i.target
    if f.shape.objects != a_cat.objects:
        raise EndpointMismatch("diagram shape must be the functor's source")

    def family_token(fam: dict[str, dict[str, str]]) -> str:
        parts = []
        for y in a_cat.objects:
            inner = ",".join(f"{m}>{v}" for m, v in sorted(fam[y].items()))
            parts.append(f"{y}{{{inner}}}")
        return ";".join(parts)

    pointwise: dict[str, list[dict]] = {}
    values: dict[str, FinSetRep] = {}
    for x in c_cat.objects:
        choices = []
        for y in a_cat.objects:
            homset = c_cat.hom(x, i.on_obj(y))
            fy = f.values[y].elements
            funcs = [
                dict(zip(homset, images))
                for images in itertools.product(fy, repeat=len(homset))
            ]
            choices.append(funcs)
        families = []
        for combo in itertools.product(*choices):
            fam = dict(zip(a_cat.objects, combo))
            ok = True
            for a in a_cat.morphisms:  # a: Y -> Z; need F(a)∘φ_Y = φ_Z∘(i(a)∘-)
                for m in c_cat.hom(x, i.on_obj(a.src)):
                    lhs = f.arrows[a.name](fam[a.src][m])
                    rhs = fam[a.dst][c_cat.compose(i.on_mor(a.name), m)]
                    if lhs != rhs:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                families.append(fam)
        pointwise[x] = families
        values[x] = FinSetRep(
            f"Ran({x})", tuple(family_token(fam) for fam in families)
        )

    token_index = {
        x: {family_token(fam): fam for fam in pointwise[x]} for x in c_cat.objects
    }
    arrows = {}
    for g in c_cat.morphisms:  # g: X -> X'
        mapping = {}
        for tok in values[g.src].elements:
            fam = token_index[g.src][tok]
            moved = {
                y: {
                    m: fam[y][c_cat.compose(m, g.name)]
                    for m in c_cat.hom(g.dst, i.on_obj(y))
                }
                for y in a_cat.objects
            }
            mapping[tok] = family_token(moved)
        arrows[g.name] = FinFunction(values[g.src], values[g.dst], mapping)
    result = Diagram(c_cat, values, arrows)
    result.validate()
    return result


def _singleton_diagram(shape: FinCategory, size: int, label: str) -> Diagram:
    s = FinSetRep(label, tuple(f"{label}{k}" for k in range(size)))
    return constant_diagram(shape, s)


def kan_test_functors(c: FinCategory, l: Diagram, f: Diagram, i: FinFunctor):
    """Deterministic family of test functors used by the universality check."""
    from .fincat import hom_functor

    family = [("constant-1", _singleton_diagram(c, 1, "t")),
              ("constant-2", _singleton_diagram(c, 2, "u"))]
    for x in c.objects:
        family.append((f"representable-{x}", hom_functor(c, x, "co")))
    family.append(("candidate-itself", l))
    family.append(("pointwise-coend", lan(f, i)[0]))
    return family


def check_kan_universal(l: Diagram, f: Diagram, i: FinFunctor) -> dict:
    """Decide whether ``l`` is a left Kan extension of ``f`` along ``i``.

    Searches for a unit u: F ⇒ L∘i through which composition induces a
    bijection Nat(L; G) ≅ Nat(F; G∘i) for every test functor G.  Raises
    :class:`NotUniversal` with the witness functor when no unit works.
    """
    restricted = restrict_diagram(l, i)
    candidates = diagram_nat_trans(f, restricted)
    if not candidates:
        raise NotUniversal(
            "no natural transformation F ⇒ L∘i exists at all", witness="unit"
        )
    survivors = list(range(len(candidates)))
    report = {}
    for gname, g in kan_test_functors(l.shape, l, f, i):
        nat_l = diagram_nat_trans(l, g)
        nat_f = diagram_nat_trans(f, restrict_diagram(g, i))
        keys_f = {serialize_components(nt) for nt in nat_f}
        still = []
        for idx in survivors:
            u = candidates[idx]
            images = set()
            ok = True
            for xi in nat_l:
                induced = {
                    y: u[y].then(xi[i.on_obj(y)]) for y in i.source.objects
                }
                key = serialize_components(induced)
                if key in images or key not in keys_f:
                    ok = False
                    break
                images.add(key)
            if ok and len(images) == len(keys_f):
                still.append(idx)
        survivors = still
        report[gname] = {"nat_l": len(nat_l), "nat_f": len(nat_f)}
        if not survivors:
            raise NotUniversal(
                f"no unit induces a bijection for test functor {gname!r}",
                witness=gname,
                counts=report[gname],
            )
    return {"unit": serialize_components(candidates[survivors[0]]), "tests": report}


# -- JSON ----------------------------------------------------------------


def diagram_from_json(raw: dict) -> Diagram:
    from .fincat import validate_category

    if not isinstance(raw, dict):
        raise SchemaError("diagram payload must be an object")
    for key in raw:
        if key not in {"v", "shape", "sets", "functions"}:
            raise SchemaError(f"unknown field {key!r} in diagram file")
    shape = validate_category(raw.get("shape", {}))
    sets = raw.get("sets", {})
    functions = raw.get("functions", {})
    values = {}
    for x in shape.objects:
        if x not in sets:
            raise SchemaError(f"no set listed for object {x!r}")
        values[x] = FinSetRep(x, tuple(sets[x]))
    arrows = {}
    for m in shape.morphisms:
        if shape.is_identity(m.name):
            arrows[m.name] = identity_function(values[m.src])
            continue
        table = functions.get(m.name)
        if table is None:
            raise SchemaError(f"no function listed for morphism {m.name!r}")
        arrows[m.name] = FinFunction(values[m.src], values[m.dst], dict(table))
    d = Diagram(shape, values, arrows)
    d.validate()
    return d


def bifunctor_from_json(raw: dict) -> Bifunctor:
    """Bifunctor file: nested tables ``sets[x][y]`` and
    ``functions[f][g]`` over a single shape category."""
    from .fincat import validate_category

    if not isinstance(raw, dict):
        raise SchemaError("bifunctor payload must be an object")
    for key in raw:
        if key not in {"v", "shape", "sets", "functions"}:
            raise SchemaError(f"unknown field {key!r} in bifunctor file")
    shape = validate_category(raw.get("shape", {}))
    sets = raw.get("sets", {})
    functions = raw.get("functions", {})
    values = {}
    for x in shape.objects:
        for y in shape.objects:
            try:
                listed = sets[x][y]
            except (KeyError, TypeError):
                raise SchemaError(f"no set listed at ({x!r},{y!r})")
            values[(x, y)] = FinSetRep(f"H({x},{y})", tuple(listed))
    actions = {}
    for f in shape.morphisms:
        for g in shape.morphisms:
            source = values[(f.dst, g.src)]
            target = values[(f.src, g.dst)]
            if shape.is_identity(f.name) and shape.is_identity(g.name):
                default = identity_function(source).mapping if source == target else None
            else:
                default = None
            try:
                table = functions[f.name][g.name]
            except (KeyError, TypeError):
                if default is None:
                    raise SchemaError(
                        f"no action listed at ({f.name!r},{g.name!r})"
                    )
                table = default
            actions[(f.name, g.name)] = FinFunction(source, target, dict(table))
    h = Bifunctor(shape, values, actions)
    h.validate()
    return h


def diagram_to_json(d: Diagram) -> dict:
    return {
        "v": 1,
        "shape": d.shape.to_json_dict(),
        "sets": {x: list(d.values[x].elements) for x in d.shape.objects},
        "functions": {
            m.name: dict(d.arrows[m.name].mapping)
            for m in d.shape.morphisms
            if not d.shape.is_identity(m.name)
        },
    }


def cone_to_json(cone: ConeResult) -> dict:
    return {
        "v": 1,
        "apex": list(cone.apex.elements),
        "legs": {
            str(k): {x: fn.mapping[x] for x in fn.source.elements}
            for k, fn in sorted(cone.legs.items(), key=lambda kv: str(kv[0]))
        },
    }
