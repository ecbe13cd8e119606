"""Finite categories with explicit composition tables.

A category is stored as a total lookup structure: every composable pair has
its composite recorded, so composition is O(1) and no word problem arises.
Identities are synthesized with reserved ``id_<object>`` names.  A category
given by letters and relations (C[W⁻¹], a group) is made explicit by coset
enumeration, :func:`hom_tables`, which ends exactly when it is finite.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import (
    BadEndpoints,
    Budget,
    CapExceeded,
    DEFAULT_FUNCTOR_BUDGET,
    DuplicateName,
    EndpointMismatch,
    MissingComposite,
    NonAssociative,
    NotBijective,
    SchemaError,
    UnknownObject,
)


@dataclass(frozen=True)
class Mor:
    name: str
    src: str
    dst: str


@dataclass
class FinCategory:
    """Objects, named morphisms, and a total composition table.

    ``compose_table[(g, f)] = g∘f`` is defined exactly when dst(f) = src(g).
    Input order of objects and morphisms is preserved and fixes every
    iteration order, so all derived output is deterministic.
    """

    objects: list[str]
    morphisms: list[Mor]
    compose_table: dict[tuple[str, str], str]
    identity: dict[str, str]
    _mor_by_name: dict[str, Mor] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if not self._mor_by_name:
            self._mor_by_name = {m.name: m for m in self.morphisms}
        self._hom: dict[tuple[str, str], list[str]] = {}
        for m in self.morphisms:
            self._hom.setdefault((m.src, m.dst), []).append(m.name)

    # -- basic queries ----------------------------------------------------

    def mor(self, name: str) -> Mor:
        return self._mor_by_name[name]

    def src(self, name: str) -> str:
        return self._mor_by_name[name].src

    def dst(self, name: str) -> str:
        return self._mor_by_name[name].dst

    def compose(self, g: str, f: str) -> str:
        """Return g∘f; raises KeyError if the pair is not composable."""
        return self.compose_table[(g, f)]

    def is_identity(self, name: str) -> bool:
        m = self._mor_by_name[name]
        return self.identity.get(m.src) == name

    def hom(self, x: str, y: str) -> list[str]:
        """Morphisms x → y in input order, as a fresh list."""
        return list(self._hom.get((x, y), ()))

    def composable_pairs(self):
        """Yield (g, f) with dst(f) = src(g), in deterministic order."""
        for g in self.morphisms:
            for f in self.morphisms:
                if f.dst == g.src:
                    yield g.name, f.name

    def inverse(self, name: str) -> str | None:
        """Two-sided inverse of the morphism, or None."""
        m = self._mor_by_name[name]
        for g in self.hom(m.dst, m.src):
            if (
                self.compose(g, name) == self.identity[m.src]
                and self.compose(name, g) == self.identity[m.dst]
            ):
                return g
        return None

    def is_iso(self, name: str) -> bool:
        return self.inverse(name) is not None

    def validate(self) -> None:
        """Re-check every category invariant; raises on violation."""
        seen = set()
        for name in self.objects:
            if name in seen:
                raise DuplicateName(f"duplicate object {name!r}", name=name)
            seen.add(name)
        seen = set()
        for m in self.morphisms:
            if m.name in seen:
                raise DuplicateName(f"duplicate morphism {m.name!r}", name=m.name)
            seen.add(m.name)
            if m.src not in self.objects or m.dst not in self.objects:
                raise BadEndpoints(
                    f"morphism {m.name!r} has unknown endpoint", name=m.name
                )
        for x in self.objects:
            i = self.identity.get(x)
            if i is None or i not in self._mor_by_name:
                raise MissingComposite(f"object {x!r} has no identity", object=x)
            if self.src(i) != x or self.dst(i) != x:
                raise BadEndpoints(f"identity of {x!r} is not an endomorphism", object=x)
        for g, f in self.composable_pairs():
            h = self.compose_table.get((g, f))
            if h is None:
                raise MissingComposite(
                    f"no composite assigned for {g!r}∘{f!r}", g=g, f=f
                )
            if self.src(h) != self.src(f) or self.dst(h) != self.dst(g):
                raise BadEndpoints(
                    f"composite {g!r}∘{f!r}={h!r} has wrong endpoints", g=g, f=f, h=h
                )
        for (g, f), h in self.compose_table.items():
            if self.dst(f) != self.src(g):
                raise BadEndpoints(
                    f"composite recorded for non-composable pair ({g!r},{f!r})", g=g, f=f
                )
        for m in self.morphisms:
            if self.compose(m.name, self.identity[m.src]) != m.name:
                raise NonAssociative(
                    f"{m.name!r}∘id != {m.name!r}", witness=[m.name, self.identity[m.src]]
                )
            if self.compose(self.identity[m.dst], m.name) != m.name:
                raise NonAssociative(
                    f"id∘{m.name!r} != {m.name!r}", witness=[self.identity[m.dst], m.name]
                )
        for h in self.morphisms:
            for g in self.morphisms:
                if g.dst != h.src:
                    continue
                for f in self.morphisms:
                    if f.dst != g.src:
                        continue
                    left = self.compose(self.compose(h.name, g.name), f.name)
                    right = self.compose(h.name, self.compose(g.name, f.name))
                    if left != right:
                        raise NonAssociative(
                            "associativity fails",
                            witness=[h.name, g.name, f.name],
                            left=left,
                            right=right,
                        )

    def to_json_dict(self) -> dict:
        """Category file payload; identities and their composites are omitted.

        Identities may carry arbitrary names internally (product pairs,
        localization classes); composites that land on an identity are
        written under the loader's synthesized ``id_<object>`` name.
        """
        return {
            "v": 1,
            "objects": list(self.objects),
            "morphisms": [
                {"name": m.name, "src": m.src, "dst": m.dst}
                for m in self.morphisms
                if not self.is_identity(m.name)
            ],
            "compose": sorted(
                [g, f, f"id_{self.src(f)}" if self.is_identity(h) else h]
                for (g, f), h in self.compose_table.items()
                if not self.is_identity(g) and not self.is_identity(f)
            ),
        }


def validate_category(raw: dict) -> FinCategory:
    """Build a :class:`FinCategory` from a category file payload.

    The payload lists objects, morphisms with endpoints, and composite
    assignments ``[g, f, h]`` meaning g∘f = h.  Identities are synthesized
    (reserved ``id_`` prefix) and their composites filled in; any other
    composable pair must be listed explicitly.
    """
    if not isinstance(raw, dict):
        raise SchemaError("category payload must be an object")
    for key in raw:
        if key not in {"v", "objects", "morphisms", "compose"}:
            raise SchemaError(f"unknown field {key!r} in category payload")
    objects = raw.get("objects")
    morphisms = raw.get("morphisms", [])
    compose = raw.get("compose", [])
    if not isinstance(objects, list) or not all(isinstance(o, str) for o in objects):
        raise SchemaError("'objects' must be a list of strings")
    if len(set(objects)) != len(objects):
        dup = next(o for o in objects if objects.count(o) > 1)
        raise DuplicateName(f"duplicate object {dup!r}", name=dup)

    mors: list[Mor] = []
    names: set[str] = set()
    for entry in morphisms:
        if not isinstance(entry, dict) or not {"name", "src", "dst"} <= set(entry):
            raise SchemaError("each morphism needs 'name', 'src' and 'dst'")
        name, src, dst = entry["name"], entry["src"], entry["dst"]
        if name.startswith("id_"):
            raise DuplicateName(
                f"morphism name {name!r} uses the reserved 'id_' prefix", name=name
            )
        if name in names:
            raise DuplicateName(f"duplicate morphism {name!r}", name=name)
        if src not in objects or dst not in objects:
            raise BadEndpoints(f"morphism {name!r} has unknown endpoint", name=name)
        names.add(name)
        mors.append(Mor(name, src, dst))

    identity = {}
    for x in objects:
        iname = f"id_{x}"
        if iname in names:
            raise DuplicateName(f"name {iname!r} collides with an identity", name=iname)
        identity[x] = iname
        mors.append(Mor(iname, x, x))

    by_name = {m.name: m for m in mors}
    table: dict[tuple[str, str], str] = {}
    for entry in compose:
        if not (isinstance(entry, list) and len(entry) == 3):
            raise SchemaError("each 'compose' entry must be a [g, f, h] triple")
        g, f, h = entry
        for n in (g, f, h):
            if n not in by_name:
                raise BadEndpoints(f"unknown morphism {n!r} in compose table", name=n)
        if by_name[f].dst != by_name[g].src:
            raise BadEndpoints(f"pair ({g!r},{f!r}) is not composable", g=g, f=f)
        if by_name[h].src != by_name[f].src or by_name[h].dst != by_name[g].dst:
            raise BadEndpoints(
                f"composite {g!r}∘{f!r}={h!r} has wrong endpoints", g=g, f=f, h=h
            )
        if (g, f) in table and table[(g, f)] != h:
            raise DuplicateName(f"conflicting composites for ({g!r},{f!r})", g=g, f=f)
        table[(g, f)] = h

    # Identity composites are derivable; synthesize rather than demand them.
    for m in mors:
        table[(m.name, identity[m.src])] = m.name
        table[(identity[m.dst], m.name)] = m.name

    cat = FinCategory(list(objects), mors, table, identity)
    cat.validate()
    return cat


def opposite(cat: FinCategory) -> FinCategory:
    """Reverse every morphism; names are kept, so the op is an involution."""
    mors = [Mor(m.name, m.dst, m.src) for m in cat.morphisms]
    table = {(f, g): h for (g, f), h in cat.compose_table.items()}
    return FinCategory(list(cat.objects), mors, table, dict(cat.identity))


def join_names(keys, sep: str, open: str = "", close: str = "") -> dict:
    """Name distinct tuples of strings, as a dict key → name.

    A key is named ``open + sep.join(key) + close``.  If two keys would get
    the same name, every part of every key is escaped instead: a backslash
    goes in front of each backslash and each character of ``sep``, ``open``
    and ``close``.  The escaped names are injective (an unescaped ``sep``
    ends a part), apart from ``()`` beside ``("",)``.  Without a collision
    the names are the plain joins, byte for byte, so the order of names and
    the least name of a class stay as they were.
    """
    names = {key: open + sep.join(key) + close for key in keys}
    if len(set(names.values())) < len(names):
        escape = str.maketrans({c: "\\" + c for c in "\\" + sep + open + close})
        names = {
            key: open + sep.join(part.translate(escape) for part in key) + close
            for key in names
        }
    return names


def join_families(families: list, open: str, close: str) -> dict:
    """Name distinct families ``((o, ((k, v), ...)), ...)`` ``o{k>v,...};...``,
    with ``open`` and ``close`` for the braces, as a dict family → name.

    Each level (the ``k>v`` pairs, their ``,``-joins, the blocks, the
    ``;``-join) is one :func:`join_names` call over the names of the level
    below, so the names are injective and a level stays plain unless its
    own names clash."""
    blocks = {block for family in families for block in family}
    pair = join_names({kv for _, kvs in blocks for kv in kvs}, ">")
    row = {kvs: tuple(pair[kv] for kv in kvs) for _, kvs in blocks}
    inner = join_names(row.values(), ",")
    parts = {(o, kvs): (o, inner[row[kvs]]) for o, kvs in blocks}
    block = join_names(parts.values(), open, "", close)
    top = {family: tuple(block[parts[b]] for b in family) for family in families}
    name = join_names(top.values(), ";")
    return {family: name[t] for family, t in top.items()}


def product_category(c: FinCategory, d: FinCategory) -> FinCategory:
    """C × D.  Objects and morphisms are the pairs, in lexicographic order,
    named ``(x,y)`` by :func:`join_names`."""
    obj = join_names(itertools.product(c.objects, d.objects), ",", "(", ")")
    mor = join_names(
        ((f.name, g.name) for f in c.morphisms for g in d.morphisms), ",", "(", ")"
    )
    mors = [
        Mor(mor[f.name, g.name], obj[f.src, g.src], obj[f.dst, g.dst])
        for f in c.morphisms
        for g in d.morphisms
    ]
    table = {
        (mor[g1, g2], mor[f1, f2]): mor[h1, h2]
        for (g1, f1), h1 in c.compose_table.items()
        for (g2, f2), h2 in d.compose_table.items()
    }
    identity = {xy: mor[c.identity[x], d.identity[y]] for (x, y), xy in obj.items()}
    return FinCategory(list(obj.values()), mors, table, identity)


class UnionFind:
    """Incremental union-find with path halving.  The root of a merge is
    the lesser root, so :meth:`find` returns the least member of a class."""

    def __init__(self, elements=()):
        self.parent = {x: x for x in elements}

    def add(self, x) -> None:
        self.parent.setdefault(x, x)

    def find(self, x):
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a, b) -> None:
        parent = self.parent
        # the loop of find, inlined: union is the hot call of every quotient
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        while parent[b] != b:
            parent[b] = parent[parent[b]]
            b = parent[b]
        if a != b:
            parent[max(a, b)] = min(a, b)


def quotient(elements, pairs) -> dict:
    """Smallest equivalence on ``elements`` containing ``pairs``, sending
    each element to the least member of its class."""
    classes = UnionFind(elements)
    union = classes.union
    for a, b in pairs:
        union(a, b)
    find = classes.find
    return {x: find(x) for x in elements}


# Why a finished table is Hom(x, −).  Each coset is 0·u for the word u
# that defined it.  A merge joins the two ends of a relation traced from a
# coset, or k·a and j·a once k and j are joined, so it only joins cosets
# whose words are equal arrows of the presented category; a deduced entry
# j·b = k, for k·a = j and (a, b) = (), is such an equality too.
# Conversely each live coset has a full row and has traced every relation
# at its object to equal ends, and merges keep both facts, so the table is
# a functor to sets in which 0·u = 0·v whenever u = v.  Hence u ↦ 0·u is a
# bijection from the arrows out of x onto the live cosets.


def hom_tables(objects, ends, relations, cap: int = 20000) -> dict:
    """Todd–Coxeter enumeration of every Hom(x, −) of a presented category.

    Letter a runs from ``ends[a][0]`` to ``ends[a][1]``, and each relation
    is a pair of letter words, not both empty, with equal ends (``()`` is
    an identity).  Cosets are processed in order (HLT): a live coset
    traces both sides of every relation at its object, defining cosets as
    needed, merges the two ends, then fills its row.  Coincidences go
    through :class:`UnionFind`, whose least root keeps the older coset.
    Where the relations hold both (a, b) = () and (b, a) = (), defining
    k·a = j also deduces j·b = k.

    Returns ``{x: act}``, where coset 0 of ``act`` is id_x and
    ``act[k][a]`` is coset k followed by letter a, for every letter a
    leaving k's object.  Raises :class:`CapExceeded` with the ``cosets``
    defined and the ``object`` enumerated once more than ``cap`` cosets
    are defined over all objects.
    """
    at: dict = {x: [] for x in objects}
    for lhs, rhs in relations:
        at[ends[(lhs or rhs)[0]][0]].append((lhs, rhs))
    leaving: dict = {x: [] for x in objects}
    for a, (src, _) in enumerate(ends):
        leaving[src].append(a)
    cancels = {(lhs or rhs) for lhs, rhs in relations if not (lhs and rhs)}  # w = ()
    inverse = {w[0]: w[1] for w in cancels if len(w) == 2 and w[::-1] in cancels}
    defined = 0
    tables = {}
    for x in objects:
        rows: list[dict[int, int]] = [{}]
        obj = [x]
        classes = UnionFind([0])
        find = classes.find

        def define(k: int, a: int) -> int:
            nonlocal defined
            defined += 1
            if defined > cap:
                raise CapExceeded(
                    "coset enumeration exceeded the cap",
                    cap=cap,
                    cosets=defined,
                    object=x,
                )
            rows[k][a] = new = len(rows)
            rows.append({} if a not in inverse else {inverse[a]: k})
            obj.append(ends[a][1])
            classes.add(new)
            return new

        def trace(k: int, word) -> int:
            for a in word:
                d = rows[k].get(a)
                k = define(k, a) if d is None else find(d)
            return k

        def coincide(k: int, j: int) -> None:
            pending = [(k, j)]
            while pending:
                k, j = sorted(map(find, pending.pop()))
                if k != j:
                    classes.union(k, j)
                    row = rows[k]
                    for a, d in rows[j].items():
                        e = row.setdefault(a, d)
                        if e != d:
                            pending.append((d, e))

        defined += 1  # coset 0, id_x
        k = 0
        while k < len(rows):
            if find(k) == k:
                for lhs, rhs in at[obj[k]]:
                    coincide(trace(k, lhs), trace(k, rhs))
                    if find(k) != k:
                        break
                else:
                    for a in leaving[obj[k]]:
                        if a not in rows[k]:
                            define(k, a)
            k += 1
        live = [k for k in range(len(rows)) if find(k) == k]
        number = {k: n for n, k in enumerate(live)}
        tables[x] = [{a: number[find(d)] for a, d in rows[k].items()} for k in live]
    return tables


def least_words(act: list[dict], counted) -> dict:
    """``{coset: its least non-empty word}`` in a finished table ``act``, in
    the order (length, letters in ``counted``, letters).  That word is a
    letter after the empty word or after the least word of another coset,
    so a walk one length at a time finds it."""
    word: dict = {}
    level = {0: (0, ())}  # coset -> (letters in counted, word)
    while level:
        longer: dict[int, tuple] = {}
        for k, (weight, w) in level.items():
            for a, d in act[k].items():
                key = (weight + (a in counted), w + (a,))
                if d not in word and (d not in longer or key < longer[d]):
                    longer[d] = key
        word.update((d, w) for d, (_, w) in longer.items())
        level = longer
    return word


def follow(act: list[dict], k: int, word) -> int:
    """Coset k of the table ``act`` followed by the letters of ``word``."""
    for a in word:
        k = act[k][a]
    return k


def backtrack(keys: list, domain, consistent, meter: Budget, what: str) -> list[dict]:
    """Every assignment ``{key: value}`` of ``keys`` whose values come from
    ``domain(key, assigned)`` and pass ``consistent(key, assigned)``, where
    ``assigned`` holds the keys up to ``key``, in the lexicographic order of
    the product of the domains.  An explicit stack of value iterators, and
    one ``meter`` charge per value tried."""
    if not keys:
        return [{}]
    found, assigned = [], {}
    stack = [iter(domain(keys[0], assigned))]
    while stack:
        key = keys[len(stack) - 1]
        for value in stack[-1]:
            meter.charge(1, what)
            assigned[key] = value
            if consistent(key, assigned):
                break
        else:
            stack.pop()
            assigned.pop(key, None)
            continue
        if len(stack) == len(keys):
            found.append(dict(assigned))
        else:
            stack.append(iter(domain(keys[len(stack)], assigned)))
    return found


def at_last_key(keys: list, constraints, touched) -> dict:
    """The ``constraints``, each filed under the last of its ``touched``
    keys: the key at which :func:`backtrack` can first test it."""
    rank = {key: i for i, key in enumerate(keys)}
    at = {key: [] for key in keys}
    for constraint in constraints:
        at[max(touched(constraint), key=rank.__getitem__)].append(constraint)
    return at


def partition(elements, pairs) -> list[list]:
    """Classes of :func:`quotient`, each in element order, listed in the
    order of their first members."""
    least = quotient(elements, pairs)
    blocks: dict = {}
    for x in elements:
        blocks.setdefault(least[x], []).append(x)
    return list(blocks.values())


def iso_classes(cat: FinCategory) -> list[list[str]]:
    """Partition of the objects into isomorphism classes (input order)."""
    return partition(
        cat.objects,
        ((m.src, m.dst) for m in cat.morphisms if cat.is_iso(m.name)),
    )


@dataclass
class FinFunctor:
    source: FinCategory
    target: FinCategory
    object_map: dict[str, str]
    morphism_map: dict[str, str]

    def on_obj(self, x: str) -> str:
        return self.object_map[x]

    def on_mor(self, f: str) -> str:
        return self.morphism_map[f]

    def validate(self) -> None:
        for x in self.source.objects:
            if self.object_map.get(x) not in self.target.objects:
                raise UnknownObject(f"functor undefined or bad on object {x!r}", object=x)
        for m in self.source.morphisms:
            img = self.morphism_map.get(m.name)
            if img is None:
                raise UnknownObject(f"functor undefined on morphism {m.name!r}", name=m.name)
            if (
                self.target.src(img) != self.object_map[m.src]
                or self.target.dst(img) != self.object_map[m.dst]
            ):
                raise BadEndpoints(
                    f"functor breaks endpoints on {m.name!r}", name=m.name
                )
        for x in self.source.objects:
            if (
                self.morphism_map[self.source.identity[x]]
                != self.target.identity[self.object_map[x]]
            ):
                raise BadEndpoints(f"functor breaks the identity of {x!r}", object=x)
        for g, f in self.source.composable_pairs():
            lhs = self.morphism_map[self.source.compose(g, f)]
            rhs = self.target.compose(self.morphism_map[g], self.morphism_map[f])
            if lhs != rhs:
                raise BadEndpoints(
                    f"functor breaks composition on ({g!r},{f!r})", g=g, f=f
                )


def identity_functor(cat: FinCategory) -> FinFunctor:
    return FinFunctor(
        cat,
        cat,
        {x: x for x in cat.objects},
        {m.name: m.name for m in cat.morphisms},
    )


def compose_functors(g: FinFunctor, f: FinFunctor) -> FinFunctor:
    return FinFunctor(
        f.source,
        g.target,
        {x: g.object_map[y] for x, y in f.object_map.items()},
        {m: g.morphism_map[n] for m, n in f.morphism_map.items()},
    )


@dataclass
class NatTransformation:
    source: FinFunctor
    target: FinFunctor
    components: dict[str, str]

    def validate(self) -> None:
        f, g = self.source, self.target
        if f.source is not g.source or f.target is not g.target:
            raise EndpointMismatch("functors do not share endpoints")
        d = f.target
        for x in f.source.objects:
            comp = self.components.get(x)
            if comp is None:
                raise UnknownObject(f"no component at {x!r}", object=x)
            if d.src(comp) != f.object_map[x] or d.dst(comp) != g.object_map[x]:
                raise BadEndpoints(f"component at {x!r} has wrong endpoints", object=x)
        for m in f.source.morphisms:
            lhs = d.compose(self.components[m.dst], f.morphism_map[m.name])
            rhs = d.compose(g.morphism_map[m.name], self.components[m.src])
            if lhs != rhs:
                raise BadEndpoints(f"naturality fails at {m.name!r}", name=m.name)


def enumerate_nat_trans(f: FinFunctor, g: FinFunctor) -> list[NatTransformation]:
    """All natural transformations f ⇒ g, by :func:`backtrack` over components."""
    if f.source is not g.source and f.source.objects != g.source.objects:
        raise EndpointMismatch("functors do not share a source")
    if f.target is not g.target and f.target.objects != g.target.objects:
        raise EndpointMismatch("functors do not share a target")
    d, objects = f.target, f.source.objects
    checks = at_last_key(objects, f.source.morphisms, lambda m: (m.src, m.dst))

    def natural(x, comp):
        return all(
            d.compose(comp[m.dst], f.morphism_map[m.name])
            == d.compose(g.morphism_map[m.name], comp[m.src])
            for m in checks[x]
        )

    found = backtrack(
        objects,
        lambda x, comp: d.hom(f.object_map[x], g.object_map[x]),
        natural,
        Budget(DEFAULT_FUNCTOR_BUDGET),
        "natural transformation enumeration",
    )
    return [NatTransformation(f, g, comp) for comp in found]


def enumerate_functors(
    c: FinCategory, d: FinCategory, budget: int = DEFAULT_FUNCTOR_BUDGET
) -> list[FinFunctor]:
    """All functors c → d, by :func:`backtrack` over the object images, then
    the images of the :class:`Mor` values (never equal to an object's name);
    ``budget`` caps the values tried."""
    keys = [*c.objects, *c.morphisms]
    pairs = c.composable_pairs()
    trios = [(c.mor(g), c.mor(f), c.mor(c.compose(g, f))) for g, f in pairs]
    checks = at_last_key(keys, trios, lambda trio: trio)

    def domain(key, image):
        if isinstance(key, str):
            return d.objects
        if c.identity[key.src] == key.name:
            return (d.identity[image[key.src]],)
        return d.hom(image[key.src], image[key.dst])

    def functorial(key, image):
        return all(d.compose(image[g], image[f]) == image[h] for g, f, h in checks[key])

    found = backtrack(keys, domain, functorial, Budget(budget), "functor enumeration")
    return [
        FinFunctor(c, d, {x: a[x] for x in c.objects}, {m.name: a[m] for m in c.morphisms})
        for a in found
    ]


def functor_from_json(raw: dict) -> FinFunctor:
    """Functor file: source and target categories plus object and
    (non-identity) morphism assignments; identities are filled in."""
    if not isinstance(raw, dict):
        raise SchemaError("functor payload must be an object")
    for key in raw:
        if key not in {"v", "source", "target", "objects", "morphisms"}:
            raise SchemaError(f"unknown field {key!r} in functor file")
    source = validate_category(raw.get("source", {}))
    target = validate_category(raw.get("target", {}))
    object_map = dict(raw.get("objects", {}))
    morphism_map = dict(raw.get("morphisms", {}))
    for x in source.objects:
        if x not in object_map:
            raise SchemaError(f"functor undefined on object {x!r}")
        morphism_map.setdefault(
            source.identity[x], target.identity.get(object_map[x], "")
        )
    functor = FinFunctor(source, target, object_map, morphism_map)
    functor.validate()
    return functor


def hom_functor(cat: FinCategory, x: str, variance: str = "co"):
    """The functor Mor(x;-) (covariant) or Mor(-;x) (contravariant).

    Returned as a set-valued diagram: over ``cat`` itself for the covariant
    flavor, over ``opposite(cat)`` for the contravariant one.
    """
    from . import setcalc

    if x not in cat.objects:
        raise UnknownObject(f"unknown object {x!r}", object=x)
    if variance not in ("co", "contra"):
        raise SchemaError(f"variance must be 'co' or 'contra', got {variance!r}")
    if variance == "co":
        shape = cat
        values = {
            y: setcalc.FinSetRep(f"Mor({x};{y})", tuple(cat.hom(x, y)))
            for y in cat.objects
        }
        arrows = {}
        for m in cat.morphisms:
            mapping = {h: cat.compose(m.name, h) for h in cat.hom(x, m.src)}
            arrows[m.name] = setcalc.FinFunction(values[m.src], values[m.dst], mapping)
        return setcalc.Diagram(shape, values, arrows)
    shape = opposite(cat)
    values = {
        y: setcalc.FinSetRep(f"Mor({y};{x})", tuple(cat.hom(y, x)))
        for y in cat.objects
    }
    arrows = {}
    for m in shape.morphisms:  # m: dst -> src relative to cat
        mapping = {h: cat.compose(h, m.name) for h in cat.hom(cat.dst(m.name), x)}
        arrows[m.name] = setcalc.FinFunction(values[m.src], values[m.dst], mapping)
    return setcalc.Diagram(shape, values, arrows)


def yoneda_check(cat: FinCategory, x: str, diagram) -> dict[str, str]:
    """Verify Nat(Mor(x;-); F) → F(x), ξ ↦ ξ(x)(id_x) is a bijection.

    Returns the bijection as a dict keyed by the name that
    :func:`join_families` gives each natural transformation among them all.
    Raising :class:`NotBijective` would mean the enumeration machinery
    itself is broken.
    """
    from . import setcalc

    hx = hom_functor(cat, x, "co")
    nats = setcalc.diagram_nat_trans(hx, diagram)
    keys = [setcalc.transformation_key(nt) for nt in nats]
    names = join_families(keys, "[", "]")
    idx = cat.identity[x]
    evaluation = {names[key]: nt[x].mapping[idx] for key, nt in zip(keys, nats)}
    values = list(evaluation.values())
    if len(set(values)) != len(values) or set(values) != set(
        diagram.values[x].elements
    ):
        raise NotBijective(
            f"Yoneda evaluation at {x!r} is not bijective",
            object=x,
            image=sorted(set(values)),
            expected=sorted(diagram.values[x].elements),
        )
    return evaluation
