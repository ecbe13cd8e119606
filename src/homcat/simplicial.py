"""Dimension-bounded simplicial sets presented by nondegenerate cells.

Only nondegenerate cells are stored; every degenerate cell is a
:class:`CellRef` (a nondegenerate base plus a degeneracy word) kept in the
normal form the simplicial identities dictate: the word is strictly
decreasing outermost-first, so ``CellRef("x", (3, 1, 0))`` is s3 s1 s0 x.

The word calculus below is the engine for everything else.  Degeneracy
words in normal form biject with monotone surjections: a word uses letter
set W exactly when the corresponding surjection collapses the positions in
W.  Faces are pushed through words with the mixed identities

    d_i s_j = s_{j-1} d_i  (i < j),   d_j s_j = d_{j+1} s_j = id,
    d_i s_j = s_j d_{i-1}  (i > j+1),          s_i s_j = s_{j+1} s_i (i <= j).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import comb

from .errors import (
    BadIndices,
    Budget,
    DEFAULT_HORN_BUDGET,
    IndexOutOfRange,
    InvalidAssignment,
    InvalidStructure,
    NotAGroup,
    NotMonotone,
    SchemaError,
)
from .fincat import FinCategory, backtrack, join_names


# -- the category of finite ordinals --------------------------------------


@dataclass(frozen=True)
class DeltaMap:
    """A monotone map [domain] → [codomain], given by its value list."""

    domain: int
    codomain: int
    values: tuple[int, ...]

    def __post_init__(self):
        if len(self.values) != self.domain + 1:
            raise NotMonotone("value list has the wrong length")
        for v in self.values:
            if not 0 <= v <= self.codomain:
                raise NotMonotone(f"value {v} outside [{self.codomain}]")
        if any(a > b for a, b in zip(self.values, self.values[1:])):
            raise NotMonotone(f"values {self.values} are not monotone")

    def __call__(self, i: int) -> int:
        return self.values[i]

    def then(self, other: "DeltaMap") -> "DeltaMap":
        if self.codomain != other.domain:
            raise BadIndices("non-composable ordinal maps")
        return DeltaMap(
            self.domain, other.codomain, tuple(other(v) for v in self.values)
        )


def delta_factor(f: DeltaMap) -> tuple[DeltaMap, DeltaMap]:
    """Unique epi-mono factorization: a surjection followed by an injection."""
    image = sorted(set(f.values))
    mono = DeltaMap(len(image) - 1, f.codomain, tuple(image))
    position = {v: k for k, v in enumerate(image)}
    epi = DeltaMap(f.domain, len(image) - 1, tuple(position[v] for v in f.values))
    return epi, mono


# -- degeneracy-word calculus ---------------------------------------------


def normalize_word(letters) -> tuple[int, ...]:
    """Normal form of a degeneracy word (outermost letter first).

    Repeatedly rewrites adjacent s_i s_j with i <= j into s_{j+1} s_i,
    which strictly increases the leading letters, until the word is
    strictly decreasing.  The result is the unique admissible form.
    """
    word = list(letters)
    changed = True
    while changed:
        changed = False
        for k in range(len(word) - 1):
            i, j = word[k], word[k + 1]
            if i <= j:
                word[k], word[k + 1] = j + 1, i
                changed = True
    return tuple(word)


def word_surjection(word: tuple[int, ...], base_dim: int) -> DeltaMap:
    """The monotone surjection [base_dim + len(word)] → [base_dim]
    corresponding to precomposition by the word (outermost first)."""
    surj = DeltaMap(base_dim, base_dim, tuple(range(base_dim + 1)))
    for j in reversed(word):  # innermost degeneracy composes first
        n = surj.domain
        sigma = DeltaMap(
            n + 1, n, tuple(k if k <= j else k - 1 for k in range(n + 2))
        )
        surj = sigma.then(surj)
    return surj


def surjection_word(surj: DeltaMap) -> tuple[int, ...]:
    """Inverse of :func:`word_surjection`: collapsed positions, descending."""
    collapsed = [
        i for i in range(surj.domain) if surj.values[i] == surj.values[i + 1]
    ]
    return tuple(sorted(collapsed, reverse=True))


def face_through_word(word: tuple[int, ...], i: int):
    """Push d_i through a normal-form word.

    Returns ``(word2, j)`` where j is the face index that still has to hit
    the base cell, or ``(word2, None)`` if the face was absorbed.
    """
    out = []
    pos = 0
    for pos, j in enumerate(word):
        if i < j:
            out.append(j - 1)
            continue
        if i in (j, j + 1):
            return normalize_word(out + list(word[pos + 1:])), None
        out.append(j)
        i -= 1
    return normalize_word(out), i


# -- simplicial sets -------------------------------------------------------


@dataclass(frozen=True)
class CellRef:
    """A possibly-degenerate cell: nondegenerate base plus degeneracy word."""

    base: str
    word: tuple[int, ...] = ()

    def serialize(self) -> str:
        if not self.word:
            return self.base
        return " ".join(f"s{j}" for j in self.word) + " " + self.base


def parse_cell_ref(text: str) -> CellRef:
    """Parse "s1 s0 name": leading degeneracy tokens, then the base name.

    The base may itself contain spaces (product cells do), so tokens are
    consumed from the left only while they look like degeneracies; cell
    names may therefore not begin with such a token.
    """
    parts = text.split(" ")
    word = []
    k = 0
    while k < len(parts) - 1 and parts[k].startswith("s") and parts[k][1:].isdigit():
        word.append(int(parts[k][1:]))
        k += 1
    base = " ".join(parts[k:])
    if not base:
        raise SchemaError(f"empty cell reference in {text!r}")
    return CellRef(base, normalize_word(word))


class SimplicialSet:
    """Nondegenerate cells per dimension with face data, up to ``max_dim``."""

    def __init__(
        self,
        max_dim: int,
        cells: dict[int, list[str]],
        faces: dict[tuple[int, str], tuple[CellRef, ...]],
    ):
        self.max_dim = max_dim
        self.cells = {n: list(cells.get(n, [])) for n in range(max_dim + 1)}
        self.faces = dict(faces)
        self._base_dims = {
            name: n for n in self.cells for name in self.cells[n]
        }
        # (base, word) → the faces of that cell as (base, word) pairs
        self._face_memo: dict[tuple[str, tuple[int, ...]], tuple] = {}
        self._face_index: dict[
            tuple[int, tuple[int, ...]], dict[tuple, tuple[CellRef, ...]]
        ] = {}

    # -- structure ---------------------------------------------------------

    def ref_dim(self, ref: CellRef) -> int:
        """Dimension of a reference; the base dimension is recovered from
        the cell tables."""
        return self.base_dim(ref) + len(ref.word)

    def base_dim(self, ref: CellRef) -> int:
        dim = self._base_dims.get(ref.base)
        if dim is None:
            raise SchemaError(f"unknown base cell {ref.base!r}")
        return dim

    def face(self, ref: CellRef, i: int) -> CellRef:
        """d_i of a cell reference, in normal form."""
        dim = self.base_dim(ref) + len(ref.word)
        if dim == 0 or not 0 <= i <= dim:
            raise IndexOutOfRange(f"face index {i} out of range for dim {dim}", i=i)
        return CellRef(*self.faces_of(ref.base, ref.word)[i])

    def faces_of(self, base: str, word: tuple[int, ...]) -> tuple:
        """d_0, …, d_n of the n-cell ``word`` applied to ``base`` (a normal
        form), as plain ``(base, word)`` pairs in normal form.

        Memoized per cell and filled on first use from ``faces``; the keys
        and values are tuples of strings and ints, so a lookup hashes no
        :class:`CellRef`.
        """
        out = self._face_memo.get((base, word))
        if out is None:
            base_dim = self._base_dims[base]
            if not word:
                out = tuple([(r.base, r.word) for r in self.faces.get((base_dim, base), ())])
            else:
                pairs = []
                for i in range(base_dim + len(word) + 1):
                    word2, j = face_through_word(word, i)
                    if j is None:
                        pairs.append((base, word2))
                    else:
                        inner = self.faces[(base_dim, base)][j]
                        pairs.append((inner.base, normalize_word(word2 + inner.word)))
                out = tuple(pairs)
            self._face_memo[(base, word)] = out
        return out

    def degeneracy(self, ref: CellRef, i: int) -> CellRef:
        dim = self.base_dim(ref) + len(ref.word)
        if not 0 <= i <= dim:
            raise IndexOutOfRange(f"degeneracy index {i} out of range", i=i)
        if dim + 1 > self.max_dim:
            raise IndexOutOfRange(
                f"degeneracy would exceed the dimension bound {self.max_dim}",
                i=i,
            )
        return CellRef(ref.base, normalize_word([i] + list(ref.word)))

    def all_cells(self, n: int) -> list[CellRef]:
        """Every n-cell, degenerate ones included, in deterministic order."""
        if n < 0 or n > self.max_dim:
            return []
        out = []
        for m in range(n + 1):
            for name in self.cells[m]:
                for letters in itertools.combinations(range(n - 1, -1, -1), n - m):
                    out.append(CellRef(name, letters))
        return out

    def cells_with_faces(
        self, n: int, wanted: dict[int, CellRef]
    ) -> tuple[CellRef, ...]:
        """The n-cells z, degenerate ones included and in ``all_cells(n)``
        order, with d_i z = wanted[i] for every position i in ``wanted``.

        One exact lookup in an index keyed by (n, the sorted positions),
        which maps the faces at those positions to the matching cells; it
        is built from ``all_cells(n)`` on first use and kept.
        """
        positions = tuple(sorted(wanted))
        index = self._face_index.get((n, positions))
        if index is None:
            cells = self.all_cells(n)
            for i in positions if cells else ():
                self.face(cells[0], i)  # a position out of range raises here
            buckets: dict[tuple, list[CellRef]] = {}
            for z in cells:
                faces = self.faces_of(z.base, z.word) if positions else ()
                buckets.setdefault(tuple(faces[i] for i in positions), []).append(z)
            index = {key: tuple(zs) for key, zs in buckets.items()}
            self._face_index[(n, positions)] = index
        return index.get(tuple((wanted[i].base, wanted[i].word) for i in positions), ())

    def n_cells_total(self, n: int) -> int:
        return sum(comb(n, m) * len(self.cells[m]) for m in range(n + 1))

    def counts(self) -> tuple[int, ...]:
        return tuple(len(self.cells[n]) for n in range(self.max_dim + 1))

    def validate(self) -> None:
        names = [name for n in self.cells for name in self.cells[n]]
        if len(set(names)) != len(names):
            dup = next(n for n in names if names.count(n) > 1)
            raise SchemaError(f"cell name {dup!r} is reused across dimensions")
        for name in [name for name in names if " " in name]:
            head = name.split(" ", 1)[0]
            if head.startswith("s") and head[1:].isdigit():
                raise SchemaError(f"cell name {name!r} starts like a degeneracy token")
        base_dims = self._base_dims  # one entry per name, as names are unique
        for (n, name), refs in self.faces.items():
            if base_dims.get(name) != n:
                raise SchemaError(f"faces listed for unknown cell {name!r}")
            if len(refs) != n + 1:
                raise SchemaError(f"cell {name!r} needs {n + 1} faces")
            for ref in refs:
                word = ref.word
                # base_dim raises on an unknown base
                dim = base_dims[ref.base] if ref.base in base_dims else self.base_dim(ref)
                if dim + len(word) != n - 1:
                    raise SchemaError(f"face of {name!r} has wrong dimension")
                if word and normalize_word(word) != word:
                    raise SchemaError(f"face reference of {name!r} not normalized")
                # s_j needs a cell of dimension at least j; in a normal form
                # the outermost letter, on an (n - 2)-cell, bounds the rest
                if word and word[0] > n - 2:
                    raise SchemaError(
                        f"degeneracy in face {ref.serialize()!r} of {name!r} "
                        "is out of range"
                    )
        for n in range(1, self.max_dim + 1):
            for name in self.cells[n]:
                if (n, name) not in self.faces:
                    raise SchemaError(f"cell {name!r} has no face data")
        # simplicial identities d_i d_j = d_{j-1} d_i for i < j, off the face
        # memo (a face of an n-cell, n >= 2, has n faces: a hit is not empty)
        memo = self._face_memo
        for n in range(2, self.max_dim + 1):
            pairs = [(i, j) for j in range(1, n + 1) for i in range(j)]
            for name in self.cells[n]:
                below = [memo.get((r.base, r.word)) or self.faces_of(r.base, r.word)
                         for r in self.faces[(n, name)]]
                for i, j in pairs:
                    if below[j][i] != below[i][j - 1]:
                        raise InvalidStructure(f"simplicial identity fails on {name!r}: "
                                               f"d{i} d{j} != d{j - 1} d{i}")

    def to_json_dict(self) -> dict:
        names = [name for n in self.cells for name in self.cells[n]]
        if len(set(names)) != len(names):
            raise SchemaError("cell names collide across dimensions")
        return {
            "v": 1,
            "dim": self.max_dim,
            "cells": {str(n): list(self.cells[n]) for n in range(self.max_dim + 1)},
            "faces": {
                name: [ref.serialize() for ref in self.faces[(n, name)]]
                for n in range(1, self.max_dim + 1)
                for name in self.cells[n]
            },
        }


def simplicial_from_json(raw: dict) -> SimplicialSet:
    if not isinstance(raw, dict):
        raise SchemaError("simplicial payload must be an object")
    for key in raw:
        if key not in {"v", "dim", "cells", "faces"}:
            raise SchemaError(f"unknown field {key!r} in simplicial file")
    max_dim = raw.get("dim")
    if not isinstance(max_dim, int) or max_dim < 0:
        raise SchemaError("'dim' must be a natural number")
    cells = {}
    seen = set()
    for n in range(max_dim + 1):
        listed = raw.get("cells", {}).get(str(n), [])
        for name in listed:
            if name in seen:
                raise SchemaError(f"cell name {name!r} reused across dimensions")
            seen.add(name)
        cells[n] = list(listed)
    faces = {}
    face_data = raw.get("faces", {})
    for n in range(1, max_dim + 1):
        for name in cells[n]:
            if name not in face_data:
                raise SchemaError(f"cell {name!r} has no face list")
            faces[(n, name)] = tuple(parse_cell_ref(t) for t in face_data[name])
    x = SimplicialSet(max_dim, cells, faces)
    x.validate()
    return x


# -- standard simplices, boundaries, horns ---------------------------------


def _vertex_name(vertices: tuple[int, ...]) -> str:
    return "-".join(str(v) for v in vertices)


def _simplex_like(n: int, max_dim: int, keep) -> SimplicialSet:
    cells: dict[int, list[str]] = {m: [] for m in range(max_dim + 1)}
    faces = {}
    for m in range(min(n, max_dim) + 1):
        for vs in itertools.combinations(range(n + 1), m + 1):
            if not keep(vs):
                continue
            name = _vertex_name(vs)
            cells[m].append(name)
            if m > 0:
                faces[(m, name)] = tuple(
                    CellRef(_vertex_name(vs[:i] + vs[i + 1:]), ())
                    for i in range(m + 1)
                )
    x = SimplicialSet(max_dim, cells, faces)
    x.validate()
    return x


def standard_simplex(n: int, max_dim: int | None = None) -> SimplicialSet:
    """Δⁿ truncated at ``max_dim``: nondegenerate cells are the injective
    monotone maps into [n], i.e. the nonempty vertex subsets."""
    if max_dim is None:
        max_dim = n
    if n < 0 or max_dim < 0:
        raise BadIndices(f"bad simplex parameters n={n}, max_dim={max_dim}")
    return _simplex_like(n, max_dim, lambda vs: True)


def boundary(n: int, max_dim: int | None = None) -> SimplicialSet:
    if max_dim is None:
        max_dim = n
    if n < 1:
        raise BadIndices("the boundary needs n >= 1")
    return _simplex_like(n, max_dim, lambda vs: len(vs) < n + 1)


def horn(n: int, k: int, max_dim: int | None = None) -> SimplicialSet:
    """Λⁿₖ: keep the cells whose vertex set misses some vertex other than k."""
    if max_dim is None:
        max_dim = n
    if not 0 <= k <= n or n < 1:
        raise BadIndices(f"bad horn indices n={n}, k={k}", n=n, k=k)
    full = set(range(n + 1))
    return _simplex_like(
        n, max_dim, lambda vs: bool(full - set(vs) - {k})
    )


# -- simplicial maps --------------------------------------------------------


@dataclass
class SimplicialMap:
    source: SimplicialSet
    target: SimplicialSet
    cell_map: dict[tuple[int, str], CellRef]

    def apply(self, ref: CellRef) -> CellRef:
        """Image of an arbitrary cell reference, in normal form."""
        image = self.cell_map[(self.source.base_dim(ref), ref.base)]
        return CellRef(
            image.base, normalize_word(list(ref.word) + list(image.word))
        )

    def validate(self) -> None:
        for n in range(self.source.max_dim + 1):
            for name in self.source.cells[n]:
                image = self.cell_map.get((n, name))
                if image is None:
                    raise SchemaError(f"map undefined on cell {name!r}")
                if self.target.base_dim(image) + len(image.word) != n:
                    raise SchemaError(f"image of {name!r} has wrong dimension")
                if n > 0:
                    for i in range(n + 1):
                        lhs = self.target.face(image, i)
                        rhs = self.apply(self.source.faces[(n, name)][i])
                        if lhs != rhs:
                            raise InvalidStructure(
                                f"map breaks d{i} on cell {name!r}"
                            )

    def images(self) -> list[CellRef]:
        """The images of the source's cells, in the source's cell order."""
        cell_map = self.cell_map
        return [
            cell_map[(n, name)]
            for n in range(self.source.max_dim + 1)
            for name in self.source.cells[n]
        ]

    def signature(self) -> tuple:
        return tuple(
            (n, name, self.cell_map[(n, name)].serialize())
            for n in range(self.source.max_dim + 1)
            for name in self.source.cells[n]
        )

    def then(self, other: "SimplicialMap") -> "SimplicialMap":
        return SimplicialMap(
            self.source,
            other.target,
            {
                key: other.apply(ref)
                for key, ref in self.cell_map.items()
            },
        )


def image_texts(images, texts: dict[CellRef, str]) -> tuple[str, ...]:
    """The serialized ``images``, each distinct reference serialized once
    through ``texts``, a cache that callers may share.

    Given a map's :meth:`SimplicialMap.images`, this is its
    ``signature()`` without the ``(n, name)`` part of each entry.  That
    part is the same for all maps out of one source, so for such maps
    these tuples order and compare exactly like their signatures, while
    every map's tuple shares the strings of the others.
    """
    out = []
    for ref in images:
        text = texts.get(ref)
        if text is None:
            text = texts[ref] = ref.serialize()
        out.append(text)
    return tuple(out)


def enumerate_maps(
    x: SimplicialSet, y: SimplicialSet, budget: int = DEFAULT_HORN_BUDGET
) -> list[SimplicialMap]:
    """All simplicial maps x → y, by :func:`~homcat.fincat.backtrack` over
    the nondegenerate cells of x in a face-adjacent order.

    A map is determined by nondegenerate-cell images; the constraint for a
    cell only mentions lower-dimensional choices, so cells are assigned in
    an order that puts each cell right after its faces, which keeps the
    search tree narrow.  A cell's candidates are the target cells whose
    faces are the images already chosen (one ``cells_with_faces``
    lookup); the budget is charged once per candidate.
    """
    order: list[tuple[int, str]] = []
    placed = set()

    def place(n: int, name: str):
        if (n, name) in placed:
            return
        if n > 0:
            for ref in x.faces[(n, name)]:
                place(x.base_dim(ref), ref.base)
        placed.add((n, name))
        order.append((n, name))

    for n in range(x.max_dim, -1, -1):
        for name in x.cells[n]:
            place(n, name)

    def domain(key, assignment):
        n, name = key
        wanted = {}
        for i, ref in enumerate(x.faces.get(key, ())):
            image = assignment[(x.base_dim(ref), ref.base)]
            wanted[i] = CellRef(
                image.base, normalize_word(list(ref.word) + list(image.word))
            )
        return y.cells_with_faces(n, wanted)

    what = "simplicial map enumeration"
    found = backtrack(order, domain, lambda *_: True, Budget(budget), what)
    found = [SimplicialMap(x, y, assignment) for assignment in found]
    texts: dict[CellRef, str] = {}
    found.sort(key=lambda m: image_texts(m.images(), texts))
    return found


def apply_delta_ref(x: SimplicialSet, ref: CellRef, dmap: DeltaMap) -> CellRef:
    """The action of an arbitrary ordinal map on a cell: X(dmap)(ref).

    The composite of dmap with the reference's own surjection is factored
    epi-mono; the mono contributes faces of the base cell (largest missing
    vertex first), the epi contributes the remaining degeneracy word.
    """
    base_dim = x.base_dim(ref)
    if dmap.codomain != base_dim + len(ref.word):
        raise BadIndices("ordinal map does not match the cell dimension")
    total = dmap.then(word_surjection(ref.word, base_dim))
    epi, mono = delta_factor(total)
    cur = CellRef(ref.base, ())
    for i in sorted(set(range(base_dim + 1)) - set(mono.values), reverse=True):
        cur = x.face(cur, i)
    return CellRef(
        cur.base, normalize_word(list(surjection_word(epi)) + list(cur.word))
    )


# -- nerves -----------------------------------------------------------------


def nerve_names(
    cat: FinCategory, max_dim: int
) -> tuple[dict[str, str], dict[tuple[str, ...], str]]:
    """The nondegenerate cells of the nerve, each beside its cell name: the
    objects, and the composable chains of non-identity morphisms, at most
    ``max_dim`` long, by length.

    Chains of every length are named in one :func:`join_names` call on
    '|', so a chain never takes the name of a single morphism, and the
    objects keep their own names.  If an object would share its name with
    a chain, one call names both, each chain keyed behind an empty part,
    so that no object key is a chain key."""
    nonid = [m for m in cat.morphisms if not cat.is_identity(m.name)]
    level = [(m.name,) for m in nonid] if max_dim >= 1 else []
    chains = list(level)
    for _ in range(2, max_dim + 1):
        level = [
            prev + (m.name,) for prev in level for m in nonid
            if m.src == cat.dst(prev[-1])
        ]
        chains.extend(level)
    names = join_names(chains, "|")
    if set(cat.objects) & set(names.values()):
        both = join_names([(o,) for o in cat.objects] + [("",) + c for c in chains], "|")
        return {o: both[(o,)] for o in cat.objects}, {c: both[("",) + c] for c in chains}
    return {o: o for o in cat.objects}, names


def chain_to_ref(
    cat: FinCategory, names: tuple[dict, dict], chain: tuple[str, ...]
) -> CellRef:
    """Normal form of a composable chain: identities stripped off as
    degeneracies, leftmost first; ``names`` is :func:`nerve_names` of
    ``cat``."""
    word = []
    rest = list(chain)
    while True:
        for pos, mor in enumerate(rest):
            if cat.is_identity(mor):
                word.append(pos)
                del rest[pos]
                break
        else:
            break
    vertices, chains = names
    # fully degenerate: the base is the source vertex of the original chain
    base = chains[tuple(rest)] if rest else vertices[cat.src(chain[0])]
    return CellRef(base, normalize_word(word))


def nerve(cat: FinCategory, max_dim: int) -> SimplicialSet:
    """n-cells are composable chains; inner faces compose, outer ones drop.

    Nondegenerate chains are exactly those without identities.  The 0-cells
    are the objects, named as :func:`nerve_names` says.
    """
    cells: dict[int, list[str]] = {n: [] for n in range(max_dim + 1)}
    faces = {}
    names = nerve_names(cat, max_dim)
    vertices, chains = names
    cells[0] = list(vertices.values())
    for chain, name in chains.items():
        n = len(chain)
        cells[n].append(name)
        refs = []
        for i in range(n + 1):
            if i == 0:
                sub = chain[1:]
                if not sub:
                    refs.append(CellRef(vertices[cat.dst(chain[0])], ()))
                    continue
            elif i == n:
                sub = chain[:-1]
                if not sub:
                    refs.append(CellRef(vertices[cat.src(chain[0])], ()))
                    continue
            else:
                sub = (
                    chain[: i - 1]
                    + (cat.compose(chain[i], chain[i - 1]),)
                    + chain[i + 1:]
                )
            refs.append(chain_to_ref(cat, names, sub))
        faces[(n, name)] = tuple(refs)
    x = SimplicialSet(max_dim, cells, faces)
    x.validate()
    return x


def nerve_map(functor, src_nerve: SimplicialSet, dst_nerve: SimplicialSet) -> SimplicialMap:
    """The simplicial map of nerves induced by a functor: chains map
    morphism-wise, with identities normalizing into degeneracies."""
    cat = functor.target
    names = nerve_names(cat, dst_nerve.max_dim)
    vertices, chains = nerve_names(functor.source, src_nerve.max_dim)
    cell_map: dict[tuple[int, str], CellRef] = {}
    for obj, name in vertices.items():
        cell_map[(0, name)] = CellRef(names[0][functor.on_obj(obj)], ())
    for chain, name in chains.items():
        image = tuple(functor.on_mor(m) for m in chain)
        cell_map[(len(chain), name)] = chain_to_ref(cat, names, image)
    out = SimplicialMap(src_nerve, dst_nerve, cell_map)
    out.validate()
    return out


def classifying_category(op_table: dict, elements: list[str], unit: str) -> FinCategory:
    """One-object category with the given group multiplication table."""
    from .fincat import Mor

    mors = [Mor(g, "*", "*") for g in elements]
    table = {}
    for a in elements:
        for b in elements:
            # chains compose left-to-right: (a, b) composes to b∘a = ab
            table[(b, a)] = op_table[(a, b)]
    return FinCategory(["*"], mors, table, {"*": unit})


def nerve_eg(
    op_table: dict, elements: list[str], unit: str, max_dim: int
) -> tuple[SimplicialSet, SimplicialSet, SimplicialMap]:
    """Nerves of the chaotic groupoid EG and of BG, with the projection.

    EG has the group elements as objects and exactly one morphism between
    any two; its n-cells biject with (n+1)-tuples of elements.  The
    projection takes the chain g0 → g1 → ... to the successive left
    differences g_{i+1} g_i^{-1}, which is the levelwise quotient by the
    diagonal action.
    """
    from .fincat import Mor

    inverse = {}
    for g in elements:
        for h in elements:
            if op_table[(g, h)] == unit and op_table[(h, g)] == unit:
                inverse[g] = h
    if len(inverse) != len(elements):
        missing = sorted(set(elements) - set(inverse))
        raise NotAGroup("an element has no inverse", witness=missing[0])

    arrow = join_names(
        [(a, b) for a in elements for b in elements if a != b], "->", "(", ")"
    )
    mors = [Mor(name, a, b) for (a, b), name in arrow.items()]
    mors += [Mor(f"id_{a}", a, a) for a in elements]
    identity = {a: f"id_{a}" for a in elements}
    arrow.update({(a, a): identity[a] for a in elements})

    table = {}
    for a in elements:
        for b in elements:
            for c in elements:
                table[(arrow[b, c], arrow[a, b])] = arrow[a, c]
    eg_cat = FinCategory(list(elements), mors, table, identity)
    eg = nerve(eg_cat, max_dim)
    bg_cat = classifying_category(op_table, elements, unit)
    bg = nerve(bg_cat, max_dim)

    def difference(a: str, b: str) -> str:
        return op_table[(inverse[a], b)]

    bg_names = nerve_names(bg_cat, max_dim)
    eg_vertices, eg_chains = nerve_names(eg_cat, max_dim)
    cell_map: dict[tuple[int, str], CellRef] = {}
    for name in eg_vertices.values():
        cell_map[(0, name)] = CellRef(bg_names[0]["*"], ())
    for chain, name in eg_chains.items():
        vertices = [eg_cat.src(chain[0])] + [eg_cat.dst(m) for m in chain]
        diffs = tuple(map(difference, vertices, vertices[1:]))
        cell_map[(len(chain), name)] = chain_to_ref(bg_cat, bg_names, diffs)
    projection = SimplicialMap(eg, bg, cell_map)
    projection.validate()
    return eg, bg, projection


# -- horn filling and classification ----------------------------------------


def horn_fillers(
    x: SimplicialSet, n: int, k: int, assignment: SimplicialMap
) -> list[CellRef]:
    """All n-cells of x whose faces extend the given horn assignment."""
    if assignment.target is not x:
        raise InvalidAssignment("assignment must land in the complex")
    try:
        assignment.validate()
    except (SchemaError, InvalidStructure) as exc:
        raise InvalidAssignment(
            f"assignment is not a simplicial map: {exc.message}"
        ) from exc
    return list(x.cells_with_faces(n, _horn_faces(assignment, n, k)))


def _horn_faces(assignment: SimplicialMap, n: int, k: int) -> dict[int, CellRef]:
    """The faces a filler of the assignment Λⁿₖ → x must have, by position."""
    return {
        i: assignment.cell_map[
            (n - 1, _vertex_name(tuple(v for v in range(n + 1) if v != i)))
        ]
        for i in range(n + 1)
        if i != k
    }


@dataclass
class HornReport:
    n: int
    k: int
    total: int
    unfilled: int
    witness: tuple | None


@dataclass
class Classification:
    verdict: str  # kan | quasi | neither
    reports: list[HornReport] = field(default_factory=list)

    def unfilled(self, inner_only: bool = False) -> int:
        return sum(
            r.unfilled
            for r in self.reports
            if not inner_only or 0 < r.k < r.n
        )


def classify(
    x: SimplicialSet, max_dim: int | None = None, budget: int = DEFAULT_HORN_BUDGET
) -> Classification:
    """Check every horn assignment up to ``max_dim`` for fillers.

    Each assignment Λⁿₖ → x is filled when some n-cell of x has the
    assigned faces at every position but k, which is one
    :meth:`SimplicialSet.cells_with_faces` lookup.  The scan is clamped
    to the complex's own truncation bound: fillability above it is not
    represented by the data.
    """
    if max_dim is None:
        max_dim = x.max_dim
    max_dim = min(max_dim, x.max_dim)
    reports = []
    for n in range(1, max_dim + 1):
        for k in range(n + 1):
            maps = enumerate_maps(horn(n, k, max_dim=n), x, budget=budget)
            unfilled = 0
            witness = None
            for m in maps:
                if not x.cells_with_faces(n, _horn_faces(m, n, k)):
                    unfilled += 1
                    if witness is None:
                        witness = (n, k, m.signature())
            reports.append(HornReport(n, k, len(maps), unfilled, witness))
    kan = all(r.unfilled == 0 for r in reports)
    quasi = all(r.unfilled == 0 for r in reports if 0 < r.k < r.n)
    verdict = "kan" if kan else ("quasi" if quasi else "neither")
    return Classification(verdict, reports)


# -- products ----------------------------------------------------------------


def _shared_degeneracies(
    x: SimplicialSet, y: SimplicialSet, a: CellRef, b: CellRef, dim: int
) -> tuple[CellRef, CellRef, tuple[int, ...]]:
    """Split a pair of refs into a jointly nondegenerate pair plus the
    common degeneracy word (the Eilenberg-Zilber normal form of the pair)."""
    alpha = word_surjection(a.word, x.base_dim(a))
    beta = word_surjection(b.word, y.base_dim(b))
    shared = sorted(
        (set(surjection_word(alpha)) & set(surjection_word(beta))), reverse=True
    )
    if not shared:
        return a, b, ()
    common = word_surjection(tuple(shared), dim - len(shared))

    def quotient(surj: DeltaMap) -> DeltaMap:
        values = []
        seen = -1
        for i in range(dim + 1):
            if common.values[i] > seen:
                values.append(surj.values[i])
                seen = common.values[i]
        return DeltaMap(dim - len(shared), surj.codomain, tuple(values))

    a2 = CellRef(a.base, surjection_word(quotient(alpha)))
    b2 = CellRef(b.base, surjection_word(quotient(beta)))
    return a2, b2, tuple(shared)


def product_sset(x: SimplicialSet, y: SimplicialSet) -> tuple[
    SimplicialSet, SimplicialMap, SimplicialMap
]:
    """Levelwise product, re-presented by its jointly nondegenerate pairs.

    Returns the product and the two projections.
    """
    max_dim = min(x.max_dim, y.max_dim)
    cells: dict[int, list[str]] = {n: [] for n in range(max_dim + 1)}
    faces = {}
    proj_x: dict[tuple[int, str], CellRef] = {}
    proj_y: dict[tuple[int, str], CellRef] = {}

    # the jointly degenerate pairs are stored symbolically
    pairs = [
        (n, a, b)
        for n in range(max_dim + 1)
        for a in x.all_cells(n)
        for b in y.all_cells(n)
        if not set(a.word) & set(b.word)
    ]
    names = join_names(
        [(a.serialize(), b.serialize()) for _, a, b in pairs], ",", "(", ")"
    )

    def normal_pair(a: CellRef, b: CellRef, dim: int) -> CellRef:
        a2, b2, shared = _shared_degeneracies(x, y, a, b, dim)
        return CellRef(names[a2.serialize(), b2.serialize()], shared)

    for n, a, b in pairs:
        name = names[a.serialize(), b.serialize()]
        cells[n].append(name)
        proj_x[(n, name)] = a
        proj_y[(n, name)] = b
        if n > 0:
            faces[(n, name)] = tuple(
                normal_pair(x.face(a, i), y.face(b, i), n - 1) for i in range(n + 1)
            )
    prod = SimplicialSet(max_dim, cells, faces)
    prod.validate()
    px = SimplicialMap(prod, x, proj_x)
    py = SimplicialMap(prod, y, proj_y)
    px.validate()
    py.validate()
    return prod, px, py
