"""Path components, edge-path fundamental groups, and presentation algebra.

Words are stored as tuples of signed 1-based generator indices; the JSON
surface uses generator names, with uppercase marking inverses where that
reads back unambiguously and ``{"inv": name}`` elsewhere.  Triviality
claims rest on Tietze reduction to the empty presentation, which only ever
applies sound moves; abelian invariants come from sparse elimination of
the unit pivots of the relator exponent matrix, then an integer Smith
normal form (with tracked unimodular transforms) of what is left.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .errors import BaseNotFound, CapExceeded, DimensionTooLow, SchemaError
from .fincat import follow, hom_tables, partition
from .simplicial import CellRef, SimplicialSet


# -- presentations -----------------------------------------------------------


@dataclass
class GroupPresentation:
    generators: list[str]
    relators: list[tuple[int, ...]]

    def validate(self) -> None:
        if len(set(self.generators)) != len(self.generators):
            raise SchemaError("duplicate generator names")
        for word in self.relators:
            for letter in word:
                if letter == 0 or abs(letter) > len(self.generators):
                    raise SchemaError(f"relator letter {letter} out of range")

    def word_to_names(self, word: tuple[int, ...]) -> list[str | dict]:
        return GroupPresentation(self.generators, [word]).to_json_dict()["rels"][0]

    def to_json_dict(self) -> dict:
        # an inverse is the upper-cased name where parse_word reads that
        # back as the inverse, else {"inv": name}
        taken = set(self.generators)
        names: dict[int, str | dict] = {}
        for k, g in enumerate(self.generators, 1):
            upper = g.upper()
            plain = upper != g and upper not in taken and upper.lower() == g
            names[k], names[-k] = g, (upper if plain else {"inv": g})
        rels = [[names[letter] for letter in w] for w in self.relators]
        return {"v": 1, "gens": list(self.generators), "rels": rels}


def parse_word(tokens: list, generators: list[str]) -> tuple[int, ...]:
    """Reads a list of letters: a generator's name, and for its inverse the
    upper-cased name (unless that is a generator) or ``{"inv": name}``."""
    if not isinstance(tokens, list):
        raise SchemaError(f"a word must be a list of letters, got {tokens!r}")
    index = {g: k + 1 for k, g in enumerate(generators)}
    word = []
    for tok in tokens:
        if isinstance(tok, str) and tok in index:
            word.append(index[tok])
        elif isinstance(tok, str) and tok != tok.lower() and tok.lower() in index:
            word.append(-index[tok.lower()])
        elif isinstance(tok, dict) and list(tok) == ["inv"] and tok["inv"] in generators:
            word.append(-index[tok["inv"]])
        else:
            raise SchemaError(f"unknown letter {tok!r}")
    return tuple(word)


def presentation_from_json(raw: dict) -> GroupPresentation:
    if not isinstance(raw, dict):
        raise SchemaError("presentation payload must be an object")
    for key in raw:
        if key not in {"v", "gens", "rels"}:
            raise SchemaError(f"unknown field {key!r} in presentation file")
    gens = raw.get("gens", [])
    if not isinstance(gens, list) or not all(isinstance(g, str) for g in gens):
        raise SchemaError("'gens' must be a list of strings")
    rels = raw.get("rels", [])
    if not isinstance(rels, list):
        raise SchemaError("'rels' must be a list of words")
    pres = GroupPresentation(list(gens), [parse_word(w, gens) for w in rels])
    pres.validate()
    return pres


def free_reduce(word: tuple[int, ...]) -> tuple[int, ...]:
    out: list[int] = []
    for letter in word:
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def cyclic_reduce(word: tuple[int, ...]) -> tuple[int, ...]:
    word = free_reduce(word)
    while len(word) >= 2 and word[0] == -word[-1]:
        word = word[1:-1]
    return word


def invert_word(word: tuple[int, ...]) -> tuple[int, ...]:
    return tuple([-letter for letter in reversed(word)])


# -- pi0 -----------------------------------------------------------------------


def pi0(x: SimplicialSet) -> list[list[str]]:
    """Partition of the 0-cells by the symmetric-transitive closure of
    1-cell adjacency; blocks keep vertex order."""
    edges = x.cells[1] if x.max_dim >= 1 else []
    return partition(
        x.cells[0],
        ((x.faces[(1, e)][0].base, x.faces[(1, e)][1].base) for e in edges),
    )


# -- pi1 -----------------------------------------------------------------------


def _edge_endpoints(x: SimplicialSet, name: str) -> tuple[str, str]:
    refs = x.faces[(1, name)]
    # faces delete vertices: d1 keeps the target of the ... d0 drops vertex 0
    return refs[1].base, refs[0].base  # (source, target)


def pi1(x: SimplicialSet, base: str) -> GroupPresentation:
    """Edge-path presentation relative to a breadth-first spanning tree.

    Generators are the nondegenerate 1-cells of the base component; tree
    edges become relators, and every nondegenerate 2-cell contributes
    d2 · d0 · d1⁻¹ with degenerate faces dropping out.
    """
    if x.max_dim < 2:
        raise DimensionTooLow(
            "pi1 needs the complex truncated at dimension 2 or higher",
            max_dim=x.max_dim,
        )
    if base not in x.cells[0]:
        raise BaseNotFound(f"unknown base vertex {base!r}", base=base)
    # one breadth-first search finds the base's pi0 block and the tree
    ends = [(name, *_edge_endpoints(x, name)) for name in x.cells[1]]
    adjacency: dict[str, list[tuple[str, str]]] = {v: [] for v in x.cells[0]}
    for name, src, dst in ends:
        adjacency[src].append((dst, name))
        adjacency[dst].append((src, name))
    tree_edges: list[str] = []
    in_component = {base}
    queue = [base]
    for v in queue:  # the loop reads what it appends
        for w, name in sorted(adjacency[v]):
            if w not in in_component:
                in_component.add(w)
                tree_edges.append(name)
                queue.append(w)
    generators = [name for name, src, _ in ends if src in in_component]
    gen_index = {name: k + 1 for k, name in enumerate(generators)}

    relators: list[tuple[int, ...]] = [(gen_index[name],) for name in tree_edges]

    def letter(ref: CellRef, sign: int = 1) -> tuple[int, ...]:
        if ref.word:
            return ()  # degenerate edge: the constant path
        return (sign * gen_index[ref.base],)

    for name in x.cells[2]:
        d0, d1, d2 = x.faces[(2, name)]
        if x.faces_of(d0.base, d0.word)[0][0] not in in_component:  # d0 d0: the corner
            continue
        word = free_reduce(letter(d2) + letter(d0) + letter(d1, -1))
        if word:
            relators.append(word)
    pres = GroupPresentation(generators, relators)
    pres.validate()
    return pres


# -- Smith normal form -----------------------------------------------------------


def smith_normal_form(
    matrix: list[list[int]],
) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Diagonalize an integer matrix: returns (D, L, R) with L·A·R = D,
    L and R products of elementary unimodular operations, and the diagonal
    entries nonnegative with d_1 | d_2 | ... ."""
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    a = [row[:] for row in matrix]
    left = [[int(i == j) for j in range(rows)] for i in range(rows)]
    right = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        left[i], left[j] = left[j], left[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in right:
            row[i], row[j] = row[j], row[i]

    def add_row(i, j, q):
        # row_i += q * row_j
        a[i] = [x + q * y for x, y in zip(a[i], a[j])]
        left[i] = [x + q * y for x, y in zip(left[i], left[j])]

    def add_col(i, j, q):
        for row in a:
            row[i] += q * row[j]
        for row in right:
            row[i] += q * row[j]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        left[i] = [-x for x in left[i]]

    t = 0
    while t < min(rows, cols):
        pivot = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < best):
                    best = abs(a[i][j])
                    pivot = (i, j)
        if pivot is None:
            break
        if pivot[0] != t:
            swap_rows(t, pivot[0])
        if pivot[1] != t:
            swap_cols(t, pivot[1])
        dirty = False
        for i in range(t + 1, rows):
            if a[i][t] != 0:
                add_row(i, t, -(a[i][t] // a[t][t]))
                if a[i][t] != 0:
                    dirty = True
        for j in range(t + 1, cols):
            if a[t][j] != 0:
                add_col(j, t, -(a[t][j] // a[t][t]))
                if a[t][j] != 0:
                    dirty = True
        if dirty:
            continue
        if a[t][t] < 0:
            negate_row(t)
        offender = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if a[i][j] % a[t][t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            add_row(t, offender, 1)
            continue
        t += 1
    diag = [[a[i][j] for j in range(cols)] for i in range(rows)]
    return diag, left, right


def _exponent_row(word: tuple[int, ...]) -> dict[int, int]:
    """Nonzero exponent sums of a word, keyed by 0-based generator."""
    row: dict[int, int] = {}
    for letter in word:
        g = abs(letter) - 1
        row[g] = row.get(g, 0) + (1 if letter > 0 else -1)
    return {g: c for g, c in row.items() if c}


def abelian_invariants(pres: GroupPresentation) -> tuple[int, tuple[int, ...]]:
    """Free rank and torsion factors (in divisibility order) of the
    abelianization.

    The relator exponent rows are kept sparse and every ±1 pivot is
    eliminated first: the other rows are cleared in its column, and its
    row and column drop out, which leaves the cokernel unchanged.  The
    Smith form then runs on the few rows and columns left.
    """
    gens = len(pres.generators)
    if gens == 0:
        return 0, ()
    rows = {k: row for k, row in enumerate(map(_exponent_row, pres.relators)) if row}
    holders: dict[int, set[int]] = {g: set() for g in range(gens)}
    for k, row in rows.items():
        for g in row:
            holders[g].add(k)
    pending = sorted(rows, reverse=True)
    while pending:
        k = pending.pop()
        row = rows.get(k)
        if row is None:
            continue
        units = [g for g, c in row.items() if c in (1, -1)]
        if not units:
            continue
        pivot = min(units, key=lambda g: len(holders[g]))
        del rows[k]
        for g in row:
            holders[g].discard(k)
        for other in holders.pop(pivot):
            target = rows[other]
            q = target.pop(pivot) * row[pivot]  # the pivot is its own inverse
            for g, c in row.items():
                if g == pivot:
                    continue
                value = target.get(g, 0) - q * c
                if value:
                    target[g] = value
                    holders[g].add(other)
                else:
                    target.pop(g, None)
                    holders[g].discard(other)
            if target:
                pending.append(other)
            else:
                del rows[other]
    nonzero: list[int] = []
    if rows:
        used = sorted({g for row in rows.values() for g in row})
        matrix = [[row.get(g, 0) for g in used] for row in rows.values()]
        diag, _, _ = smith_normal_form(matrix)
        nonzero = [d for d in (diag[i][i] for i in range(min(len(matrix), len(used)))) if d]
    rank = len(holders) - len(nonzero)  # the columns left
    torsion = tuple(d for d in nonzero if d > 1)
    return rank, torsion


# -- Seifert-Van Kampen -------------------------------------------------------


@dataclass
class GroupHomSpec:
    source: GroupPresentation
    target: GroupPresentation
    images: dict[str, tuple[int, ...]]  # generator name -> word in target

    def validate(self) -> None:
        for g in self.images:
            if g not in self.source.generators:
                raise SchemaError(f"image given for {g!r}, which is no source generator")
        for g in self.source.generators:
            if g not in self.images:
                raise SchemaError(f"no image for generator {g!r}")
            for letter in self.images[g]:
                if letter == 0 or abs(letter) > len(self.target.generators):
                    raise SchemaError(f"image letter {letter} out of range")
        images = {}  # relator -> its image
        for word in self.source.relators:
            image = []
            for letter in word:
                img = self.images[self.source.generators[abs(letter) - 1]]
                image.extend(img if letter > 0 else invert_word(img))
            images[word] = tuple(image)
        # exact where the target's table finishes; otherwise only in its
        # abelianization, all at once, and one by one only to name a culprit
        is_identity = _identity_test(self.target) if any(images.values()) else None
        culprit = None
        if is_identity is not None:
            culprit = next((w for w, image in images.items() if not is_identity(image)),
                           None)
            message = "a relator image is not the identity in the target"
        else:
            invariants = abelian_invariants(self.target)
            if not _abelianized_trivial(images.values(), self.target, invariants):
                culprit = next(w for w, image in images.items()
                               if not _abelianized_trivial([image], self.target, invariants))
            message = "a relator image is nontrivial in the target abelianization"
        if culprit is not None:
            raise SchemaError(message, relator=self.source.word_to_names(culprit))


# the cosets the exact relator check may define before it falls back
GROUP_TABLE_CAP = 2000


def _identity_test(pres: GroupPresentation):
    """A test whether a word is 1, by the group's :func:`hom_tables` on one
    object: letters 2i = generator i + 1 and 2i + 1 = its inverse, relations
    g·g⁻¹ = g⁻¹·g = () and relator = (); None past ``GROUP_TABLE_CAP``."""
    def letter(signed: int) -> int:
        return 2 * abs(signed) - 2 + (signed < 0)

    letters = 2 * len(pres.generators)
    relations = [((a, a ^ 1), ()) for a in range(letters)]
    relations += [(tuple(map(letter, w)), ()) for w in pres.relators if w]
    try:
        (act,) = hom_tables([0], [(0, 0)] * letters, relations, GROUP_TABLE_CAP).values()
    except CapExceeded:
        return None
    return lambda word: follow(act, 0, map(letter, word)) == 0


def _abelianized_trivial(words, pres: GroupPresentation, invariants) -> bool:
    """Whether the exponent vectors of ``words`` all lie in the relator
    lattice L, given ``invariants`` = abelian_invariants(pres).  With V their
    span, Z^g/(L + V) is a quotient of Z^g/L, and a finitely generated
    abelian group is not isomorphic to a proper quotient of itself, so
    V ⊆ L exactly when adding the words as relators leaves the invariants
    unchanged."""
    widened = GroupPresentation(pres.generators, pres.relators + list(words))
    return abelian_invariants(widened) == invariants


def homspec_from_json(raw: dict) -> GroupHomSpec:
    if not isinstance(raw, dict):
        raise SchemaError("homomorphism payload must be an object")
    for key in raw:
        if key not in {"v", "source", "target", "images"}:
            raise SchemaError(f"unknown field {key!r} in homomorphism file")
    source = presentation_from_json(raw.get("source", {}))
    target = presentation_from_json(raw.get("target", {}))
    images = raw.get("images", {})
    if not isinstance(images, dict):
        raise SchemaError("'images' must map generator names to words")
    images = {g: parse_word(w, target.generators) for g, w in images.items()}
    spec = GroupHomSpec(source, target, images)
    spec.validate()
    return spec


def svk_pushout(phi1: GroupHomSpec, phi2: GroupHomSpec) -> GroupPresentation:
    """Amalgamated pushout: generators of both targets, their relators, and
    one gluing relator per generator of the shared source."""
    if phi1.source.generators != phi2.source.generators:
        raise SchemaError("the two legs must share their source presentation")
    phi1.validate()
    phi2.validate()
    gens = list(phi1.target.generators)
    offset = len(gens)
    taken = set(gens)
    for g in phi2.target.generators:  # renamed g_2, g_2_2, ... on a clash
        while g in taken:
            g += "_2"
        gens.append(g)
        taken.add(g)

    def shift(word: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(
            letter + offset if letter > 0 else letter - offset for letter in word
        )

    relators = list(phi1.target.relators)
    relators += [shift(w) for w in phi2.target.relators]
    relators += [free_reduce(phi1.images[g] + invert_word(shift(phi2.images[g])))
                 for g in phi1.source.generators]
    pres = GroupPresentation(gens, [w for w in relators if w])
    pres.validate()
    return pres


# -- Tietze simplification -------------------------------------------------------


def _relator_facts(word: tuple[int, ...]) -> tuple:
    """``(reduced, letters, lone, key)`` of a relator: its cyclic reduction,
    the generators it uses (in order of first use), the first of them
    that occurs once (or None), and its dedup key, the least rotation of
    the reduction or its inverse (``()`` for the empty word).

    A word whose letters use distinct generators is already cyclically
    reduced, its first generator is lone, and its key is the one rotation
    of the word or of its inverse that starts at -m, the least letter of
    both, for m its largest generator.  Every relator of :func:`pi1` on a
    simplicial complex has this form (a tree edge, or a triangle on three
    edges), and so do most of its rewrites: lengths 1 to 3 take that path,
    unrolled."""
    n = len(word)
    if n == 1:
        g = abs(word[0])
        return word, (g,), g, (-g,)
    if n == 2:
        x, y = word
        gx, gy = abs(x), abs(y)
        if gx != gy:
            least = -max(gx, gy)  # in the word, or else in its inverse (-y, -x)
            key = (word if x == least else (y, x) if y == least
                   else (-x, -y) if x == -least else (-y, -x))
            return word, (gx, gy), gx, key
    elif n == 3:
        x, y, z = word
        gx, gy, gz = abs(x), abs(y), abs(z)
        if gx != gy != gz != gx:
            least = -max(gx, gy, gz)  # in the word, or else in its inverse (-z, -y, -x)
            key = (word if x == least else (y, z, x) if y == least
                   else (z, x, y) if z == least else (-x, -z, -y) if x == -least
                   else (-y, -x, -z) if y == -least else (-z, -y, -x))
            return word, (gx, gy, gz), gx, key
    reduced = cyclic_reduce(word)
    if not reduced:
        return reduced, (), None, ()
    repeated: dict[int, bool] = {}  # generator -> occurs more than once
    for letter in reduced:
        g = letter if letter > 0 else -letter
        repeated[g] = g in repeated
    lone = None
    for g, twice in repeated.items():
        if not twice:
            lone = g
            break
    # the key starts with the least letter of the two words, minus the
    # largest generator m; if m occurs once, one rotation starts there
    m = max(repeated)
    if repeated[m]:
        key = min(w[k:] + w[:k] for w in (reduced, invert_word(reduced))
                  for k in range(len(w)) if w[k] == -m)
    else:  # the one rotation of the word or its inverse that starts at -m
        w = reduced if -m in reduced else invert_word(reduced)
        p = w.index(-m)
        key = w[p:] + w[:p]
    return reduced, repeated.keys(), lone, key


def _substitute(
    word: tuple[int, ...], g_abs: int, image: tuple[int, ...], inverse: tuple[int, ...]
) -> tuple[int, ...]:
    """``word`` with generator ``g_abs`` replaced by ``image``, freely reduced."""
    out: list[int] = []
    for letter in word:
        if letter == g_abs:
            out.extend(image)
        elif letter == -g_abs:
            out.extend(inverse)
        else:
            out.append(letter)
    return free_reduce(tuple(out))


def tietze_simplify(pres: GroupPresentation, budget: int = 100) -> GroupPresentation:
    """Sound presentation cleanup within a move budget.

    Moves: free and cyclic reduction, dropping empty or duplicate relators,
    and eliminating a generator that occurs exactly once in some relator.
    The isomorphism class of the group never changes.

    Each relator keeps its slot (``None`` once dropped), its word's facts
    (:func:`_relator_facts`, worked out when it is put) beside it, and the
    input's generator numbers until the end.  A dedup move keeps the first
    slot of every key held twice; otherwise the least slot with a lone
    generator is the victim, and its elimination rewrites only the slots
    that use that generator.  Three indexes say where to look: the slots
    using each generator, the live slots of each dedup key (a bare slot
    until a second shares it; two words get equal keys iff they have the
    same rotations of themselves and their inverses), and a heap of the
    slots that had a lone generator, checked lazily.  ``budget`` caps the
    moves; a negative one is a :class:`SchemaError`.
    """
    if budget < 0:
        raise SchemaError(
            f"Tietze move budget must be nonnegative, got {budget}", budget=budget
        )
    slots: list[tuple[int, ...] | None] = [None] * len(pres.relators)
    facts: list[tuple] = [()] * len(pres.relators)  # of each live slot
    occurs = [set() for _ in range(len(pres.generators) + 1)]  # by generator
    # a key's live slots: a bare slot, or a set of two or more (in twice)
    holders: dict[tuple[int, ...], int | set[int]] = {}
    twice: set[tuple[int, ...]] = set()

    def drop(k: int) -> None:
        _, letters, _, key = facts[k]
        slots[k] = None
        for g in letters:
            occurs[g].discard(k)
        held = holders[key]
        if held.__class__ is int:
            del holders[key]
        else:
            held.discard(k)
            if len(held) == 1:
                holders[key] = held.pop()
                twice.discard(key)

    def put(k: int, word: tuple[int, ...]) -> bool:
        """Slot k takes ``word`` reduced, if nonempty; True if it has a lone generator."""
        got = _relator_facts(word)
        reduced, letters, lone_g, key = got
        if not reduced:
            return False
        slots[k], facts[k] = reduced, got
        for g in letters:
            occurs[g].add(k)
        held = holders.setdefault(key, k)
        if held is not k:  # setdefault hands back k itself unless the key was held
            if held.__class__ is int:
                held = holders[key] = {held}
                twice.add(key)
            held.add(k)
        return lone_g is not None

    # in slot order, so already a heap
    lone = [k for k, word in enumerate(pres.relators) if put(k, word)]
    eliminated: set[int] = set()
    for _ in range(budget):  # one move a round
        if twice:
            for key in list(twice):
                for k in sorted(holders[key])[1:]:
                    drop(k)
            continue
        while lone and (slots[lone[0]] is None or facts[lone[0]][2] is None):
            heapq.heappop(lone)
        if not lone:
            break
        word, g_abs = slots[lone[0]], facts[lone[0]][2]
        pos = next(k for k, letter in enumerate(word) if abs(letter) == g_abs)
        # word = u g^e v  =>  g^e = u^{-1} v^{-1}, g = (v u)^{-e}
        u, e, v = word[:pos], word[pos], word[pos + 1:]
        replacement = invert_word(v + u) if e > 0 else (v + u)
        inverse = invert_word(replacement)
        drop(lone[0])
        for k in sorted(occurs[g_abs]):
            rewritten = _substitute(slots[k], g_abs, replacement, inverse)
            drop(k)
            if put(k, rewritten):
                heapq.heappush(lone, k)
        eliminated.add(g_abs)
    kept = [k for k in range(1, len(pres.generators) + 1) if k not in eliminated]
    number = {k: n for n, k in enumerate(kept, 1)}  # and -k -> -n
    number.update([(-k, -n) for k, n in number.items()])
    out = GroupPresentation(
        [pres.generators[k - 1] for k in kept],
        [tuple(map(number.__getitem__, r)) for r in slots if r is not None],
    )
    out.validate()
    return out


def is_trivial_presentation(pres: GroupPresentation, budget: int = 200) -> bool:
    """Sound (not complete) triviality check via Tietze reduction."""
    reduced = tietze_simplify(pres, budget=budget)
    return not reduced.generators and not reduced.relators
