"""Path components, edge-path fundamental groups, and presentation algebra.

Words are stored as tuples of signed 1-based generator indices; the JSON
surface uses generator names with uppercase marking inverses.  Triviality
claims rest on Tietze reduction to the empty presentation, which only ever
applies sound moves; abelian invariants come from an integer Smith normal
form with tracked unimodular transforms.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    BaseNotFound,
    DimensionTooLow,
    SchemaError,
)
from .fincat import partition
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

    def word_to_names(self, word: tuple[int, ...]) -> list[str]:
        out = []
        for letter in word:
            name = self.generators[abs(letter) - 1]
            out.append(name if letter > 0 else name.upper())
        return out

    def to_json_dict(self) -> dict:
        return {
            "v": 1,
            "gens": list(self.generators),
            "rels": [self.word_to_names(w) for w in self.relators],
        }


def parse_word(tokens: list[str], generators: list[str]) -> tuple[int, ...]:
    index = {g: k + 1 for k, g in enumerate(generators)}
    word = []
    for tok in tokens:
        if tok in index:
            word.append(index[tok])
        elif tok.lower() in index and tok != tok.lower():
            word.append(-index[tok.lower()])
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
    lowered = [g.lower() for g in gens]
    if len(set(lowered)) != len(lowered):
        raise SchemaError("generator names must differ case-insensitively")
    pres = GroupPresentation(
        list(gens), [parse_word(w, gens) for w in raw.get("rels", [])]
    )
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
    return tuple(-letter for letter in reversed(word))


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
    component = next(block for block in pi0(x) if base in block)
    in_component = set(component)
    edges = [
        name
        for name in x.cells[1]
        if _edge_endpoints(x, name)[0] in in_component
    ]
    generators = list(edges)
    gen_index = {name: k + 1 for k, name in enumerate(generators)}

    adjacency: dict[str, list[tuple[str, str]]] = {v: [] for v in component}
    for name in edges:
        src, dst = _edge_endpoints(x, name)
        adjacency[src].append((dst, name))
        adjacency[dst].append((src, name))
    for v in adjacency:
        adjacency[v].sort()

    tree_edges: list[str] = []
    seen = {base}
    queue = [base]
    while queue:
        v = queue.pop(0)
        for w, name in adjacency[v]:
            if w not in seen:
                seen.add(w)
                tree_edges.append(name)
                queue.append(w)

    relators: list[tuple[int, ...]] = [(gen_index[name],) for name in tree_edges]

    def letter(ref: CellRef) -> tuple[int, ...]:
        if ref.word:
            return ()  # degenerate edge: the constant path
        return (gen_index[ref.base],)

    for name in x.cells[2]:
        corner = x.face(x.face(CellRef(name, ()), 0), 0).base
        if corner not in in_component:
            continue
        d0, d1, d2 = (x.faces[(2, name)][i] for i in range(3))
        word = free_reduce(letter(d2) + letter(d0) + invert_word(letter(d1)))
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
        if pivot != (t, t):
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


def abelian_invariants(pres: GroupPresentation) -> tuple[int, tuple[int, ...]]:
    """Free rank and torsion factors (in divisibility order) of the
    abelianization, via the Smith form of the relator exponent matrix."""
    gens = len(pres.generators)
    if gens == 0:
        return 0, ()
    matrix = []
    for word in pres.relators:
        row = [0] * gens
        for letter in word:
            row[abs(letter) - 1] += 1 if letter > 0 else -1
        matrix.append(row)
    if not matrix:
        return gens, ()
    diag, _, _ = smith_normal_form(matrix)
    diagonal = [diag[i][i] for i in range(min(len(matrix), gens))]
    nonzero = [d for d in diagonal if d != 0]
    rank = gens - len(nonzero)
    torsion = tuple(d for d in nonzero if d > 1)
    return rank, torsion


# -- Seifert-Van Kampen -------------------------------------------------------


@dataclass
class GroupHomSpec:
    source: GroupPresentation
    target: GroupPresentation
    images: dict[str, tuple[int, ...]]  # generator name -> word in target

    def validate(self) -> None:
        for g in self.source.generators:
            if g not in self.images:
                raise SchemaError(f"no image for generator {g!r}")
            for letter in self.images[g]:
                if letter == 0 or abs(letter) > len(self.target.generators):
                    raise SchemaError(f"image letter {letter} out of range")
        # necessary condition: relators must die in the abelianization of
        # the target (the full word problem is not decidable here)
        for word in self.source.relators:
            image = []
            for letter in word:
                img = self.images[self.source.generators[abs(letter) - 1]]
                image.extend(img if letter > 0 else invert_word(img))
            if not _abelianized_trivial(tuple(image), self.target):
                raise SchemaError(
                    "a relator image is nontrivial in the target abelianization",
                    relator=self.source.word_to_names(word),
                )


def _abelianized_trivial(word: tuple[int, ...], pres: GroupPresentation) -> bool:
    gens = len(pres.generators)
    vec = [0] * gens
    for letter in word:
        vec[abs(letter) - 1] += 1 if letter > 0 else -1
    if not any(vec):
        return True
    if not pres.relators:
        return False
    matrix = []
    for rel in pres.relators:
        row = [0] * gens
        for letter in rel:
            row[abs(letter) - 1] += 1 if letter > 0 else -1
        matrix.append(row)
    diag, _, right = smith_normal_form(matrix)
    moved = [
        sum(vec[i] * right[i][j] for i in range(gens)) for j in range(gens)
    ]
    for j in range(gens):
        d = diag[j][j] if j < len(matrix) else 0
        if d == 0:
            if moved[j] != 0:
                return False
        elif moved[j] % d != 0:
            return False
    return True


def homspec_from_json(raw: dict) -> GroupHomSpec:
    if not isinstance(raw, dict):
        raise SchemaError("homomorphism payload must be an object")
    for key in raw:
        if key not in {"v", "source", "target", "images"}:
            raise SchemaError(f"unknown field {key!r} in homomorphism file")
    source = presentation_from_json(raw.get("source", {}))
    target = presentation_from_json(raw.get("target", {}))
    images = {
        g: parse_word(w, target.generators)
        for g, w in raw.get("images", {}).items()
    }
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
    gens1 = list(phi1.target.generators)
    taken = set(gens1)
    rename2 = {}
    for g in phi2.target.generators:
        fresh = g
        while fresh in taken:
            fresh = fresh + "_2"
        rename2[g] = fresh
        taken.add(fresh)
    gens = gens1 + [rename2[g] for g in phi2.target.generators]
    offset = len(gens1)

    def shift(word: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(
            letter + offset if letter > 0 else letter - offset for letter in word
        )

    relators = list(phi1.target.relators)
    relators += [shift(w) for w in phi2.target.relators]
    for k, g in enumerate(phi1.source.generators):
        w1 = phi1.images[g]
        w2 = shift(phi2.images[g])
        relators.append(free_reduce(w1 + invert_word(w2)))
    pres = GroupPresentation(gens, [w for w in relators if w])
    pres.validate()
    return pres


# -- Tietze simplification -------------------------------------------------------


def _canonical_cyclic(word: tuple[int, ...]) -> tuple[int, ...]:
    """Least rotation among the word and its inverse, for deduplication."""
    if not word:
        return word
    candidates = []
    for w in (word, invert_word(word)):
        for k in range(len(w)):
            candidates.append(w[k:] + w[:k])
    return min(candidates)


def tietze_simplify(pres: GroupPresentation, budget: int = 100) -> GroupPresentation:
    """Sound presentation cleanup within a move budget.

    Moves: free and cyclic reduction, dropping empty or duplicate relators,
    and eliminating a generator that occurs exactly once in some relator.
    The isomorphism class of the group never changes.
    """
    gens = list(pres.generators)
    rels = [cyclic_reduce(w) for w in pres.relators]
    moves = 0
    changed = True
    while changed and moves < budget:
        changed = False
        rels = [cyclic_reduce(w) for w in rels]
        rels = [w for w in rels if w]
        seen = {}
        for w in rels:
            key = _canonical_cyclic(w)
            if key not in seen:
                seen[key] = w
        if len(seen) != len(rels):
            rels = list(seen.values())
            changed = True
            moves += 1
            continue
        victim = None
        for r_idx, word in enumerate(rels):
            counts: dict[int, int] = {}
            for letter in word:
                counts[abs(letter)] = counts.get(abs(letter), 0) + 1
            for g_abs, c in counts.items():
                if c == 1:
                    victim = (r_idx, g_abs, word)
                    break
            if victim:
                break
        if victim is None:
            break
        r_idx, g_abs, word = victim
        pos = next(k for k, letter in enumerate(word) if abs(letter) == g_abs)
        # word = u g^e v  =>  g^e = u^{-1} v^{-1}, g = (v u)^{-e}
        u, e, v = word[:pos], word[pos], word[pos + 1:]
        replacement = invert_word(v + u) if e > 0 else (v + u)

        def substitute(w: tuple[int, ...]) -> tuple[int, ...]:
            out: list[int] = []
            for letter in w:
                if abs(letter) == g_abs:
                    out.extend(replacement if letter > 0 else invert_word(replacement))
                else:
                    out.append(letter)
            return free_reduce(tuple(out))

        rels = [substitute(w) for k, w in enumerate(rels) if k != r_idx]

        def renumber(w: tuple[int, ...]) -> tuple[int, ...]:
            out = []
            for letter in w:
                shiftv = abs(letter) - (1 if abs(letter) > g_abs else 0)
                out.append(shiftv if letter > 0 else -shiftv)
            return tuple(out)

        rels = [renumber(w) for w in rels]
        del gens[g_abs - 1]
        moves += 1
        changed = True
    out = GroupPresentation(gens, [w for w in (cyclic_reduce(w) for w in rels) if w])
    out.validate()
    return out


def is_trivial_presentation(pres: GroupPresentation, budget: int = 200) -> bool:
    """Sound (not complete) triviality check via Tietze reduction."""
    reduced = tietze_simplify(pres, budget=budget)
    return not reduced.generators and not reduced.relators
