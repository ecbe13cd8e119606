"""Independent computations the benchmark checks homcat's answers against.

Nothing here imports homcat.  Complexes are read as plain data: the
nondegenerate cells per dimension and, for each cell, its face references
as strings ("name" or "s0 name", the JSON form homcat reads and writes).
A face with a degeneracy word is zero in normalized chains.
"""

from __future__ import annotations

import itertools
from math import gcd


# -- integer cokernels by sparse unit-pivot elimination -----------------------


def cokernel(rows, ncols: int) -> tuple[int, tuple[int, ...]]:
    """Free rank and torsion of Z^ncols / span(rows).

    ``rows`` are sparse ``{col: coeff}`` dicts.  Every entry of ±1 is used
    as a pivot and its row and column are dropped, which changes neither
    the rank nor the torsion; the few rows left (entries all ±2 or more)
    go through a dense Smith reduction.
    """
    live = {}
    for row in rows:
        row = {c: v for c, v in row.items() if v}
        if row:
            live[frozenset(row.items())] = row
    rows = list(live.values())
    by_col: dict[int, set[int]] = {}
    for r, row in enumerate(rows):
        for c in row:
            by_col.setdefault(c, set()).add(r)
    alive = set(range(len(rows)))
    eliminated = 0
    queue = sorted(alive, key=lambda r: len(rows[r]))
    while queue:
        progress = False
        for r in queue:
            if r not in alive:
                continue
            row = rows[r]
            pivot = next((c for c, v in row.items() if v in (1, -1)), None)
            if pivot is None:
                continue
            sign = row[pivot]
            for s in list(by_col.get(pivot, ())):
                if s == r:
                    continue
                other = rows[s]
                q = other[pivot] * sign
                for c, v in row.items():
                    nv = other.get(c, 0) - q * v
                    if nv:
                        if c not in other:
                            by_col.setdefault(c, set()).add(s)
                        other[c] = nv
                    elif c in other:
                        del other[c]
                        by_col[c].discard(s)
                if not other:
                    alive.discard(s)
            for c in row:
                by_col[c].discard(r)
            alive.discard(r)
            eliminated += 1
            progress = True
        if not progress:
            break
        queue = sorted(alive, key=lambda r: len(rows[r]))
    rest = [rows[r] for r in sorted(alive)]
    cols = sorted({c for row in rest for c in row})
    dense = [[row.get(c, 0) for c in cols] for row in rest]
    diagonal = _smith_diagonal(dense)
    rank = ncols - eliminated - len(diagonal)
    return rank, tuple(d for d in diagonal if d > 1)


def _smith_diagonal(a: list[list[int]]) -> list[int]:
    """Nonzero invariant factors of a small dense integer matrix."""
    a = [row[:] for row in a]
    out = []
    while a and a[0]:
        entries = [(abs(v), i, j) for i, row in enumerate(a) for j, v in enumerate(row) if v]
        if not entries:
            break
        _, i, j = min(entries)
        a[0], a[i] = a[i], a[0]
        for row in a:
            row[0], row[j] = row[j], row[0]
        p = a[0][0]
        clean = True
        for i in range(1, len(a)):
            q = a[i][0] // p
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], a[0])]
            clean = clean and a[i][0] == 0
        for j in range(1, len(a[0])):
            q = a[0][j] // p
            if q:
                for row in a:
                    row[j] -= q * row[0]
            clean = clean and a[0][j] == 0
        if not clean:
            continue
        bad = next(
            (i for i in range(1, len(a)) if any(x % p for x in a[i][1:])), None
        )
        if bad is not None:
            a[0] = [x + y for x, y in zip(a[0], a[bad])]
            continue
        out.append(abs(p))
        a = [row[1:] for row in a[1:]]
    # divisibility order: fold pairs into gcd / lcm
    for i in range(len(out)):
        for j in range(i + 1, len(out)):
            g = gcd(out[i], out[j])
            out[i], out[j] = g, out[i] * out[j] // g
    return out


# -- complexes as plain data ---------------------------------------------------


def _is_degenerate(ref: str) -> bool:
    head = ref.split(" ", 1)[0]
    return " " in ref and head.startswith("s") and head[1:].isdigit()


def components(cells: dict, faces: dict) -> list[set[str]]:
    """Path components of the 1-skeleton, by breadth-first search."""
    adjacent: dict[str, set[str]] = {v: set() for v in cells.get(0, [])}
    for e in cells.get(1, []):
        a, b = faces[e][0], faces[e][1]
        adjacent[a].add(b)
        adjacent[b].add(a)
    seen: set[str] = set()
    out = []
    for v in cells.get(0, []):
        if v in seen:
            continue
        block, frontier = {v}, [v]
        while frontier:
            nxt = []
            for u in frontier:
                for w in adjacent[u]:
                    if w not in block:
                        block.add(w)
                        nxt.append(w)
            frontier = nxt
        seen |= block
        out.append(block)
    return out


def euler_characteristic(cells: dict) -> int:
    return sum((-1) ** n * len(names) for n, names in cells.items())


def h1(cells: dict, faces: dict, within: set[str] | None = None) -> tuple[int, tuple[int, ...]]:
    """H₁ from normalized chains: ker ∂₁ / im ∂₂, optionally restricted to
    the cells over the vertex set ``within``."""
    vertices = [v for v in cells.get(0, []) if within is None or v in within]
    keep = set(vertices)
    edges = [e for e in cells.get(1, []) if faces[e][1] in keep]
    col = {e: k for k, e in enumerate(edges)}
    rows = []
    for t in cells.get(2, []):
        row: dict[int, int] = {}
        for sign, ref in zip((1, -1, 1), faces[t]):
            if not _is_degenerate(ref) and ref in col:
                row[col[ref]] = row.get(col[ref], 0) + sign
        rows.append(row)
    rank, torsion = cokernel(rows, len(edges))
    n_comp = len(components({0: vertices, 1: edges}, faces))
    return rank - (len(vertices) - n_comp), torsion


def relator_cokernel(gens: list[str], rels: list[list[str]]) -> tuple[int, tuple[int, ...]]:
    """Abelianization of a presentation in homcat's JSON letter form."""
    index = {g: k for k, g in enumerate(gens)}
    rows = []
    for word in rels:
        row: dict[int, int] = {}
        for letter in word:
            if letter in index:
                k, s = index[letter], 1
            else:
                k, s = index[letter.lower()], -1
            row[k] = row.get(k, 0) + s
        rows.append(row)
    return cokernel(rows, len(gens))


# -- finite categories as plain data ---------------------------------------------


class Cat:
    """A category from a path-category description, composed by lookup."""

    def __init__(self, objects, morphisms, compose):
        self.objects = list(objects)
        self.mors = {m["name"]: (m["src"], m["dst"]) for m in morphisms}
        for x in self.objects:
            self.mors[f"id_{x}"] = (x, x)
        self.table = {(g, f): h for g, f, h in compose}

    def src(self, m):
        return self.mors[m][0]

    def dst(self, m):
        return self.mors[m][1]

    def is_id(self, m):
        return m == f"id_{self.src(m)}" and self.src(m) == self.dst(m)

    def compose(self, g, f):
        if self.is_id(f):
            return g
        if self.is_id(g):
            return f
        return self.table[(g, f)]

    def hom(self, x, y):
        return [m for m, (a, b) in self.mors.items() if a == x and b == y]

    def isomorphisms(self):
        out = []
        for m, (a, b) in self.mors.items():
            if any(
                self.compose(g, m) == f"id_{a}" and self.compose(m, g) == f"id_{b}"
                for g in self.hom(b, a)
            ):
                out.append(m)
        return sorted(out)

    def chain_counts(self, max_dim: int) -> list[int]:
        """Composable chains of non-identity morphisms, per length."""
        nonid = [m for m in self.mors if not self.is_id(m)]
        ending = {x: 0 for x in self.objects}
        counts = [len(self.objects)]
        for m in nonid:
            ending[self.dst(m)] += 1
        if max_dim >= 1:
            counts.append(len(nonid))
        for _ in range(2, max_dim + 1):
            nxt = {x: 0 for x in self.objects}
            for m in nonid:
                nxt[self.dst(m)] += ending[self.src(m)]
            ending = nxt
            counts.append(sum(ending.values()))
        return counts[: max_dim + 1]

    def composable_pairs_all(self) -> int:
        """Pairs (f, g) with dst f = src g, identities included."""
        return sum(
            len([m for m in self.mors if self.dst(m) == b])
            * len([m for m in self.mors if self.src(m) == b])
            for b in self.objects
        )


def limit_families(objects, sets, arrows, mors) -> set[tuple]:
    """Every family (x_Y) with F(f)(x_src) = x_dst, by brute force."""
    out = set()
    for combo in itertools.product(*(sets[y] for y in objects)):
        fam = dict(zip(objects, combo))
        if all(arrows[m][fam[s]] == fam[d] for m, (s, d) in mors.items()):
            out.add(combo)
    return out


def naive_merge(elements: list, pairs: list) -> list[frozenset]:
    """Classes of the equivalence generated by ``pairs``: relabel every
    element with the least label in its class until nothing changes."""
    label = {e: k for k, e in enumerate(elements)}
    changed = True
    while changed:
        changed = False
        for a, b in pairs:
            low = min(label[a], label[b])
            if label[a] != low or label[b] != low:
                label[a] = label[b] = low
                changed = True
    blocks: dict[int, set] = {}
    for e in elements:
        blocks.setdefault(label[e], set()).add(e)
    return [frozenset(b) for b in blocks.values()]


def orbits_bfs(space: list[str], generators: list[dict]) -> list[frozenset]:
    seen: set[str] = set()
    out = []
    for y in space:
        if y in seen:
            continue
        block, frontier = {y}, [y]
        while frontier:
            nxt = []
            for u in frontier:
                for g in generators:
                    w = g[u]
                    if w not in block:
                        block.add(w)
                        nxt.append(w)
            frontier = nxt
        seen |= block
        out.append(frozenset(block))
    return out
