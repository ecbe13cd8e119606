"""Finite monoids, groups, actions, orbits, and the interchange-law scan.

Orbits are computed along two independent routes (the parallel-pair pushout
from setcalc and direct reachability closure) and compared; the scan
enumerates pairs of unital operations satisfying interchange and confirms
they collapse to a single commutative monoid structure.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import (
    AssocAxiomFailed,
    BudgetExceeded,
    NoUnit,
    NotAGroup,
    NotAssociative,
    SchemaError,
    UnitAxiomFailed,
)
from .fincat import join_names, partition
from .setcalc import FinFunction, FinSetRep, pushout


@dataclass
class FinMonoid:
    carrier: FinSetRep
    op: dict[tuple[str, str], str]
    unit: str

    def mult(self, a: str, b: str) -> str:
        return self.op[(a, b)]


def check_monoid(raw: dict) -> FinMonoid:
    """Validate a multiplication table given as a JSON matrix."""
    if not isinstance(raw, dict):
        raise SchemaError("monoid payload must be an object")
    for key in raw:
        if key not in {"v", "elements", "op", "unit"}:
            raise SchemaError(f"unknown field {key!r} in monoid file")
    elements = raw.get("elements")
    if not elements or len(set(elements)) != len(elements):
        raise SchemaError("'elements' must be a nonempty list of distinct tokens")
    table = raw.get("op")
    if (
        not isinstance(table, list)
        or len(table) != len(elements)
        or any(len(row) != len(elements) for row in table)
    ):
        raise SchemaError("'op' must be a square matrix over the elements")
    op = {}
    for i, a in enumerate(elements):
        for j, b in enumerate(elements):
            value = table[i][j]
            if value not in elements:
                raise SchemaError(f"table entry {value!r} is not an element")
            op[(a, b)] = value
    unit = raw.get("unit")
    if unit is None:
        for e in elements:
            if all(op[(e, x)] == x == op[(x, e)] for x in elements):
                unit = e
                break
        else:
            raise NoUnit("no two-sided unit in the table")
    elif unit not in elements:
        raise SchemaError(f"unit {unit!r} is not an element")
    for x in elements:
        if op[(unit, x)] != x or op[(x, unit)] != x:
            raise NoUnit(f"{unit!r} is not a unit at {x!r}", witness=x)
    for a in elements:
        for b in elements:
            for c in elements:
                if op[(op[(a, b)], c)] != op[(a, op[(b, c)])]:
                    raise NotAssociative(
                        "associativity fails", witness=[a, b, c]
                    )
    return FinMonoid(FinSetRep("carrier", tuple(elements)), op, unit)


def check_group(monoid: FinMonoid) -> dict[str, str]:
    """Two-sided inversion table, or NotAGroup with the witness element."""
    inverse = {}
    for x in monoid.carrier.elements:
        for y in monoid.carrier.elements:
            if (
                monoid.mult(x, y) == monoid.unit
                and monoid.mult(y, x) == monoid.unit
            ):
                inverse[x] = y
                break
        else:
            raise NotAGroup(f"{x!r} has no inverse", witness=x)
    return inverse


@dataclass
class FinAction:
    actor: FinMonoid
    space: FinSetRep
    act: dict[tuple[str, str], str]

    def __call__(self, x: str, y: str) -> str:
        return self.act[(x, y)]


def check_action(raw: dict) -> FinAction:
    """Validate an action table: unit row fixed, associativity over all
    pairs of actor elements."""
    if not isinstance(raw, dict):
        raise SchemaError("action payload must be an object")
    for key in raw:
        if key not in {"v", "monoid", "space", "act"}:
            raise SchemaError(f"unknown field {key!r} in action file")
    monoid = check_monoid(raw.get("monoid", {}))
    space = raw.get("space")
    if space is None or len(set(space)) != len(space):
        raise SchemaError("'space' must be a list of distinct tokens")
    table = raw.get("act")
    actor_elems = monoid.carrier.elements
    if (
        not isinstance(table, list)
        or len(table) != len(actor_elems)
        or any(len(row) != len(space) for row in table)
    ):
        raise SchemaError("'act' must be an |actor| x |space| matrix")
    act = {}
    for i, x in enumerate(actor_elems):
        for j, y in enumerate(space):
            value = table[i][j]
            if value not in space:
                raise SchemaError(f"action value {value!r} is outside the space")
            act[(x, y)] = value
    for y in space:
        if act[(monoid.unit, y)] != y:
            raise UnitAxiomFailed("unit does not act trivially", witness=y)
    for x1 in actor_elems:
        for x2 in actor_elems:
            for y in space:
                if act[(monoid.mult(x1, x2), y)] != act[(x1, act[(x2, y)])]:
                    raise AssocAxiomFailed(
                        "action associativity fails", witness=[x1, x2, y]
                    )
    return FinAction(monoid, FinSetRep("space", tuple(space)), act)


def action_to_aut_hom(action: FinAction) -> dict[str, tuple[str, ...]]:
    """x ↦ the permutation y ↦ x·y, for group actors only.

    Permutations are value tuples in space order; the unit maps to the
    identity and multiplication to composition by construction checks.
    """
    check_group(action.actor)
    perms = {}
    space = action.space.elements
    for x in action.actor.carrier.elements:
        values = tuple(action(x, y) for y in space)
        if len(set(values)) != len(space):
            raise NotAGroup(f"{x!r} does not act bijectively", witness=x)
        perms[x] = values
    index = {y: k for k, y in enumerate(space)}
    for a in action.actor.carrier.elements:
        for b in action.actor.carrier.elements:
            composed = tuple(perms[a][index[v]] for v in perms[b])
            if composed != perms[action.actor.mult(a, b)]:
                raise NotAGroup(
                    "the induced assignment is not a homomorphism",
                    witness=[a, b],
                )
    return perms


def orbit(action: FinAction) -> list[list[str]]:
    """Orbit partition, computed as the pushout of (projection, action) and
    independently as reachability closure; the two must agree."""
    space = action.space.elements
    names = join_names(
        [(x, y) for x in action.actor.carrier.elements for y in space], "|"
    )
    product = FinSetRep("actor×space", tuple(names.values()))
    proj = FinFunction(product, action.space, {n: y for (_, y), n in names.items()})
    act = FinFunction(
        product, action.space, {n: action(x, y) for (x, y), n in names.items()}
    )
    cone = pushout(proj, act)
    pushout_blocks: dict[str, list] = {}
    for y in space:
        pushout_blocks.setdefault(cone.legs["L"](y), []).append(y)

    closure_blocks = partition(
        space,
        ((y, action(x, y)) for x in action.actor.carrier.elements for y in space),
    )

    via_pushout = {frozenset(b) for b in pushout_blocks.values()}
    via_closure = {frozenset(b) for b in closure_blocks}
    if via_pushout != via_closure:
        raise AssocAxiomFailed(
            "pushout orbit disagrees with reachability closure",
            pushout=sorted(map(sorted, via_pushout)),
            closure=sorted(map(sorted, via_closure)),
        )
    return closure_blocks


# -- the interchange-law scan ---------------------------------------------------


def _unital_tables(elements: tuple[str, ...]):
    """All binary operations on the carrier with some two-sided unit."""
    n = len(elements)
    for unit_idx in range(n):
        unit = elements[unit_idx]
        free = [
            (a, b)
            for a in elements
            for b in elements
            if a != unit and b != unit
        ]
        for values in itertools.product(elements, repeat=len(free)):
            table = {}
            for x in elements:
                table[(unit, x)] = x
                table[(x, unit)] = x
            table.update(dict(zip(free, values)))
            yield unit, table


@dataclass
class InterchangeReport:
    size: int
    pairs_checked: int
    interchange_pairs: int
    counterexamples: list


def eckmann_hilton_scan(max_size: int) -> list[InterchangeReport]:
    """Exhaustively test the interchange collapse on carriers up to
    ``max_size``: any two unital operations satisfying
    (a⋆b)∘(c⋆d) = (a∘c)⋆(b∘d) must coincide and be commutative and
    associative.  Distinct units are allowed; interchange forces them equal.

    Each table is also built once as a flat tuple of element indices (i∘j
    at position i·n + j).  For one ⋆, the law on each quadruple is a
    condition on three entries of ∘, met by a bitset of tables read off
    per-position masks; every ∘ is decided by intersecting those bitsets.
    """
    if max_size < 1:
        raise SchemaError(f"scan size must be at least 1, got {max_size}",
                          size=max_size)
    if max_size >= 4:
        raise BudgetExceeded(
            "sizes from 4 up need 10^12 table pairs or more; the scan stops at 3",
            size=max_size,
        )
    reports = []
    for size in range(1, max_size + 1):
        elements = tuple(f"x{k}" for k in range(size))
        index = {x: k for k, x in enumerate(elements)}
        tables = [
            (unit, op, tuple(index[op[(a, b)]] for a in elements for b in elements))
            for unit, op in _unital_tables(elements)
        ]
        masks, quads = _interchange_kernel([flat for _, _, flat in tables], size)
        interchange_pairs, counterexamples = 0, []
        for unit1, op1, flat1 in tables:
            partners = _interchange_partners(flat1, size, masks, quads)
            interchange_pairs += partners.bit_count()
            while partners:
                unit2, op2, _ = tables[(partners & -partners).bit_length() - 1]
                partners &= partners - 1
                problems = _collapse_failures(elements, unit1, op1, unit2, op2)
                if problems:
                    counterexamples.append(problems)
        reports.append(InterchangeReport(
            size, len(tables) ** 2, interchange_pairs, counterexamples))
    return reports


def _interchange_kernel(flats, n):
    """masks[p][v], the bitset of the tables (bit k for ``flats[k]``) with v
    at position p; and per quadruple (a, b, c, d), most distinct indices
    first, the positions a·n+b and c·n+d of ⋆ and the nonzero terms
    (x·n+y, masks[a·n+c][x] & masks[b·n+d][y])."""
    masks = [[0] * n for _ in range(n * n)]
    for k, flat in enumerate(flats):
        for p, v in enumerate(flat):
            masks[p][v] |= 1 << k
    quads = []
    for a, b, c, d in sorted(itertools.product(range(n), repeat=4),
                             key=lambda q: -len(set(q))):
        ac, bd = masks[a * n + c], masks[b * n + d]
        quads.append((a * n + b, c * n + d, [
            (x * n + y, t) for x in range(n) for y in range(n) if (t := ac[x] & bd[y])
        ]))
    return masks, quads


def _interchange_partners(star, n, masks, quads) -> int:
    """The bitset of the ∘ that satisfy (a⋆b)∘(c⋆d) = (a∘c)⋆(b∘d) with the
    index table ``star``: per quadruple, the ∘ in the term for (x, y) that
    hold ⋆[x, y] at ⋆[a, b]·n + ⋆[c, d], intersected until none is left."""
    partners = -1  # all ones: every ∘ until a quadruple rules some out
    for ab, cd, terms in quads:
        row = masks[star[ab] * n + star[cd]]
        holds = 0
        for xy, term in terms:
            holds |= term & row[star[xy]]
        partners &= holds
        if not partners:
            break
    return partners


def _collapse_failures(elements, unit1, op1, unit2, op2):
    problems = []
    if unit1 != unit2:
        problems.append(("units-differ", unit1, unit2))
    if op1 != op2:
        problems.append(("operations-differ",))
    for a in elements:
        for b in elements:
            if op1[(a, b)] != op1[(b, a)]:
                problems.append(("not-commutative", a, b))
            for c in elements:
                if op1[(op1[(a, b)], c)] != op1[(a, op1[(b, c)])]:
                    problems.append(("not-associative", a, b, c))
    return problems
