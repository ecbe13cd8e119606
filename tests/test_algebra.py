from __future__ import annotations

import hashlib
import itertools
import random

import pytest

from homcat.algebra import (
    FinAction,
    _collapse_failures,
    _interchange_kernel,
    _interchange_partners,
    _unital_tables,
    action_to_aut_hom,
    check_action,
    check_group,
    check_monoid,
    eckmann_hilton_scan,
    orbit,
)
from homcat.cli import main
from homcat.errors import (
    AssocAxiomFailed,
    BudgetExceeded,
    NoUnit,
    NotAGroup,
    NotAssociative,
    SchemaError,
    UnitAxiomFailed,
)

def cyclic_monoid_raw(n: int) -> dict:
    elements = [f"g{k}" for k in range(n)]
    op = [
        [f"g{(i + j) % n}" for j in range(n)]
        for i in range(n)
    ]
    return {"v": 1, "elements": elements, "op": op, "unit": "g0"}


def max_monoid_raw() -> dict:
    return {
        "v": 1,
        "elements": ["0", "1"],
        "op": [["0", "1"], ["1", "1"]],
        "unit": "0",
    }


# -- monoids and groups -------------------------------------------------------


def test_trivial_monoid_is_a_group():
    m = check_monoid({"v": 1, "elements": ["e"], "op": [["e"]], "unit": "e"})
    assert check_group(m) == {"e": "e"}


def test_cyclic_three_inverses():
    m = check_monoid(cyclic_monoid_raw(3))
    inv = check_group(m)
    assert inv["g1"] == "g2" and inv["g2"] == "g1" and inv["g0"] == "g0"


def test_max_monoid_is_not_a_group():
    m = check_monoid(max_monoid_raw())
    with pytest.raises(NotAGroup) as exc:
        check_group(m)
    assert exc.value.payload["witness"] == "1"


def test_non_associative_table_rejected():
    raw = {
        "v": 1,
        "elements": ["e", "a", "b"],
        "op": [["e", "a", "b"], ["a", "b", "b"], ["b", "a", "e"]],
        "unit": "e",
    }
    with pytest.raises(NotAssociative) as exc:
        check_monoid(raw)
    assert len(exc.value.payload["witness"]) == 3


def test_unit_is_discovered_or_validated():
    raw = cyclic_monoid_raw(2)
    del raw["unit"]
    m = check_monoid(raw)
    assert m.unit == "g0"
    with pytest.raises(NoUnit):
        check_monoid(
            {"v": 1, "elements": ["a", "b"], "op": [["a", "a"], ["a", "a"]]}
        )


# -- actions --------------------------------------------------------------------


def swap_action_raw() -> dict:
    return {
        "v": 1,
        "monoid": cyclic_monoid_raw(2),
        "space": ["1", "2"],
        "act": [["1", "2"], ["2", "1"]],
    }


def test_trivial_action_is_valid():
    raw = {
        "v": 1,
        "monoid": cyclic_monoid_raw(3),
        "space": ["p", "q"],
        "act": [["p", "q"], ["p", "q"], ["p", "q"]],
    }
    check_action(raw)


def test_swap_action_is_valid():
    action = check_action(swap_action_raw())
    assert action("g1", "1") == "2"


def test_corrupt_unit_row_fails():
    raw = swap_action_raw()
    raw["act"][0] = ["2", "1"]
    with pytest.raises(UnitAxiomFailed):
        check_action(raw)


def test_action_associativity_enforced():
    raw = {
        "v": 1,
        "monoid": cyclic_monoid_raw(2),
        "space": ["1", "2", "3"],
        # g1 maps 1->2, 2->3, 3->1: not an involution, so g1·g1 = e breaks
        "act": [["1", "2", "3"], ["2", "3", "1"]],
    }
    with pytest.raises(AssocAxiomFailed):
        check_action(raw)


def test_action_to_aut_hom_on_swap():
    action = check_action(swap_action_raw())
    perms = action_to_aut_hom(action)
    assert perms["g0"] == ("1", "2")
    assert perms["g1"] == ("2", "1")
    assert perms["g0"] != perms["g1"]  # faithful here


def test_action_to_aut_hom_needs_group():
    raw = {
        "v": 1,
        "monoid": max_monoid_raw(),
        "space": ["1", "2"],
        "act": [["1", "2"], ["1", "1"]],
    }
    action = check_action(raw)
    with pytest.raises(NotAGroup):
        action_to_aut_hom(action)


# -- orbits ----------------------------------------------------------------------


def test_trivial_action_orbits_are_singletons():
    raw = {
        "v": 1,
        "monoid": cyclic_monoid_raw(2),
        "space": ["p", "q", "r"],
        "act": [["p", "q", "r"], ["p", "q", "r"]],
    }
    assert orbit(check_action(raw)) == [["p"], ["q"], ["r"]]


def test_swap_orbit_is_transitive():
    assert orbit(check_action(swap_action_raw())) == [["1", "2"]]


def test_orbit_with_fixed_point():
    raw = {
        "v": 1,
        "monoid": cyclic_monoid_raw(2),
        "space": ["1", "2", "3"],
        "act": [["1", "2", "3"], ["2", "1", "3"]],
    }
    assert orbit(check_action(raw)) == [["1", "2"], ["3"]]


def test_orbit_with_bars_in_actor_and_space_names():
    # the pairs (e, f|g) and (e|f, g) would both be named e|f|g
    raw = {
        "v": 1,
        "monoid": {
            "v": 1,
            "elements": ["e", "e|f"],
            "op": [["e", "e|f"], ["e|f", "e"]],
            "unit": "e",
        },
        "space": ["f|g", "g"],
        "act": [["f|g", "g"], ["g", "f|g"]],
    }
    assert orbit(check_action(raw)) == [["f|g", "g"]]


def random_group_action(rng: random.Random) -> FinAction:
    """A random Z/n action (cycle type dividing n) or an idempotent-monoid
    action, on a random small space."""
    if rng.random() < 0.7:
        n = rng.choice([2, 3, 4])
        raw_monoid = cyclic_monoid_raw(n)
        size = rng.randint(1, 5)
        space = [f"y{k}" for k in range(size)]
        # build a permutation whose order divides n from cycles
        remaining = list(space)
        rng.shuffle(remaining)
        cycle_sizes = [d for d in (1, 2, 3, 4) if n % d == 0]
        perm = {}
        while remaining:
            size_choice = rng.choice([d for d in cycle_sizes if d <= len(remaining)])
            cycle = [remaining.pop() for _ in range(size_choice)]
            for k, y in enumerate(cycle):
                perm[y] = cycle[(k + 1) % len(cycle)]
        rows = []
        power = {y: y for y in space}
        for _ in range(n):
            rows.append([power[y] for y in space])
            power = {y: perm[power[y]] for y in space}
        raw = {"v": 1, "monoid": raw_monoid, "space": space, "act": rows}
        return check_action(raw)
    # idempotent monoid {e, a} with a*a = a acting by an idempotent map:
    # pick a retract image and send everything into it, fixing it pointwise
    size = rng.randint(1, 5)
    space = [f"y{k}" for k in range(size)]
    image_set = rng.sample(space, rng.randint(1, size))
    idem = {y: y if y in image_set else rng.choice(image_set) for y in space}
    raw = {
        "v": 1,
        "monoid": {
            "v": 1,
            "elements": ["e", "a"],
            "op": [["e", "a"], ["a", "a"]],
            "unit": "e",
        },
        "space": space,
        "act": [[y for y in space], [idem[y] for y in space]],
    }
    return check_action(raw)


def test_orbits_cross_check_on_random_actions():
    rng = random.Random(424242)
    for _ in range(120):
        action = random_group_action(rng)
        orbit(action)  # raises if the two routes disagree


# -- interchange scan -------------------------------------------------------------


def test_scan_size_one_vacuous():
    reports = eckmann_hilton_scan(1)
    assert reports[0].counterexamples == []
    assert reports[0].interchange_pairs >= 1


def test_scan_sizes_up_to_three_find_nothing():
    reports = eckmann_hilton_scan(3)
    assert [r.size for r in reports] == [1, 2, 3]
    for report in reports:
        assert report.counterexamples == []
        assert report.interchange_pairs > 0


def test_scan_size_below_one_is_rejected():
    for size in (0, -2):
        with pytest.raises(SchemaError) as exc:
            eckmann_hilton_scan(size)
        assert exc.value.payload["size"] == size


def test_scan_size_four_is_rejected():
    with pytest.raises(BudgetExceeded):
        eckmann_hilton_scan(4)
    with pytest.raises(BudgetExceeded):
        eckmann_hilton_scan(9)


def interchange_oracle(elements, op1, op2) -> bool:
    """The interchange test on dict-keyed tables, as the scan ran it before
    it moved to index tables."""
    for a in elements:
        for b in elements:
            ab = op1[(a, b)]
            for c in elements:
                ac = op2[(a, c)]
                for d in elements:
                    if op2[(ab, op1[(c, d)])] != op1[(ac, op2[(b, d)])]:
                        return False
    return True


def interchange_holds_on_indices(flat1, flat2, n) -> bool:
    """The per-pair loop on index tables (i⋆j at position i·n + j) that the
    scan ran before it decided each ⋆ against every ∘ at once."""
    for a, b, c, d in itertools.product(range(n), repeat=4):
        ab, cd, ac, bd = a * n + b, c * n + d, a * n + c, b * n + d
        if flat2[flat1[ab] * n + flat1[cd]] != flat1[flat2[ac] * n + flat2[bd]]:
            return False
    return True


def unital_index_tables(size):
    """The elements and the scan's unital tables, as dicts and as index
    tables."""
    elements = tuple(f"x{k}" for k in range(size))
    index = {x: k for k, x in enumerate(elements)}
    ops = [op for _, op in _unital_tables(elements)]
    flats = [tuple(index[op[(a, b)]] for a in elements for b in elements) for op in ops]
    return elements, ops, flats


def kernel_partners(flats, n, masks, quads) -> list[int]:
    return [_interchange_partners(flat, n, masks, quads) for flat in flats]


def old_loop_partners(flats, n) -> list[int]:
    return [
        sum(1 << k for k, flat2 in enumerate(flats)
            if interchange_holds_on_indices(flat1, flat2, n))
        for flat1 in flats
    ]


def test_index_interchange_matches_dict_oracle():
    # the partner bitset of every ⋆ against every ∘, all 243 × 243 pairs at
    # size 3, from the kernel, the old per-pair loop and the dict oracle
    for size, pairs in ((1, 1), (2, 4), (3, 27)):
        elements, ops, flats = unital_index_tables(size)
        want = [
            sum(1 << k for k, op2 in enumerate(ops)
                if interchange_oracle(elements, op1, op2))
            for op1 in ops
        ]
        masks, quads = _interchange_kernel(flats, size)
        assert kernel_partners(flats, size, masks, quads) == want
        assert old_loop_partners(flats, size) == want
        assert sum(p.bit_count() for p in want) == pairs


def test_kernel_mutants_disagree_with_the_oracle():
    # ⋆ and ∘ below break interchange on the one quadruple (2, 2, 2, 2);
    # over the unital tables alone every quadruple is implied by the
    # others, so a kernel that drops one would go unseen there
    star = (0, 0, 1, 0, 1, 0, 0, 0, 1)
    circ = (0, 0, 0, 0, 0, 0, 0, 0, 1)
    assert not interchange_holds_on_indices(star, circ, 3)
    _, _, flats = unital_index_tables(3)
    flats += [star, circ]
    want = old_loop_partners(flats, 3)
    masks, quads = _interchange_kernel(flats, 3)
    assert kernel_partners(flats, 3, masks, quads) == want
    # one quadruple dropped: (2, 2, 2, 2) reads positions 8 and 8 of ⋆
    kept = [q for q in quads if q[:2] != (8, 8)]
    assert len(kept) == len(quads) - 1
    assert kernel_partners(flats, 3, masks, kept) != want
    # one corrupted mask: addition mod 3 recorded with 1+1 = 0 instead of 2
    add = (0, 1, 2, 1, 2, 0, 2, 0, 1)
    k = flats.index(add)
    wrong = list(flats)
    wrong[k] = add[:4] + (0,) + add[5:]
    bad_masks, bad_quads = _interchange_kernel(wrong, 3)
    assert bad_masks[4][2] >> k & 1 == 0 and bad_masks[4][0] >> k & 1 == 1
    assert kernel_partners(flats, 3, bad_masks, bad_quads) != want


def test_collapse_failures_lists_every_problem():
    # x0 and x1 are the units; x⋆y depends on y alone (x1 ↦ x2, x2 ↦ x1) on
    # {x1, x2}, so (x⋆y)⋆z ≠ x⋆(y⋆z) on every triple there
    elements = ("x0", "x1", "x2")
    op1 = {("x0", y): y for y in elements} | {(y, "x0"): y for y in elements}
    op1 |= {("x1", "x1"): "x2", ("x1", "x2"): "x1",
            ("x2", "x1"): "x2", ("x2", "x2"): "x1"}
    op2 = {("x1", y): y for y in elements} | {(y, "x1"): y for y in elements}
    op2 |= {("x0", "x0"): "x0", ("x0", "x2"): "x2",
            ("x2", "x0"): "x2", ("x2", "x2"): "x0"}
    assert _collapse_failures(elements, "x0", op1, "x1", op2) == [
        ("units-differ", "x0", "x1"),
        ("operations-differ",),
        ("not-associative", "x1", "x1", "x1"),
        ("not-associative", "x1", "x1", "x2"),
        ("not-commutative", "x1", "x2"),
        ("not-associative", "x1", "x2", "x1"),
        ("not-associative", "x1", "x2", "x2"),
        ("not-commutative", "x2", "x1"),
        ("not-associative", "x2", "x1", "x1"),
        ("not-associative", "x2", "x1", "x2"),
        ("not-associative", "x2", "x2", "x1"),
        ("not-associative", "x2", "x2", "x2"),
    ]


def test_scan_report_is_byte_identical(capsys):
    # sha256 of stdout of the size-3 scan: 1, 16 and 59049 pairs checked,
    # 1, 4 and 27 of them satisfying interchange, no counterexample
    assert main(["eckmann-hilton", "--max-size", "3"]) == 0
    out = capsys.readouterr().out
    digest = "be5568336c9e68c9b9337e0c3f4cc408ddda59c1e0ae5a7b67c89fffc6300018"
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
    reports = eckmann_hilton_scan(3)
    assert [(r.pairs_checked, r.interchange_pairs) for r in reports] == [
        (1, 1), (16, 4), (59049, 27)
    ]
