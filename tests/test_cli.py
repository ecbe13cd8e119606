from __future__ import annotations

import hashlib
import json

import pytest

from homcat.cli import main
from homcat.simplicial import horn, nerve

import corpus
from test_simplicial import s1_model


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def write(tmp_path, name, payload) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def category_file(tmp_path, cat, name="cat.json") -> str:
    return write(tmp_path, name, cat.to_json_dict())


def test_check_valid_category(tmp_path, capsys):
    path = category_file(tmp_path, corpus.walking_arrow())
    code, out = run(capsys, "check", path)
    assert code == 0
    report = json.loads(out)
    assert report["objects"] == 2
    assert report["morphisms"] == 3


def test_check_domain_error_is_exit_one(tmp_path, capsys):
    path = write(
        tmp_path,
        "bad.json",
        {
            "v": 1,
            "objects": ["A", "B", "C"],
            "morphisms": [
                {"name": "f", "src": "A", "dst": "B"},
                {"name": "g", "src": "B", "dst": "C"},
            ],
            "compose": [],
        },
    )
    code, out = run(capsys, "check", path)
    assert code == 1
    assert json.loads(out)["error"] == "MissingComposite"


def test_schema_error_is_exit_two(tmp_path, capsys):
    path = write(tmp_path, "nov.json", {"objects": ["A"]})
    code, out = run(capsys, "check", path)
    assert code == 2
    path2 = tmp_path / "garbage.json"
    path2.write_text("{not json", encoding="utf-8")
    code, _ = run(capsys, "check", str(path2))
    assert code == 2


def test_outputs_are_byte_deterministic(tmp_path, capsys):
    path = category_file(tmp_path, corpus.cyclic_group_category(2))
    _, first = run(capsys, "nerve", "--max-dim", "3", path)
    _, second = run(capsys, "nerve", "--max-dim", "3", path)
    assert first == second


def test_limit_and_colimit_roundtrip(tmp_path, capsys):
    diagram = {
        "v": 1,
        "shape": corpus.parallel_pair().to_json_dict(),
        "sets": {"S": ["a", "b"], "T": ["0", "1"]},
        "functions": {"a": {"a": "0", "b": "1"}, "b": {"a": "1", "b": "1"}},
    }
    path = write(tmp_path, "diag.json", diagram)
    code, out = run(capsys, "limit", path)
    assert code == 0
    assert json.loads(out)["apex"] == ["(b,1)"]
    code, out = run(capsys, "colimit", path)
    assert code == 0


def test_end_and_coend(tmp_path, capsys):
    cat = corpus.terminal_category()
    payload = {
        "v": 1,
        "shape": cat.to_json_dict(),
        "sets": {"*": {"*": ["p", "q"]}},
        "functions": {},
    }
    path = write(tmp_path, "bif.json", payload)
    code, out = run(capsys, "end", path)
    assert code == 0
    assert json.loads(out)["elements"] == ["(p)", "(q)"]
    code, out = run(capsys, "coend", path)
    assert code == 0
    assert len(json.loads(out)["elements"]) == 2


def test_kan_left_and_right(tmp_path, capsys):
    terminal = corpus.terminal_category()
    arrow = corpus.walking_arrow()
    diagram = {
        "v": 1,
        "shape": terminal.to_json_dict(),
        "sets": {"*": ["u", "v"]},
        "functions": {},
    }
    functor = {
        "v": 1,
        "source": terminal.to_json_dict(),
        "target": arrow.to_json_dict(),
        "objects": {"*": "A"},
        "morphisms": {},
    }
    dpath = write(tmp_path, "diagram.json", diagram)
    fpath = write(tmp_path, "functor.json", functor)
    code, out = run(capsys, "kan-left", dpath, fpath)
    assert code == 0
    payload = json.loads(out)
    assert len(payload["sets"]["A"]) == 2
    assert len(payload["sets"]["B"]) == 2
    assert payload["unit"]["*"]
    code, out = run(capsys, "kan-right", dpath, fpath)
    assert code == 0
    payload = json.loads(out)
    assert len(payload["sets"]["A"]) == 2
    assert len(payload["sets"]["B"]) == 1


def test_nerve_and_classify(tmp_path, capsys):
    path = category_file(tmp_path, corpus.cyclic_group_category(2))
    code, out = run(capsys, "nerve", "--max-dim", "3", path)
    assert code == 0
    nerve_payload = json.loads(out)
    assert [len(nerve_payload["cells"][str(n)]) for n in range(4)] == [1, 1, 1, 1]
    spath = write(tmp_path, "nerve.json", nerve_payload)
    code, out = run(capsys, "classify", "--max-dim", "3", spath)
    assert code == 0
    assert json.loads(out)["verdict"] == "kan"


def test_classify_horn_prints_witness(tmp_path, capsys):
    from homcat.simplicial import horn

    path = write(tmp_path, "horn.json", horn(2, 1, max_dim=2).to_json_dict())
    code, out = run(capsys, "classify", "--max-dim", "2", path)
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "neither"
    bad = [row for row in payload["horns"] if row["unfilled"]]
    assert bad and bad[0]["witness"] is not None


# sha256 of stdout on complexes with unfilled horns: how the fillers are
# searched for must not change a byte of either report
PINNED_HORN_REPORTS = [
    ("horn21", ["horns", "-n", "2", "-k", "1"],
     "242f5f1f4c314d94d15adb5c7b856b9a9bb66afa5a9e73aaab63827055be5dad"),
    ("horn21", ["classify", "--max-dim", "2"],
     "b0f022520852e1017d4b090bd5b8d0fd614195fc740384971d2633a59a5568eb"),
    ("arrow", ["horns", "-n", "2", "-k", "1"],
     "1df0f61fdaee82675f75ec151f845abfc2bdf2b5a4d67944fa2611bb15b0260f"),
    ("arrow", ["classify", "--max-dim", "2"],
     "1e86ecdc76400401684c49ce7c9738003d06d2121fa2ab308cd9be71952fc851"),
]


@pytest.mark.parametrize("complex_name,argv,digest", PINNED_HORN_REPORTS)
def test_horn_reports_are_byte_identical(tmp_path, capsys, complex_name, argv, digest):
    x = {
        "horn21": lambda: horn(2, 1),
        "arrow": lambda: nerve(corpus.walking_arrow(), 2),
    }[complex_name]()
    path = write(tmp_path, "x.json", x.to_json_dict())
    code, out = run(capsys, argv[0], path, *argv[1:])
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def hom_bifunctor(cat) -> dict:
    """Mor(x; y) of ``cat`` as a bifunctor file: (f, g) sends h to g∘h∘f."""
    return {
        "v": 1,
        "shape": cat.to_json_dict(),
        "sets": {x: {y: cat.hom(x, y) for y in cat.objects} for x in cat.objects},
        "functions": {
            f.name: {
                g.name: {
                    h: cat.compose(g.name, cat.compose(h, f.name))
                    for h in cat.hom(f.dst, g.src)
                }
                for g in cat.morphisms
            }
            for f in cat.morphisms
        },
    }


Z3 = {
    "v": 1,
    "elements": ["e", "g", "h"],
    "op": [["e", "g", "h"], ["g", "h", "e"], ["h", "e", "g"]],
    "unit": "e",
}

QUOTIENT_FIXTURES = {
    "s1": lambda: s1_model().to_json_dict(),
    "arrow-nerve": lambda: nerve(corpus.walking_arrow(), 2).to_json_dict(),
    "pair-diagram": lambda: {
        "v": 1,
        "shape": corpus.parallel_pair().to_json_dict(),
        "sets": {"S": ["a", "b", "c"], "T": ["0", "1", "2", "3"]},
        "functions": {
            "a": {"a": "0", "b": "1", "c": "2"},
            "b": {"a": "1", "b": "2", "c": "0"},
        },
    },
    "chain-diagram": lambda: {
        "v": 1,
        "shape": corpus.poset_chain(2).to_json_dict(),
        "sets": {"0": ["a", "b", "c"], "1": ["x", "y"], "2": ["p", "q"]},
        "functions": {
            "le01": {"a": "x", "b": "x", "c": "y"},
            "le12": {"x": "q", "y": "q"},
            "le02": {"a": "q", "b": "q", "c": "q"},
        },
    },
    "iso-hom": lambda: hom_bifunctor(corpus.walking_iso()),
    "monoid-hom": lambda: hom_bifunctor(corpus.idempotent_monoid_category()),
    "point-diagram": lambda: {
        "v": 1,
        "shape": corpus.terminal_category().to_json_dict(),
        "sets": {"*": ["u", "v"]},
        "functions": {},
    },
    "point-to-arrow": lambda: {
        "v": 1,
        "source": corpus.terminal_category().to_json_dict(),
        "target": corpus.walking_arrow().to_json_dict(),
        "objects": {"*": "A"},
        "morphisms": {},
    },
    "arrow-diagram": lambda: {
        "v": 1,
        "shape": corpus.walking_arrow().to_json_dict(),
        "sets": {"A": ["a1", "a2"], "B": ["b1", "b2"]},
        "functions": {"f": {"a1": "b1", "a2": "b1"}},
    },
    "arrow-to-point": lambda: {
        "v": 1,
        "source": corpus.walking_arrow().to_json_dict(),
        "target": corpus.terminal_category().to_json_dict(),
        "objects": {"A": "*", "B": "*"},
        "morphisms": {"f": "id_*"},
    },
    "components": lambda: {
        "v": 1,
        "dim": 1,
        "cells": {"0": ["d", "a", "c", "b", "e"], "1": ["p", "q", "r"]},
        "faces": {"p": ["b", "d"], "q": ["a", "c"], "r": ["e", "e"]},
    },
    "swap-action": lambda: {
        "v": 1,
        "monoid": {
            "v": 1,
            "elements": ["e", "g"],
            "op": [["e", "g"], ["g", "e"]],
            "unit": "e",
        },
        "space": ["1", "2", "3"],
        "act": [["1", "2", "3"], ["2", "1", "3"]],
    },
    "z3-action": lambda: {
        "v": 1,
        "monoid": Z3,
        "space": ["5", "1", "3", "2", "4", "6"],
        "act": [
            ["5", "1", "3", "2", "4", "6"],
            ["1", "3", "5", "4", "6", "2"],
            ["3", "5", "1", "6", "2", "4"],
        ],
    },
    "arrow-cat": lambda: corpus.walking_arrow().to_json_dict(),
    "chain-cat": lambda: corpus.poset_chain(2).to_json_dict(),
}

# sha256 of stdout of every verb that computes a union-find quotient; how
# the classes are found must not change a byte of any report
PINNED_QUOTIENT_REPORTS = [
    (["sd", "s1"],
     "49eba73fd14bc91bf3f1a5595aa4bbccbd56c96ec45b1f0934bd83af1ddc839d"),
    (["sd", "arrow-nerve"],
     "faddcd879103fcb65129e8d95da994e733f3afeaea3ec3664b0953fd41ff85a8"),
    (["ex", "s1"],
     "f674531d7ef52d414ccd0d639f9fc43782e2fa2d37a340d748f34c2935ba5509"),
    (["colimit", "pair-diagram"],
     "9b844c64707c8305a8c1703025cf3b773b417c037bf2be8d2cd375b6e098a056"),
    (["colimit", "chain-diagram"],
     "aa66d21357f8834721da8e9206f0675253f8d652a2bf5b59be2551cc040873d5"),
    (["coend", "iso-hom"],
     "a06b067601b7cfce6e1e03430dccd279f0b31b7d4a2f4f3e46056e2c47c36822"),
    (["coend", "monoid-hom"],
     "0ca5e379d6a0a1c3328c7f29960a2d467ca0cadc9878fcff13d4ba422d9bb531"),
    (["kan-left", "point-diagram", "point-to-arrow"],
     "2a16f276ca813cd8ae25c02b89ae139cfb71333b01ff9f3e0be0258c1d2b83e4"),
    (["kan-left", "arrow-diagram", "arrow-to-point"],
     "8ef02c883ce8dafa2176e8e2c9cbc695748dae07325bbb1f9e8bfd925d67acfb"),
    (["pi0", "components"],
     "6474de9a9743e1062cc16af7af824ae92ce23703c3b34d83a1f2028c4b3d553d"),
    (["orbit", "swap-action"],
     "c80f6d3f02433ebf3709cd47896f55eff39714de177ce51b1c6d191c7d63a869"),
    (["orbit", "z3-action"],
     "a4b0f903fc852f334a833963ae70c14ba777bf74f906a0bbe0c95ffad904b140"),
    (["localize", "arrow-cat", "--weq", "f"],
     "6af4ad7fff952e409c47fd597b1fca7b1af2bcc06b6f3eba790a50aaf4f7e87d"),
    (["localize", "chain-cat", "--weq", "le01,le12"],
     "89f86b977c06a6abee92626222ca7694db03e6efb748f3fddfb72c6db94bd114"),
]


def quotient_report(tmp_path, capsys, argv) -> tuple[int, str]:
    args = [
        write(tmp_path, f"{a}.json", QUOTIENT_FIXTURES[a]())
        if a in QUOTIENT_FIXTURES else a
        for a in argv
    ]
    return run(capsys, *args)


@pytest.mark.parametrize("argv,digest", PINNED_QUOTIENT_REPORTS)
def test_quotient_reports_are_byte_identical(tmp_path, capsys, argv, digest):
    code, out = quotient_report(tmp_path, capsys, argv)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_horns_verb(tmp_path, capsys):
    path = write(tmp_path, "s1.json", s1_model().to_json_dict())
    code, out = run(capsys, "horns", path, "-n", "2", "-k", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 2 and payload["k"] == 1
    assert payload["assignments"]


def test_pi0_pi1(tmp_path, capsys):
    path = write(tmp_path, "s1.json", s1_model().to_json_dict())
    code, out = run(capsys, "pi0", path)
    assert code == 0
    assert json.loads(out)["components"] == [["v"]]
    code, out = run(capsys, "pi1", path, "--base", "v")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "generators: 1"
    assert lines[1] == "relators: 0"
    assert lines[2] == "abelianization: Z"


def test_pi1_missing_base_is_domain_error(tmp_path, capsys):
    path = write(tmp_path, "s1.json", s1_model().to_json_dict())
    code, out = run(capsys, "pi1", path, "--base", "zz")
    assert code == 1
    assert json.loads(out)["error"] == "BaseNotFound"


def test_svk_verb(tmp_path, capsys):
    phi = {
        "v": 1,
        "source": {"v": 1, "gens": ["c"], "rels": []},
        "target": {"v": 1, "gens": ["x"], "rels": []},
        "images": {"c": ["x"]},
    }
    p1 = write(tmp_path, "phi1.json", phi)
    p2 = write(tmp_path, "phi2.json", phi)
    code, out = run(capsys, "svk", p1, p2)
    assert code == 0
    payload = json.loads(out)
    assert payload["gens"] == ["x", "x_2"]
    assert payload["abelianization"] == {"rank": 1, "torsion": []}


def test_sd_ex_and_ex_iter(tmp_path, capsys):
    path = write(tmp_path, "s1.json", s1_model().to_json_dict())
    code, out = run(capsys, "sd", path)
    assert code == 0
    payload = json.loads(out)
    assert len(payload["cells"]["0"]) == 2
    assert len(payload["cells"]["1"]) == 2
    code, out = run(capsys, "ex", path)
    assert code == 0
    assert len(json.loads(out)["cells"]["1"]) >= 3
    code, out = run(capsys, "ex-iter", path, "-k", "1")
    assert code == 0
    stages = json.loads(out)["stages"]
    assert len(stages) == 2


def test_localize_verb(tmp_path, capsys):
    path = category_file(tmp_path, corpus.walking_arrow())
    code, out = run(capsys, "localize", path, "--weq", "f")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["category"]["morphisms"]) == 2  # non-identity ones
    code, out = run(capsys, "localize", path, "--weq", "f", "--cap", "3")
    assert code == 1
    assert json.loads(out)["error"] == "CapExceeded"


def test_model_check_verb(tmp_path, capsys):
    cat = corpus.walking_iso()
    names = [m.name for m in cat.morphisms]
    path = write(
        tmp_path,
        "model.json",
        {
            "v": 1,
            "category": cat.to_json_dict(),
            "weq": names,
            "fib": names,
            "cof": names,
        },
    )
    code, out = run(capsys, "model-check", path)
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["functoriality_checked"] is False


def test_orbit_and_monoid_verbs(tmp_path, capsys):
    monoid = {
        "v": 1,
        "elements": ["e", "g"],
        "op": [["e", "g"], ["g", "e"]],
        "unit": "e",
    }
    path = write(tmp_path, "monoid.json", monoid)
    code, out = run(capsys, "check-monoid", path)
    assert code == 0
    assert json.loads(out)["group"] is True
    action = {
        "v": 1,
        "monoid": monoid,
        "space": ["1", "2", "3"],
        "act": [["1", "2", "3"], ["2", "1", "3"]],
    }
    apath = write(tmp_path, "action.json", action)
    code, out = run(capsys, "orbit", apath)
    assert code == 0
    assert json.loads(out)["orbits"] == [["1", "2"], ["3"]]
    code, out = run(capsys, "check-action", apath)
    assert code == 0


def test_eckmann_hilton_verb(capsys):
    code, out = run(capsys, "eckmann-hilton", "--max-size", "2")
    assert code == 0
    payload = json.loads(out)
    assert all(row["counterexamples"] == [] for row in payload["sizes"])


def test_emitted_artifacts_reparse(tmp_path, capsys):
    # round trip: nerve output feeds classify and sd without complaint
    path = category_file(tmp_path, corpus.walking_arrow())
    _, out = run(capsys, "nerve", "--max-dim", "2", path)
    spath = write(tmp_path, "again.json", json.loads(out))
    code, _ = run(capsys, "sd", spath)
    assert code == 0
    code, _ = run(capsys, "classify", "--max-dim", "2", spath)
    assert code == 0
