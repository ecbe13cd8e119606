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
