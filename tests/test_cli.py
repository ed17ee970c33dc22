import json
import os

import pytest

from repherd import io as rio
from repherd.cli import main
from repherd.modules import is_isomorphic

from tests.conftest import fixture_path


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_info_loop2(capsys):
    code, out = run(capsys, "info", fixture_path("loop2.json"))
    assert code == 0
    data = json.loads(out)
    assert data["dimension"] == 4
    assert data["vertex_count"] == 2 and data["arrow_count"] == 2


def test_info_a2(capsys):
    code, out = run(capsys, "info", fixture_path("a2.json"))
    assert code == 0 and json.loads(out)["dimension"] == 3


def test_info_malformed_relation(tmp_path, capsys):
    bad = {
        "field": "Q",
        "vertices": ["1", "2"],
        "arrows": [{"name": "a", "from": "1", "to": "2"}],
        "relations": [[{"coeff": "1", "path": ["a"]}]],
        "length_bound": 2,
    }
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(bad))
    code = main(["info", str(p)])
    assert code == 4


def test_info_parse_error_line_column(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text('{"field": "Q",,}')
    code = main(["info", str(p)])
    assert code == 4


def test_check_exit_codes(capsys):
    assert run(capsys, "check", fixture_path("loop2.json"))[0] == 0
    assert run(capsys, "check", fixture_path("a2.json"))[0] == 2
    assert run(capsys, "check", fixture_path("kron.json"), "--budget-modules", "20")[0] == 3


def test_check_tilted5_actual_exit(capsys):
    # this fixture is representation-hereditary (gl.dim End(A+DA) = 3)
    assert run(capsys, "check", fixture_path("tilted5.json"))[0] == 0


def test_check_module_exit_codes(capsys):
    assert run(capsys, "check-module", fixture_path("kron.json"), fixture_path("kron_regular.json"))[0] == 0
    assert run(capsys, "check-module", fixture_path("kron.json"), fixture_path("kron_preproj.json"))[0] == 0
    # a module inside add(A + DA) is degenerate for this command
    assert (
        run(capsys, "check-module", fixture_path("tilted5.json"), fixture_path("tilted5_tauinv4p1.json"))[0]
        == 2
    )


def test_ar_quiver_dot(capsys, tmp_path):
    out_path = tmp_path / "ar.dot"
    code, out = run(capsys, "ar-quiver", fixture_path("loop2.json"), "--dot", str(out_path))
    assert code == 0
    dot = out_path.read_text()
    assert dot.count("->") - dot.count("style=dashed") == 6  # six solid arrows
    assert dot.count('label="P(1) dim=(2,1)"') == 1
    assert "shape=diamond" in dot and "shape=box" in dot


def test_ar_quiver_incomplete(capsys):
    code, _ = run(capsys, "ar-quiver", fixture_path("kron.json"), "--budget-modules", "8")
    assert code == 3


E6 = {
    "field": {"GFp": 101},
    "vertices": ["1", "2", "3", "4", "5", "6"],
    "arrows": [
        {"name": "a", "from": "1", "to": "2"},
        {"name": "b", "from": "3", "to": "2"},
        {"name": "c", "from": "3", "to": "4"},
        {"name": "d", "from": "5", "to": "4"},
        {"name": "e", "from": "3", "to": "6"},
    ],
    "relations": [],
    "length_bound": 2,
}


def test_ar_quiver_completes_at_a_raised_budget(capsys, tmp_path):
    """E6's 36 indecomposables have total dimension 156, above the default limit of 128."""
    alg_path = tmp_path / "e6.json"
    alg_path.write_text(json.dumps(E6))
    assert run(capsys, "ar-quiver", str(alg_path))[0] == 3
    assert run(capsys, "ar-quiver", str(alg_path), "--budget-dim", "256", "--budget-modules", "20")[0] == 3
    out_path = tmp_path / "e6.dot"
    code, _ = run(capsys, "ar-quiver", str(alg_path), "--budget-dim", "256", "--dot", str(out_path))
    assert code == 0
    dot = out_path.read_text()
    assert dot.count("shape=") == 36
    assert dot.count("shape=box") == 6 and dot.count("shape=diamond") == 6


def test_check_json_deterministic(tmp_path, capsys):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert run(capsys, "check", fixture_path("loop2.json"), "--suite", "all", "--json", str(out1))[0] == 0
    assert run(capsys, "check", fixture_path("loop2.json"), "--suite", "all", "--json", str(out2))[0] == 0
    assert out1.read_bytes() == out2.read_bytes()
    data = json.loads(out1.read_text())
    assert data["tool_version"] == rio.TOOL_VERSION
    assert data["catalog"]["node_count"] == 5
    assert len(data["checks"]) == 7


def test_module_roundtrip(tmp_path, loop2):
    from tests.conftest import catalog_of

    cat = catalog_of(loop2)
    for node in cat.nodes:
        p = tmp_path / ("%s.json" % abs(hash(node.name)))
        rio.dump_json(str(p), rio.module_to_dict(node.rep))
        back = rio.load_module(loop2, str(p))
        assert is_isomorphic(back, node.rep)


def test_dump_json_replaces_the_file_and_leaves_no_temporary_one(tmp_path, monkeypatch):
    """The report is written to a private temporary file beside the target and moved over it;
    a write that fails removes that file and leaves the target as it was."""
    target = tmp_path / "report.json"
    rio.dump_json(str(target), {"b": 1, "a": [2]})
    assert target.read_text(encoding="utf-8") == '{\n  "a": [\n    2\n  ],\n  "b": 1\n}\n'
    assert target.stat().st_mode & 0o777 == 0o600
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]

    def refuse(src, dst):
        assert os.path.dirname(src) == str(tmp_path) and os.path.basename(src).startswith(".tmp-")
        raise OSError("refused")

    monkeypatch.setattr(rio.os, "replace", refuse)
    with pytest.raises(OSError, match="refused"):
        rio.dump_json(str(target), {"c": 3})
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]
    assert json.loads(target.read_text(encoding="utf-8")) == {"a": [2], "b": 1}


def test_check_tilted_cli(capsys):
    assert run(capsys, "check-tilted", fixture_path("a2.json"), fixture_path("tilting_a2.json"))[0] == 0
    assert run(capsys, "check-tilted", fixture_path("a3.json"), fixture_path("tilting_a3.json"))[0] == 0
    assert run(capsys, "check-tilted", fixture_path("h5.json"), fixture_path("tilting_h5.json"))[0] == 1


def test_check_suite_tilted_flag(capsys):
    code, _ = run(capsys, "check", fixture_path("a2.json"), "--suite", "tilted", "--tilting", fixture_path("tilting_a2.json"))
    assert code == 0
    code = main(["check", fixture_path("a2.json"), "--suite", "tilted"])
    assert code == 4


def test_check_tilted_not_tilting(tmp_path, capsys):
    bad = {"summands": [{"dims": {"1": 1}, "maps": {}}, {"dims": {"2": 1}, "maps": {}}]}
    p = tmp_path / "bad_tilt.json"
    p.write_text(json.dumps(bad))
    code = main(["check-tilted", fixture_path("a2.json"), str(p)])
    assert code == 4


def test_check_module_relation_violation(tmp_path, capsys):
    bad = {"dims": {"1": 2, "2": 1}, "maps": {"alpha": [["1", "0"], ["0", "1"]], "beta": [["1", "0"]]}}
    p = tmp_path / "bad_mod.json"
    p.write_text(json.dumps(bad))
    assert main(["check-module", fixture_path("loop2.json"), str(p)]) == 4


def test_missing_file_is_a_clean_error(capsys):
    assert main(["check", "no/such/file.json"]) == 4
    assert main(["info", "also-missing.json"]) == 4


def test_float_rejected(tmp_path):
    bad = {
        "field": "Q",
        "vertices": ["1"],
        "arrows": [],
        "relations": [],
        "length_bound": 2.5,
    }
    p = tmp_path / "f.json"
    p.write_text(json.dumps(bad))
    assert main(["info", str(p)]) == 4
