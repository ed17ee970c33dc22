"""Exit codes mean what they say: crashes exit 4."""
import json

import pytest

from repherd import checks, cli
from repherd.cli import main

from tests.conftest import fixture_path


@pytest.mark.parametrize("name", ["loop2", "d4", "h5"])
def test_suite_all_enumerates_once(name, monkeypatch, capsys):
    """`check --suite all` knits one catalog for all its checks.  On d4 and h5 the gate holds,
    so part (v) runs."""
    calls = []
    real = cli.enumerate_indecomposables

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "enumerate_indecomposables", counting)
    monkeypatch.setattr(checks, "enumerate_indecomposables", counting)
    assert main(["check", fixture_path(name + ".json"), "--suite", "all"]) == 0
    assert len(calls) == 1
    assert ('"part": "v"' in capsys.readouterr().out) == (name != "loop2")


def test_a_cache_dir_in_the_environment_changes_nothing(tmp_path, monkeypatch, capsys):
    """The catalog is knitted on every run: with REPHERD_CACHE_DIR set, `check --suite all`
    writes no file there and prints the report it prints without it."""
    argv = ["check", fixture_path("d4.json"), "--suite", "all"]
    want = (main(argv), capsys.readouterr().out)
    monkeypatch.setenv("REPHERD_CACHE_DIR", str(tmp_path))
    assert (main(argv), capsys.readouterr().out) == want
    assert (main(argv), capsys.readouterr().out) == want
    assert not any(tmp_path.iterdir())


def test_crash_exits_4_with_one_line(tmp_path, capsys):
    alg = tmp_path / "no_vertices.json"
    alg.write_text(json.dumps({"field": "Q", "arrows": [], "relations": [], "length_bound": 2}))
    assert main(["check", str(alg)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: KeyError: ") and err.count("\n") == 1

    mod = tmp_path / "bad_dims.json"
    mod.write_text(json.dumps({"dims": {"1": "a"}}))
    assert main(["check-module", fixture_path("kron.json"), str(mod)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ValueError: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, named",
    [
        (["check", "a3.json", "--budget-modules", "abc"], "--budget-modules"),
        (["check", "a3.json", "--bogus"], "--bogus"),
        (["check"], "algebra"),
        (["frobnicate"], "frobnicate"),
    ]
    + [
        ([*command, flag, value], flag)
        for command in (["check", "a3.json"], ["ar-quiver", "a3.json"], ["check-tilted", "a2.json", "tilting_a2.json"])
        for flag in ("--budget-modules", "--budget-dim")
        for value in ("0", "-1")
    ],
)
def test_usage_errors_exit_4_with_one_line(argv, named, capsys):
    """A bad argument, a budget flag of 0 or less among them, exits 4 with one line that names it."""
    assert main([fixture_path(a) if a.endswith(".json") else a for a in argv]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and named in err


def test_consecutive_calls_share_no_state(capsys):
    """main builds its parser once; a usage error, then check --suite all, then a
    plain check each give what they give on a freshly built parser."""
    alg = fixture_path("a3.json")
    runs = [["check", alg, "--suite", "bogus"], ["check", alg, "--suite", "all"], ["check", alg]]

    def fresh(argv):
        cli._parser.cache_clear()
        return main(argv), capsys.readouterr()

    want = [fresh(argv) for argv in runs]
    cli._parser.cache_clear()
    got = [(main(argv), capsys.readouterr()) for argv in runs]
    assert got == want
    assert cli._parser.cache_info().misses == 1
    (rc, bad), (rc_all, suite_all), (rc_main, suite_main) = got
    assert rc == 4 and bad.err.startswith("error: ") and bad.err.count("\n") == 1 and not bad.out
    assert rc_all == rc_main == 0
    checks_run = [[c["check"] for c in json.loads(r.out)["checks"]] for r in (suite_all, suite_main)]
    assert len(checks_run[0]) > 1 and checks_run[1] == ["representation_hereditary"]


def test_help_exits_0():
    with pytest.raises(SystemExit) as exc:
        main(["check", "-h"])
    assert exc.value.code == 0


@pytest.mark.parametrize("p", [3, 13, 23])
def test_oracle_works_over_small_prime_fields(tmp_path, p, capsys):
    """The oracle needs no p > dim End(A + DA): tilted4 holds over GF(p) as over Q."""
    data = json.loads(open(fixture_path("tilted4.json"), encoding="utf-8").read())
    data["field"] = {"GFp": p}
    path = tmp_path / "tilted4.json"
    path.write_text(json.dumps(data))
    assert main(["check", str(path)]) == 0


def test_input_faults_name_the_file_and_key(tmp_path, capsys):
    alg = tmp_path / "no_vertices.json"
    alg.write_text(json.dumps({"field": "Q", "arrows": [], "relations": [], "length_bound": 2}))
    assert main(["check", str(alg)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(alg) in err and '"vertices"' in err

    mod = tmp_path / "bad_dims.json"
    for dims in ({"1": "a"}, {"1": -1}, {"1": [2]}):
        mod.write_text(json.dumps({"dims": dims}))
        assert main(["check-module", fixture_path("kron.json"), str(mod)]) == 4
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(mod) in err and '"dims"["1"]' in err

    tilting = tmp_path / "no_summands.json"
    tilting.write_text(json.dumps({"modules": []}))
    assert main(["check-tilted", fixture_path("h5.json"), str(tilting)]) == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(tilting) in err and '"summands"' in err


def test_a_module_that_breaks_a_relation_names_it(tmp_path, capsys):
    """alpha.beta = 1 on a module of sq that is zero at vertex 3, where gamma.delta passes:
    the one error line names the file and the relation, by its index and its paths."""
    mod = tmp_path / "not_commuting.json"
    mod.write_text(json.dumps({"dims": {"1": 1, "2": 1, "4": 1}, "maps": {"alpha": [[1]], "beta": [[1]]}}))
    assert main(["check-module", fixture_path("sq.json"), str(mod)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(mod) in err and "relation 0 (alpha.beta, gamma.delta)" in err


@pytest.mark.parametrize("p, code", [(None, 4), (3, 4), (5, 0)], ids=["Q", "GF3", "GF5"])
def test_a_module_that_does_not_split_names_its_file(p, code, tmp_path, capsys):
    """The Kronecker module a = I, b = J with J^2 = -1 has End = k[x]/(x^2 + 1), a field over Q
    and GF(3): exit 4 and one error line naming the module file and the summand's dimension
    vector.  Over GF(5) x^2 + 1 = (x - 2)(x - 3), and the module splits."""
    data = json.loads(open(fixture_path("kron.json"), encoding="utf-8").read())
    if p is not None:
        data["field"] = {"GFp": p}
    alg = tmp_path / "kron.json"
    alg.write_text(json.dumps(data))
    mod = tmp_path / "rotation.json"
    mod.write_text(json.dumps({"dims": {"1": 2, "2": 2}, "maps": {"a": [[1, 0], [0, 1]], "b": [[0, -1], [1, 0]]}}))
    assert main(["check-module", str(alg), str(mod)]) == code
    captured = capsys.readouterr()
    if code:
        lines = captured.err.splitlines()
        assert captured.out == "" and len(lines) == 1
        assert lines[0].startswith("error: %s: " % mod) and "dimension vector (2, 2)" in lines[0]
    else:
        assert captured.err == ""


@pytest.mark.parametrize("argv", [["check", "kron"], ["ar-quiver", "kron"], ["check-tilted", "h5", "tilting_h5"]],
                         ids=["check", "ar-quiver", "check-tilted"])
def test_a_catalog_module_that_does_not_split_names_the_algebra_file(argv, monkeypatch, capsys):
    """A split refused inside catalog enumeration, forced here, names the algebra file."""
    from repherd import modules
    from repherd.errors import NonSplit

    def refuse(f, dims, ops):
        raise NonSplit("forced")

    monkeypatch.setattr(modules, "fitting_split", refuse)
    paths = [fixture_path(name + ".json") for name in argv[1:]]
    assert main(argv[:1] + paths) == 4
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: %s: the summand of dimension vector " % paths[0])


@pytest.mark.parametrize("argv", [["check", "d4"], ["ar-quiver", "d4"], ["check-tilted", "h5", "tilting_h5"]],
                         ids=["check", "ar-quiver", "check-tilted"])
def test_a_failed_verification_in_knitting_names_the_algebra_file(argv, monkeypatch, capsys):
    """A consistency check that fails inside catalog enumeration, forced here, names the algebra
    file and gives exit 4 and no report."""
    from repherd import catalog
    from repherd.errors import VerificationFailed

    def fail(nodes, s, t):
        raise VerificationFailed("forced")

    monkeypatch.setattr(catalog, "_mesh_middle", fail)
    paths = [fixture_path(name + ".json") for name in argv[1:]]
    assert main(argv[:1] + paths) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: %s: forced" % paths[0]]


@pytest.mark.parametrize("suite", [[], ["--suite", "all"]], ids=["main", "all"])
@pytest.mark.parametrize("name,verdict,wrong", [("a4_rad2", "Fails", 3), ("a3", "Holds", 4)])
def test_routes_that_disagree_refuse_a_verdict(name, verdict, wrong, suite, monkeypatch, capsys):
    """With the oracle patched to a wrong gl.dim End(A + DA), the check refuses: exit 4 and one
    error line that names the algebra file and both results."""
    from repherd.dims import DimValue

    monkeypatch.setattr(checks, "gldim_end_gen_cogen", lambda alg: DimValue.finite(wrong))
    assert main(["check", fixture_path(name + ".json")] + suite) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: %s: " % fixture_path(name + ".json"))
    assert "kernel test %s but gl.dim End(A + DA) = %d" % (verdict, wrong) in lines[0]


ALGEBRA_FIXTURES = ["a2", "a3", "a4_rad2", "d4", "h5", "kron", "loop2", "sq", "tilted4", "tilted5"]
_Q_REPORTS = {}


def _suite_all_report(argv_path, tmp_path, name):
    out = tmp_path / ("%s.report.json" % name)
    code = main(["check", str(argv_path), "--suite", "all", "--json", str(out)])
    report = json.loads(out.read_text())
    del report["algebra_digest"]
    return code, report


@pytest.mark.parametrize("p", [2, 3, 2**31 - 1])
@pytest.mark.parametrize("name", ALGEBRA_FIXTURES)
def test_every_prime_field_gives_the_report_over_q(name, p, tmp_path, capsys):
    """Decomposition needs no p > dim End(M): `check --suite all` over GF(p) reports as over Q."""
    if name not in _Q_REPORTS:
        _Q_REPORTS[name] = _suite_all_report(fixture_path(name + ".json"), tmp_path, name + "_q")
    data = json.loads(open(fixture_path(name + ".json"), encoding="utf-8").read())
    data["field"] = {"GFp": p}
    path = tmp_path / ("%s_%d.json" % (name, p))
    path.write_text(json.dumps(data))
    assert _suite_all_report(path, tmp_path, "%s_%d" % (name, p)) == _Q_REPORTS[name]
