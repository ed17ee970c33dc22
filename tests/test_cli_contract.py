"""Exit codes mean what they say: crashes exit 4, and a cache never changes a verdict."""
import copy
import json

import pytest

from repherd import checks, cli
from repherd.cli import main

from tests.conftest import fixture_path


def test_cache_is_keyed_by_budget(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPHERD_CACHE_DIR", str(tmp_path))
    assert main(["check", fixture_path("tilted4.json"), "--budget-modules", "5"]) == 3
    assert main(["check", fixture_path("tilted4.json")]) == 0


def test_unreadable_cache_file_is_a_miss(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPHERD_CACHE_DIR", str(tmp_path))
    assert main(["check", fixture_path("a3.json")]) == 0
    (cached,) = tmp_path.glob("*.json")
    for junk in ("not json", "[]", '{"tool_version": "0.1.0", "nodes": [{}], "complete": true}'):
        cached.write_text(junk)
        assert main(["check", fixture_path("a3.json")]) == 0


@pytest.mark.parametrize("name", ["loop2", "d4", "h5"])
def test_suite_all_enumerates_once_and_cache_keeps_report(name, tmp_path, monkeypatch, capsys):
    """A cached catalog gives the fresh report.  On d4 and h5 the gate holds, so part (v) runs on
    node modules loaded from the file, which are not the objects of add(A + DA)."""
    monkeypatch.delenv("REPHERD_CACHE_DIR", raising=False)
    calls = []
    real = cli.enumerate_indecomposables

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "enumerate_indecomposables", counting)
    monkeypatch.setattr(checks, "enumerate_indecomposables", counting)
    argv = ["check", fixture_path(name + ".json"), "--suite", "all"]
    assert main(argv) == 0
    assert len(calls) == 1
    fresh = capsys.readouterr().out
    assert ('"part": "v"' in fresh) == (name != "loop2")

    monkeypatch.setenv("REPHERD_CACHE_DIR", str(tmp_path))
    assert main(argv) == 0 and main(argv) == 0
    assert len(calls) == 2  # the second cached run enumerates nothing
    assert capsys.readouterr().out == fresh * 2


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


def test_cached_flags_are_verified(tmp_path, monkeypatch, capsys):
    """A cache file whose flags do not check out is a miss: the report is the uncached one."""
    monkeypatch.delenv("REPHERD_CACHE_DIR", raising=False)
    argv = ["check", fixture_path("a3.json")]
    want = (main(argv), capsys.readouterr().out)
    monkeypatch.setenv("REPHERD_CACHE_DIR", str(tmp_path))
    assert (main(argv), capsys.readouterr().out) == want
    (cached,) = tmp_path.glob("*.json")
    good = json.loads(cached.read_text())

    wrong_proj = copy.deepcopy(good)
    node = next(nd for nd in wrong_proj["nodes"] if nd["proj_vertex"] is None and nd["inj_vertex"] is None)
    node["proj_vertex"] = 0
    not_bool = dict(good, complete="yes")
    for bad in (wrong_proj, not_bool):
        cached.write_text(json.dumps(bad))
        assert (main(argv), capsys.readouterr().out) == want


def test_cached_tau_links_are_verified(tmp_path, monkeypatch, capsys):
    """A cache file whose tau links are swapped or missing, or whose arrows are wrong or missing,
    is a miss: the suite's report, which reads the left and right parts off the arrows, is the
    uncached one."""
    from repherd import io as rio

    monkeypatch.delenv("REPHERD_CACHE_DIR", raising=False)
    argv = ["check", fixture_path("a3.json"), "--suite", "all"]
    want = (main(argv), capsys.readouterr().out)
    monkeypatch.setenv("REPHERD_CACHE_DIR", str(tmp_path))
    assert (main(argv), capsys.readouterr().out) == want
    (cached,) = tmp_path.glob("*.json")
    good = json.loads(cached.read_text())
    alg = rio.load_algebra(fixture_path("a3.json"))
    assert good["complete"] and rio._catalog_from_cache(alg, good) is not None

    swapped = copy.deepcopy(good)
    nds = swapped["nodes"]
    i, k = [n for n, nd in enumerate(nds) if nd["tau"] is not None][:2]
    a, b = nds[i]["tau"], nds[k]["tau"]
    nds[i]["tau"], nds[k]["tau"], nds[a]["tau_inv"], nds[b]["tau_inv"] = b, a, k, i
    missing = copy.deepcopy(good)
    nds = missing["nodes"]
    nds[nds[i]["tau"]]["tau_inv"] = nds[i]["tau"] = None
    k = next(n for n, nd in enumerate(good["nodes"]) if nd["arrows"])
    # One source Y -> X replaced by two nodes whose dimension vectors add up to dim Y:
    # only the mesh at X can tell.
    dims = [node.rep.dims for node in rio._catalog_from_cache(alg, good).nodes]
    x, y, y1, y2 = next(
        (x, y, y1, y2)
        for x, nd in enumerate(good["nodes"])
        for y, m in nd["arrows"]
        if m == 1
        for y1 in range(len(dims))
        for y2 in range(y1 + 1, len(dims))
        if [a + b for a, b in zip(dims[y1], dims[y2])] == list(dims[y])
    )
    arrow_faults = []
    for fault in ("mult", "drop", "range", "null", "no key", "split"):
        bad = copy.deepcopy(good)
        nd = bad["nodes"][k]
        if fault == "mult":
            nd["arrows"][0][1] += 1
        elif fault == "drop":
            nd["arrows"].pop()
        elif fault == "range":
            nd["arrows"][0][0] = len(bad["nodes"])
        elif fault == "null":
            nd["arrows"] = None
        elif fault == "no key":
            del nd["arrows"]
        else:
            arrows = dict(bad["nodes"][x]["arrows"])
            del arrows[y]
            arrows[y1], arrows[y2] = arrows.get(y1, 0) + 1, arrows.get(y2, 0) + 1
            bad["nodes"][x]["arrows"] = sorted(map(list, arrows.items()))
        arrow_faults.append(bad)
    for bad in (swapped, missing, *arrow_faults):
        cached.write_text(json.dumps(bad))
        assert rio._catalog_from_cache(alg, bad) is None
        assert (main(argv), capsys.readouterr().out) == want


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


def test_consecutive_calls_share_no_state(monkeypatch, capsys):
    """main builds its parser once; a usage error, then check --suite all, then a
    plain check each give what they give on a freshly built parser."""
    monkeypatch.delenv("REPHERD_CACHE_DIR", raising=False)
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

    monkeypatch.delenv("REPHERD_CACHE_DIR", raising=False)
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

    monkeypatch.delenv("REPHERD_CACHE_DIR", raising=False)
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

    monkeypatch.delenv("REPHERD_CACHE_DIR", raising=False)
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
def test_every_prime_field_gives_the_report_over_q(name, p, tmp_path, monkeypatch, capsys):
    """Decomposition needs no p > dim End(M): `check --suite all` over GF(p) reports as over Q."""
    monkeypatch.delenv("REPHERD_CACHE_DIR", raising=False)
    if name not in _Q_REPORTS:
        _Q_REPORTS[name] = _suite_all_report(fixture_path(name + ".json"), tmp_path, name + "_q")
    data = json.loads(open(fixture_path(name + ".json"), encoding="utf-8").read())
    data["field"] = {"GFp": p}
    path = tmp_path / ("%s_%d.json" % (name, p))
    path.write_text(json.dumps(data))
    assert _suite_all_report(path, tmp_path, "%s_%d" % (name, p)) == _Q_REPORTS[name]
