import os
import random
import sys

import pytest

from repherd import homological
from repherd.catalog import Budget, enumerate_indecomposables, node_facts
from repherd.checks import (
    DEGENERATE,
    FAILS,
    HOLDS,
    INCONCLUSIVE,
    TiltingContext,
    check_corollary_parts,
    check_module_conditions,
    check_necessary_conditions,
    check_no_inj_to_proj_suite,
    check_representation_hereditary,
    check_sufficient_a,
    check_sufficient_b,
    check_tilted_sufficient,
    check_torsionless_structure,
    run_all_checks,
)
from repherd.dims import DimValue
from repherd.errors import GateFailed, NotTilting
from repherd.fields import QQ
from repherd.homological import ar_translate_inv, proj_dim
from repherd.linalg import Mat
from repherd.modules import (
    Representation,
    injective_at,
    projective_at,
)
from repherd import io as rio

from tests.reference import node_named, simple_at
from tests.conftest import ROOT, catalog_of, fixture_path, load_fixture_algebra, main_report_of

sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import gen  # noqa: E402


def test_main_check_loop2(loop2):
    report = main_report_of(loop2)
    assert report.verdict == HOLDS
    s1 = [w for w in report.witnesses if w.get("module") == "S(1)"]
    assert s1 and s1[0]["kernel_pieces"] == ["P(1)"]
    assert s1[0]["cokernel_pieces"] == ["I(2)"]


def test_main_check_a2_degenerate(a2):
    report = main_report_of(a2)
    assert report.verdict == DEGENERATE
    assert report.witnesses[0]["gldim_end"] == {"finite": 2}


def test_main_check_a3(a3):
    assert main_report_of(a3).verdict == HOLDS


def test_main_check_tilted4(tilted4):
    report = main_report_of(tilted4)
    assert report.verdict == HOLDS
    wit = {w["module"]: w for w in report.witnesses if "module" in w}
    assert wit["S(2)"]["kernel_pieces"] == ["P(3)"]
    assert wit["S(3)"]["kernel_pieces"] == ["P(2)"]


def test_main_check_tilted5_actual_behavior(tilted5):
    # The minimal approximations of all six modules outside add(A + DA) have
    # projective kernels and injective cokernels, so the verdict is Holds and
    # gl.dim End(A + DA) = 3: tau^-4 P(1) is the simple injective I(5), which
    # lies inside add(A + DA) and is exempt from the kernel conditions.
    report = main_report_of(tilted5)
    assert report.verdict == HOLDS
    assert {"gldim_end": {"finite": 3}} in report.witnesses
    outside = [w["module"] for w in report.witnesses if "module" in w]
    assert len(outside) == 6


def test_main_check_a4_rad2_fails(a4_rad2):
    """The line 4 -> 3 -> 2 -> 1 with rad^2 = 0 Fails, and the oracle agrees: gl.dim
    End(A + DA) = 4.  The minimal right approximation of S(3) is P(3) -> S(3), whose kernel
    S(2) is not projective; the minimal left approximation of S(2) is S(2) -> P(3), whose
    cokernel S(3) is not injective.  Hom(DA, A) != 0, so part (v)'s suite is gated off."""
    report = main_report_of(a4_rad2)
    assert report.verdict == FAILS
    assert {"gldim_end": {"finite": 4}} in report.witnesses
    wit = {w["module"]: w for w in report.witnesses if "module" in w}
    assert sorted(wit) == ["S(2)", "S(3)"]
    s3, s2 = wit["S(3)"], wit["S(2)"]
    assert s3["right_source_dims"] == [0, 1, 1, 0] and s3["kernel_dims"] == [0, 1, 0, 0]
    assert s3["right_kernel_projective"] is False and s3["kernel_pieces"] == ["non-projective (0, 1, 0, 0)"]
    assert s3["left_cokernel_injective"] is True
    assert s2["left_target_dims"] == [0, 1, 1, 0] and s2["cokernel_dims"] == [0, 0, 1, 0]
    assert s2["left_cokernel_injective"] is False and s2["cokernel_pieces"] == ["non-injective (0, 0, 1, 0)"]
    assert s2["right_kernel_projective"] is True
    with pytest.raises(GateFailed, match=r"I\(1\) -> P\(2\)"):
        check_no_inj_to_proj_suite(a4_rad2, catalog_of(a4_rad2), main_report=report)


def test_tauinv4_p1_lands_in_add(tilted5):
    m = rio.load_module(tilted5, fixture_path("tilted5_tauinv4p1.json"))
    x = projective_at(tilted5, "1")
    for _ in range(4):
        x = ar_translate_inv(x)
    from repherd.modules import is_isomorphic

    assert is_isomorphic(m, x)
    assert is_isomorphic(m, injective_at(tilted5, "5"))


def test_main_check_kron_inconclusive(kron):
    report = check_representation_hereditary(kron, catalog=catalog_of(kron))
    assert report.verdict == INCONCLUSIVE


def test_module_conditions_kron(kron):
    r = rio.load_module(kron, fixture_path("kron_regular.json"))
    assert check_module_conditions(kron, r).verdict == HOLDS
    p = rio.load_module(kron, fixture_path("kron_preproj.json"))
    assert check_module_conditions(kron, p).verdict == HOLDS


def test_torsionless_structure(loop2, a3, tilted4):
    for alg in (loop2, a3, tilted4):
        cat = catalog_of(alg)
        report = check_torsionless_structure(alg, cat)
        assert report.verdict == HOLDS
        for w in report.witnesses:
            if w["part"] == "a":
                assert w["cosyzygy_of_projective_at"] is not None
            else:
                assert w["syzygy_of_injective_at"] is not None


def test_necessary_conditions_on_holding_fixtures(loop2, a3, tilted4, tilted5):
    for alg in (loop2, a3, tilted4, tilted5):
        assert check_necessary_conditions(alg, catalog_of(alg)).verdict == HOLDS


def test_sufficiency_implications_never_violated(a2, a3, loop2, tilted4, tilted5, d4, sq):
    for alg in (a2, a3, loop2, tilted4, tilted5, d4, sq):
        cat = catalog_of(alg)
        main = main_report_of(alg)
        sa = check_sufficient_a(alg, cat)
        sb = check_sufficient_b(alg, cat)
        co = check_corollary_parts(alg, cat)
        if main.verdict != DEGENERATE:
            for sufficient in (sa, sb, co):
                if sufficient.verdict == HOLDS:
                    assert main.verdict == HOLDS
            if main.verdict == HOLDS:
                assert check_necessary_conditions(alg, cat).verdict == HOLDS


def test_gate_fails_loop2_with_witness(loop2):
    cat = catalog_of(loop2)
    with pytest.raises(GateFailed) as exc:
        check_no_inj_to_proj_suite(loop2, cat)
    assert exc.value.witness == ("1", "1")


def test_gate_fails_tilted4(tilted4):
    cat = catalog_of(tilted4)
    with pytest.raises(GateFailed):
        check_no_inj_to_proj_suite(tilted4, cat)


def test_suite_holds_on_d4(d4):
    cat = catalog_of(d4)
    report = check_no_inj_to_proj_suite(d4, cat, main_report=main_report_of(d4))
    assert report.verdict == HOLDS
    parts = {w.get("part") for w in report.witnesses}
    assert {"i", "ii", "iii", "iv", "v"} <= parts
    gl = [w for w in report.witnesses if w.get("part") == "i"][0]
    assert gl["ok"] and gl["gl_dim_A"] == "1"


def _gl_dim_of_simples(alg):
    """Reference: gl.dim A as part (i) computed it before it read the facts, from a fresh
    resolution of every simple, stopping at the first that is not finite."""
    gl = DimValue.finite(0)
    for v in range(alg.quiver.n_vertices):
        pd = proj_dim(simple_at(alg, v))
        if pd.is_infinite or (pd.kind == "at_least"):
            return pd
        if pd.value > gl.value:
            gl = pd
    return gl


@pytest.mark.parametrize("name", ["d4", "h5", "E6"])
def test_suite_reads_gl_dim_from_the_simples_facts(name):
    """Part (i) reads each simple's pd from node_facts; its witness is the gl.dim A that fresh
    resolutions of the simples give."""
    if name == "E6":
        alg = rio.algebra_from_dict(gen.dynkin_algebra(random.Random(3), "E", 6, "Q"))
        cat = catalog_of(alg, Budget(1000, 4096))
    else:
        alg = load_fixture_algebra(name)
        cat = catalog_of(alg)
    assert cat.complete
    report = check_no_inj_to_proj_suite(alg, cat)
    gl = [w for w in report.witnesses if w.get("part") == "i"][0]
    assert gl["gl_dim_A"] == str(_gl_dim_of_simples(alg))


@pytest.mark.parametrize("name", ["a2", "a3", "a4_rad2", "d4", "h5", "loop2", "sq", "tilted4", "tilted5"])
def test_every_simple_is_a_node_with_its_pd(name):
    """What part (i) relies on: every simple is a node of a complete catalog, and the pd its
    facts hold is that of a fresh resolution, infinite ones included."""
    alg = load_fixture_algebra(name)
    cat = catalog_of(alg)
    assert cat.complete
    facts = node_facts(cat)
    pds = {node.simple_vertex: facts[i]["pd"] for i, node in enumerate(cat.nodes) if node.simple_vertex is not None}
    assert pds == {v: proj_dim(simple_at(alg, v)) for v in range(alg.quiver.n_vertices)}


def test_suite_reads_tau_from_the_catalog(h5, monkeypatch):
    """Parts (ii)-(iv) take tau X and tau^-1 X from the catalog's links: the suite computes no translate."""
    from repherd import checks, homological

    cat, main = catalog_of(h5), main_report_of(h5)
    calls = []
    for mod in (checks, homological):
        for name in ("ar_translate", "ar_translate_inv"):
            fn = getattr(mod, name)
            monkeypatch.setattr(mod, name, lambda *a, _fn=fn, **k: calls.append(_fn.__name__) or _fn(*a, **k))
    report = check_no_inj_to_proj_suite(h5, cat, main_report=main)
    assert {"ii", "iii", "iv"} <= {w.get("part") for w in report.witnesses}
    assert calls == []


def test_run_all_reports_shapes(loop2):
    reports, cat = run_all_checks(loop2)
    by = {r.check: r for r in reports}
    assert by["representation_hereditary"].verdict == HOLDS
    assert by["no_inj_to_proj_suite"].verdict == "Skipped"
    payload = rio.report_file(loop2, reports, cat)
    assert payload["catalog"]["node_count"] == 5


def test_tilted_sufficient_trivial_tilts(a2, a3):
    for alg, verts in ((a2, ("1", "2")), (a3, ("1", "2", "3"))):
        ctx = TiltingContext(alg, [projective_at(alg, v) for v in verts])
        report = check_tilted_sufficient(ctx)
        assert report.verdict == HOLDS
        conds = {w["cond"] for w in report.witnesses if "cond" in w}
        assert {"1", "2"} <= conds
    # trivial tilt of a3: End T = a3 itself, whose main check holds
    assert main_report_of(a3).verdict == HOLDS


def test_tilted_sufficient_h5_construction_fails_condition_one(h5):
    data = rio.load_json(fixture_path("tilting_h5.json"))
    summands = [rio.module_from_dict(h5, d) for d in data["summands"]]
    report = check_tilted_sufficient(TiltingContext(h5, summands))
    assert report.verdict == FAILS
    cond1 = [w for w in report.witnesses if w.get("cond") == "1"][0]
    assert cond1["holds"] is False
    assert cond1["sinks"] == ["1", "5"]
    assert sorted(cond1["projective_summand_vertices"]) == ["4", "5"]


@pytest.mark.parametrize("alg_name, tilting", [("h5", "tilting_h5"), ("a2", "tilting_a2"), ("a3", "tilting_a3")])
def test_tilting_validation_covers_each_summand_once(alg_name, tilting, monkeypatch):
    """validate reads pd <= 1 off one projective cover of each summand, with no cover of a
    syzygy; the one other cover is that of the sum of the summands, for Ext^1."""
    alg = load_fixture_algebra(alg_name)
    summands = rio.load_summands(alg, fixture_path(tilting + ".json"))
    covered = []
    real = homological.cover_with_kernel

    def counting(m):
        covered.append(m)
        return real(m)

    monkeypatch.setattr(homological, "cover_with_kernel", counting)
    TiltingContext(alg, summands).validate()
    assert [sum(m is t for m in covered) for t in summands] == [1] * len(summands)
    rest = [m for m in covered if not any(m is t for t in summands)]
    assert [list(m.dims) for m in rest] == [[sum(d) for d in zip(*(t.dims for t in summands))]]


def test_not_tilting_is_rejected(a2):
    s1, s2 = simple_at(a2, "1"), simple_at(a2, "2")
    with pytest.raises(NotTilting):
        check_tilted_sufficient(TiltingContext(a2, [s1, s2]))
    with pytest.raises(NotTilting):
        check_tilted_sufficient(TiltingContext(a2, [projective_at(a2, "1")]))


def test_fails_witness_reproduces(tilted5, kron):
    """Re-running the single-module check on any recorded witness reproduces it."""
    report = main_report_of(tilted5)
    cat = catalog_of(tilted5)
    for w in report.witnesses:
        if "module" not in w:
            continue
        node = node_named(cat, w["module"])
        single = check_module_conditions(tilted5, node.rep)
        detail = single.witnesses[0]
        assert detail["right_kernel_projective"] == w["right_kernel_projective"]
        assert detail["left_cokernel_injective"] == w["left_cokernel_injective"]


def _gate_by_fresh_solves(alg):
    """Reference: the gate as it was before it read the table, a fresh Hom(I(v), P(w)) for each
    injective and projective in vertex order."""
    from repherd.modules import gen_cogen, hom_basis

    gc = gen_cogen(alg)
    verts = alg.quiver.vertices
    for i, iv in enumerate(gc.injectives):
        for j, pj in enumerate(gc.projectives):
            if hom_basis(iv, pj):
                return (verts[i], verts[j])
    return None


GATE_FIXTURES = ["a2", "a3", "a4_rad2", "d4", "h5", "kron", "loop2", "sq", "tilted4", "tilted5"]


@pytest.mark.parametrize("p", [None, 2, 3], ids=["Q", "GF2", "GF3"])
@pytest.mark.parametrize("name", GATE_FIXTURES)
def test_gate_reads_the_table_as_fresh_solves_do(name, p):
    """The gate reads Hom(I(v), P(w)) off the row of P(w) at the entry of I(v), which is P(u)
    when I(v) is isomorphic to P(u) (a2, a3, a4_rad2, sq, tilted5); its witness, or None, is the
    one that fresh solves give."""
    from repherd.checks import _gate_hom_da_a
    from repherd.fields import PrimeField

    alg = load_fixture_algebra(name, None if p is None else PrimeField(p))
    assert _gate_hom_da_a(alg) == _gate_by_fresh_solves(alg)
