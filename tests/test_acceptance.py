"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints a PASS line when its criterion is met.  Criterion 4 is
asserted exactly as required; the computed behavior of that fixture
differs (see the README and test_checks for the analysis), so that test
records an honest failure instead of being weakened.
"""
import time

import pytest

from repherd import io as rio
from repherd.catalog import ar_quiver, enumerate_indecomposables
from repherd.checks import (
    DEGENERATE,
    FAILS,
    HOLDS,
    INCONCLUSIVE,
    TiltingContext,
    check_module_conditions,
    check_necessary_conditions,
    check_representation_hereditary,
    check_sufficient_a,
    check_sufficient_b,
    check_corollary_parts,
    check_tilted_sufficient,
    check_torsionless_structure,
)
from repherd.dims import DimValue
from repherd.endo import gldim_end_gen_cogen
from repherd.homological import proj_dim
from repherd.modules import hom_dim, projective_at, simple_at

from tests.conftest import catalog_of, fixture_path, load_fixture_algebra, main_report_of


def _cond_verdicts(report):
    rights = [w["right_kernel_projective"] for w in report.witnesses if "module" in w]
    lefts = [w["left_cokernel_injective"] for w in report.witnesses if "module" in w]
    return all(rights), all(lefts)


def test_criterion_01_gldim_a2_a3(a2, a3):
    t0 = time.monotonic()
    g2 = gldim_end_gen_cogen(a2)
    t_a2 = time.monotonic() - t0
    t0 = time.monotonic()
    g3 = gldim_end_gen_cogen(a3)
    t_a3 = time.monotonic() - t0
    assert g2 == DimValue.finite(2)
    assert g3 == DimValue.finite(3)
    assert t_a2 < 5.0 and t_a3 < 5.0
    print("CRITERION 1 PASS: gl.dim End(A+DA) = 2 (a2, %.2fs) and 3 (a3, %.2fs)" % (t_a2, t_a3))


def test_criterion_02_loop2(loop2):
    t0 = time.monotonic()
    cat = enumerate_indecomposables(loop2)
    assert cat.complete and len(cat) == 5
    assert proj_dim(simple_at(loop2, "1")) == DimValue.infinite()
    main = check_representation_hereditary(loop2, catalog=cat)
    assert main.verdict == HOLDS
    arrows, _ = ar_quiver(cat)
    names = {(cat.nodes[i].name, cat.nodes[j].name, m) for i, j, m in arrows}
    assert names == {
        ("P(2)", "P(1)", 1),
        ("S(1)", "P(1)", 1),
        ("P(1)", "I(1)", 1),
        ("P(1)", "I(2)", 1),
        ("I(1)", "S(1)", 1),
        ("I(2)", "S(1)", 1),
    }
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    print("CRITERION 2 PASS: loop2 catalog 5, pd S(1) infinite, Holds, 6 arrows (%.2fs)" % elapsed)


def test_criterion_03_tilted4(tilted4):
    t0 = time.monotonic()
    cat = enumerate_indecomposables(tilted4)
    assert cat.complete and len(cat) == 10
    main = check_representation_hereditary(tilted4, catalog=cat)
    assert main.verdict == HOLDS
    g = gldim_end_gen_cogen(tilted4)
    assert g == DimValue.finite(3)
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    print("CRITERION 3 PASS: tilted4 catalog 10, Holds, gl.dim End = 3 (%.2fs)" % elapsed)


def test_criterion_04_tilted5(tilted5):
    t0 = time.monotonic()
    cat = enumerate_indecomposables(tilted5)
    assert cat.complete and len(cat) == 14
    main = check_representation_hereditary(tilted5, catalog=cat)
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    # required: Fails with witness tau^{-4} P(1) whose minimal right
    # approximation has a non-projective kernel
    assert main.verdict == FAILS, (
        "computed verdict is %s with gl.dim End(A+DA) = 3: every module outside "
        "add(A+DA) has a projective minimal-approximation kernel, and tau^-4 P(1) "
        "is the simple injective I(5)" % main.verdict
    )
    witness = next(w for w in main.witnesses if not w["right_kernel_projective"])
    assert "τ⁻⁴P(1)" in witness["module"]
    print("CRITERION 4 PASS: tilted5 Fails with witness tau^-4 P(1) (%.2fs)" % elapsed)


def test_criterion_05_oracle_equivalence(a2, a3, loop2, tilted4, tilted5, d4, sq, kron):
    complete_fixtures = [("a2", a2), ("a3", a3), ("loop2", loop2), ("tilted4", tilted4), ("tilted5", tilted5), ("d4", d4), ("sq", sq)]
    for name, alg in complete_fixtures:
        main = main_report_of(alg)
        if main.verdict == DEGENERATE:
            continue
        g = gldim_end_gen_cogen(alg)
        assert (main.verdict == HOLDS) == (g == DimValue.finite(3)), name
        c3, c5 = _cond_verdicts(main)
        assert c3 == c5, name
    # representation-infinite fixture: per-module right/left verdicts agree
    for mod in ("kron_regular.json", "kron_preproj.json"):
        m = rio.load_module(kron, fixture_path(mod))
        rep = check_module_conditions(kron, m)
        w = rep.witnesses[0]
        assert w["right_kernel_projective"] == w["left_cokernel_injective"]
    print("CRITERION 5 PASS: Holds iff gl.dim End = 3; condition (3) = condition (5) everywhere")


def test_criterion_06_torsionless(a3, loop2, tilted4, tilted5, d4, sq):
    checked = []
    for name, alg in (("a3", a3), ("loop2", loop2), ("tilted4", tilted4), ("tilted5", tilted5), ("d4", d4), ("sq", sq)):
        if main_report_of(alg).verdict != HOLDS:
            continue
        rep = check_torsionless_structure(alg, catalog_of(alg))
        assert rep.verdict == HOLDS, name
        for w in rep.witnesses:
            key = "cosyzygy_of_projective_at" if w["part"] == "a" else "syzygy_of_injective_at"
            assert w[key] is not None
        checked.append(name)
    assert checked
    print("CRITERION 6 PASS: torsionless structure with vertex witnesses on %s" % ", ".join(checked))


def test_criterion_07_necessary_and_sufficiency_implications(a2, a3, loop2, tilted4, tilted5, d4, sq):
    for name, alg in (("a2", a2), ("a3", a3), ("loop2", loop2), ("tilted4", tilted4), ("tilted5", tilted5), ("d4", d4), ("sq", sq)):
        cat = catalog_of(alg)
        main = main_report_of(alg)
        if main.verdict == HOLDS:
            assert check_necessary_conditions(alg, cat).verdict == HOLDS, name
        if main.verdict != DEGENERATE:
            for sufficient in (check_sufficient_a(alg, cat), check_sufficient_b(alg, cat), check_corollary_parts(alg, cat)):
                if sufficient.verdict == HOLDS:
                    assert main.verdict == HOLDS, (name, sufficient.check)
    print("CRITERION 7 PASS: necessary conditions hold; sufficiency implications never violated")


def test_criterion_08_kronecker(kron):
    for mod in ("kron_regular.json", "kron_preproj.json"):
        m = rio.load_module(kron, fixture_path(mod))
        assert check_module_conditions(kron, m).verdict == HOLDS
    rep = check_representation_hereditary(kron, catalog=catalog_of(kron))
    assert rep.verdict == INCONCLUSIVE
    assert not catalog_of(kron).complete
    print("CRITERION 8 PASS: Kronecker module checks Hold; enumeration Inconclusive at default budget")


def test_criterion_09_field_robustness(gf101):
    for name in ("a2", "a3", "loop2", "tilted4", "tilted5", "kron"):
        aq = load_fixture_algebra(name)
        ap = load_fixture_algebra(name, field=gf101)
        cq, cp = catalog_of(aq), catalog_of(ap)
        assert len(cq) == len(cp) and cq.complete == cp.complete, name
        homs_q = sorted(hom_dim(x.rep, y.rep) for x in cq.nodes for y in cq.nodes)
        homs_p = sorted(hom_dim(x.rep, y.rep) for x in cp.nodes for y in cp.nodes)
        assert homs_q == homs_p, name
        vq = check_representation_hereditary(aq, catalog=cq).verdict
        vp = check_representation_hereditary(ap, catalog=cp).verdict
        assert vq == vp, name
    print("CRITERION 9 PASS: verdicts, catalog sizes, and Hom dimensions agree over Q and GF(101)")


def test_criterion_10_tilted_sufficiency(h5, a3):
    data = rio.load_json(fixture_path("tilting_h5.json"))
    summands = [rio.module_from_dict(h5, d) for d in data["summands"]]
    rep = check_tilted_sufficient(TiltingContext(h5, summands))
    assert rep.verdict == FAILS
    failed = [w["cond"] for w in rep.witnesses if "cond" in w and w.get("holds") is False]
    assert failed, "at least one of conditions (1)-(3) must fail"
    # trivial tilt over A3: all three conditions hold and A = H satisfies the main check
    trivial = check_tilted_sufficient(TiltingContext(a3, [projective_at(a3, v) for v in ("1", "2", "3")]))
    assert trivial.verdict == HOLDS
    assert main_report_of(a3).verdict == HOLDS
    print("CRITERION 10 PASS: construction fails condition(s) %s; trivial tilt validates the implication" % failed)
