"""The add(A + DA) record: its Hom tables, the kernel test's projectivity by a dimension count,
and part (v)'s minimality by dimension vectors."""
import os
import random
import sys

import pytest

from repherd import checks, homological, modules
from repherd import io as rio
from repherd.catalog import Budget, enumerate_indecomposables
from repherd.errors import VerificationFailed
from repherd.fields import PrimeField
from repherd.homological import minimal_right_approx, projective_cover, solve_factor_right
from repherd.linalg import Mat, hstack, rank
from repherd.modules import (
    HomTable,
    ModuleMorphism,
    cokernel_of,
    cokernel_top_dims,
    compose,
    direct_sum,
    dual_module,
    gen_cogen,
    hom_basis,
    is_isomorphic,
    kernel_of,
    morphism_flat,
    projective_at,
    radical_of,
    top_dims,
)

from tests.reference import node_named, simple_at
from tests.conftest import ROOT, catalog_of, fixture_path, load_fixture_algebra, main_report_of

sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import gen  # noqa: E402

COMPLETE = ["a3", "d4", "h5", "loop2", "sq", "tilted4", "tilted5"]
FIELDS = [None, PrimeField(101)]
FIELD_IDS = ["Q", "GF101"]

def _outside(alg):
    cat = catalog_of(alg)
    assert cat.complete
    return [node.rep for node in cat.nodes if not node.in_add_gen_cogen]


def _cover_names(k, prefix):
    """The projectivity test the dimension count replaced: the kernel of the projective cover
    vanishes; the names are read off the top."""
    if k.is_zero():
        return []
    if not kernel_of(projective_cover(k))[0].is_zero():
        return None
    rad, _ = radical_of(k)
    verts = k.algebra.quiver.vertices
    return ["%s(%s)" % (prefix, verts[v]) for v in range(len(verts)) for _ in range(k.dims[v] - rad.dims[v])]


def _assert_same_verdict(k, prefix, projs):
    assert checks._projective_piece_names(k, prefix, projs) == _cover_names(k, prefix)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("name", COMPLETE + ["a4_rad2"])
def test_dimension_count_matches_the_cover_kernel(name, field, monkeypatch):
    """On every kernel and cokernel the kernel test produces, the dimension count and the
    kernel of the projective cover agree on projectivity and on the names."""
    alg = load_fixture_algebra(name, field)
    seen = []
    original = checks._projective_piece_names

    def recording(k, prefix, projs):
        seen.append((k, prefix, projs))
        return original(k, prefix, projs)

    monkeypatch.setattr(checks, "_projective_piece_names", recording)
    for m in _outside(alg):
        checks._module_kernel_test(alg, m)
    monkeypatch.undo()
    assert len(seen) == 2 * len(_outside(alg))
    for k, prefix, projs in seen:
        _assert_same_verdict(k, prefix, projs)
    if name == "a4_rad2":
        verdicts = {(prefix, _cover_names(k, prefix) is not None) for k, prefix, _ in seen}
        assert verdicts == {("P", True), ("P", False), ("I", True), ("I", False)}


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("name", COMPLETE + ["kron", "a4_rad2"])
def test_dimension_count_on_simples(name, field):
    """Every simple and the dual of every simple, projective or not."""
    alg = load_fixture_algebra(name, field)
    gc = gen_cogen(alg)
    verdicts = []
    for v in range(alg.quiver.n_vertices):
        s = simple_at(alg, v)
        _assert_same_verdict(s, "P", gc.projectives)
        _assert_same_verdict(dual_module(s), "I", gc.injectives)
        verdicts.append(checks._projective_piece_names(s, "P", gc.projectives) is not None)
    # every algebra here has a simple that is not projective
    assert not all(verdicts)


def test_dimension_count_named_simples(loop2, kron):
    """loop2's S(1) is not projective, and kron's S(2) is but S(1) is not."""
    projs = gen_cogen(loop2).projectives
    assert checks._projective_piece_names(simple_at(loop2, 0), "P", projs) is None
    projs = gen_cogen(kron).projectives
    assert checks._projective_piece_names(simple_at(kron, 0), "P", projs) is None
    assert checks._projective_piece_names(simple_at(kron, 1), "P", projs) == ["P(2)"]


def _same_map(f, g):
    assert f.source.dims == g.source.dims
    assert f.source.mats == g.source.mats
    assert f.mats == g.mats


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("name", COMPLETE)
def test_table_gives_the_same_approximations(name, field):
    """With and without the record's Hom tables, minimal_right_approx returns the same source and
    the same matrices, entry by entry, for every list the checks read from a table."""
    alg = load_fixture_algebra(name, field)
    gc = gen_cogen(alg)
    n = len(gc.projectives)
    inj_homs = HomTable(gc.injectives)
    # where no I(v) is isomorphic to a P(w), every I(v) is an entry of the table over add(A + DA)
    inj_in_homs = all(any(iv is x for x in gc.modules) for iv in gc.injectives)
    assert inj_in_homs == (name not in ("a3", "sq", "tilted5"))
    for x in _outside(alg):
        dx = dual_module(x)
        cases = [
            (x, gc.modules, gc.homs),
            (x, gc.injectives, inj_homs),
            (dx, gc.duals, gc.dual_homs),
            (dx, gc.duals[:n], gc.dual_homs),
        ]
        if inj_in_homs:
            cases.append((x, gc.injectives, gc.homs))
        for m, xs, table in cases:
            _same_map(minimal_right_approx(m, xs, _homs=table), minimal_right_approx(m, xs))


def test_table_must_start_with_the_list(a4_rad2):
    """A list with a module the table does not hold, the very object, is refused: a4_rad2's I(1)
    is isomorphic to P(2), which stands for it in add(A + DA)."""
    gc = gen_cogen(a4_rad2)
    assert gc.inj_entries[0] == 1 and gc.injectives[0] not in gc.modules
    with pytest.raises(ValueError):
        minimal_right_approx(_outside(a4_rad2)[0], gc.injectives, _homs=gc.homs)


@pytest.mark.parametrize("name", ["d4", "h5"])
def test_second_kernel_test_solves_no_hom_among_the_summands(name, monkeypatch):
    """The kernel test solves each Hom between two summands of add(A + DA), or between two of
    their duals, at most once per algebra, and not at all when it runs again."""
    alg = rio.load_algebra(fixture_path(name + ".json"))  # a fresh algebra: empty tables
    gc = gen_cogen(alg)
    outside = [node.rep for node in catalog_of(alg).nodes if not node.in_add_gen_cogen]
    summands = {id(x) for x in gc.modules + gc.duals}
    calls = []
    original = modules.hom_basis

    def recording(m, n):
        if id(m) in summands and id(n) in summands:
            calls.append((id(m), id(n)))
        return original(m, n)

    for mod in (modules, homological):
        monkeypatch.setattr(mod, "hom_basis", recording)
    first = [checks._module_kernel_test(alg, x) for x in outside]
    assert calls and len(calls) == len(set(calls))
    calls.clear()
    second = [checks._module_kernel_test(alg, x) for x in outside]
    assert calls == []
    assert first == second


def _fresh(name):
    """A freshly loaded algebra, whose Hom tables are empty, and its complete catalog."""
    if name == "E6":
        alg = rio.algebra_from_dict(gen.dynkin_algebra(random.Random(3), "E", 6, "Q"))
        return alg, enumerate_indecomposables(alg, Budget(1000, 4096))
    alg = rio.load_algebra(fixture_path(name + ".json"))
    return alg, enumerate_indecomposables(alg)


@pytest.mark.parametrize("name", ["d4", "h5", "E6"])
def test_suite_solves_each_hom_into_a_node_once(name, monkeypatch):
    """Across the main check, node_facts, the gate, part (v) and the oracle, each Hom from a
    summand of add(A + DA), or from the dual of one, into a catalog node's module or into its
    dual is solved at most once.  Every dual of the same node counts as the same target."""
    alg, cat = _fresh(name)
    assert cat.complete
    calls = []
    original = modules.hom_basis

    def recording(m, n):
        calls.append((m, n))
        return original(m, n)

    for mod in (modules, homological):
        monkeypatch.setattr(mod, "hom_basis", recording)
    reports, _ = checks.run_all_checks(alg, catalog=cat)
    monkeypatch.undo()
    assert reports[0].verdict == reports[-1].verdict == checks.HOLDS
    gc = gen_cogen(alg)
    sources = {id(x) for x in gc.modules + gc.duals}
    nodes = {id(node.rep): i for i, node in enumerate(cat.nodes)}
    duals = {_content(dual_module(node.rep)): i for i, node in enumerate(cat.nodes)}
    pairs = []
    for m, n in calls:
        if id(m) in sources:
            if id(n) in nodes:
                pairs.append((id(m), "A", nodes[id(n)]))
            elif _content(n) in duals:
                pairs.append((id(m), "op", duals[_content(n)]))
    assert {side for _, side, _ in pairs} == {"A", "op"}
    assert len(pairs) == len(set(pairs))


def _content(m):
    return m.algebra, m.dims, m.mats


def _is_right_approx(f, xs):
    """Reference: whether every morphism from a module in xs to the target of f factors through
    f.  The composites f . b with b in Hom(X, source f) lie in Hom(X, target f), so they span it
    exactly when their rank is dim Hom(X, target f)."""
    fld = f.target.algebra.field
    for x in xs:
        want = len(hom_basis(x, f.target))
        vecs = [morphism_flat(compose(f, b)) for b in hom_basis(x, f.source)]
        got = rank(Mat(fld, len(vecs), len(vecs[0]), tuple(a for v in vecs for a in v))) if vecs else 0
        if got != want:
            return False
    return True


def _built_map(x, inj_list, inj_homs):
    """Reference for the map part (v) stands for: the minimal right add(inj_list)-approximation
    fr of x, together with a lift through the projection onto coker fr of the projective cover
    of coker fr, found by a Hom solve."""
    alg = x.algebra
    fr = minimal_right_approx(x, inj_list, _homs=inj_homs)
    cok, cproj = cokernel_of(fr)
    cover = projective_cover(cok)
    lift = solve_factor_right(cproj, cover)
    assert lift is not None
    mats = [hstack(alg.field, [fr.mats[v], lift.mats[v]], rows=x.dims[v]) for v in range(len(x.dims))]
    return ModuleMorphism(direct_sum(alg, [fr.source, cover.source]), x, tuple(mats)).check()


def _assert_minimality_by_dims(x, inj_list, inj_homs, add_homs):
    """For an inj_list that holds every indecomposable injective: the built map is a right
    add(add_homs.modules)-approximation, the dimension vectors of its source and of the minimal
    source decide whether the two are isomorphic, and checks._built_right_approx_ok(...) is the
    verdict of the comparison by decomposition.  The projective cover of coker fr that part (v)
    counts from the top, read off fr and the arrows with no cokernel built, has the dimensions of
    the one projective_cover builds."""
    fp = _built_map(x, inj_list, inj_homs)
    fr = minimal_right_approx(x, inj_list, _homs=inj_homs)
    cok = cokernel_of(fr)[0]
    projs = [projective_at(x.algebra, v) for v in range(len(x.dims))]
    assert cokernel_top_dims(fr) == top_dims(cok)
    assert checks._cover_dims(cokernel_top_dims(fr), projs) == list(projective_cover(cok).source.dims)
    minimal = minimal_right_approx(x, add_homs.modules, _homs=add_homs)
    assert _is_right_approx(fp, add_homs.modules)
    iso = is_isomorphic(fp.source, minimal.source)
    assert iso == (fp.source.dims == minimal.source.dims)
    assert checks._built_right_approx_ok(x, inj_list, inj_homs, minimal.source.dims) == iso
    return iso


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("name", ["a2"] + COMPLETE + ["a4_rad2"])
def test_part_v_minimality_by_dimension_vectors(name, field):
    """On every module outside add(A + DA), and on its dual, part (v)'s comparison of
    dimension vectors gives the verdict of the comparison by decomposition."""
    alg = load_fixture_algebra(name, field)
    gc = gen_cogen(alg)
    dual_proj = gc.duals[: len(gc.projectives)]
    inj_homs = HomTable(gc.injectives)
    for x in _outside(alg):
        assert _assert_minimality_by_dims(x, gc.injectives, inj_homs, gc.homs) is True
        assert _assert_minimality_by_dims(dual_module(x), dual_proj, gc.dual_homs, gc.dual_homs) is True


def test_part_v_says_not_minimal(d4):
    """A right approximation with too large a source is not minimal.  On d4, the injectives and
    P(3), together with the cover of the cokernel, map onto tau^-1 P(1) from a source larger
    than the minimal add(A + DA)-approximation's."""
    gc = gen_cogen(d4)
    x = node_named(catalog_of(d4), "τ⁻¹P(1)").rep
    p3 = projective_at(d4, "3")
    with_p3 = list(gc.injectives) + [p3]
    assert _assert_minimality_by_dims(x, with_p3, HomTable(with_p3), gc.homs) is False
    assert _assert_minimality_by_dims(x, gc.injectives, HomTable(gc.injectives), gc.homs) is True
    # every single summand of add(A + DA) added to the injectives
    verdicts = []
    for u in gc.modules:
        xs = list(gc.injectives) + [u]
        table = HomTable(xs)
        verdicts.extend(_assert_minimality_by_dims(y, xs, table, gc.homs) for y in _outside(d4))
    assert verdicts.count(False) == 9 and verdicts.count(True) == 23


def test_part_v_needs_the_main_check_record(d4):
    """Part (v) reads the minimal sources from the main check's witnesses; a module the main
    report does not name is refused."""
    cat = catalog_of(d4)
    main = main_report_of(d4)
    dropped = [w for w in main.witnesses if w.get("module") != "τ⁻¹P(1)"]
    assert len(dropped) == len(main.witnesses) - 1
    partial = checks.CheckReport(main.check, main.verdict, dropped, list(main.notes))
    with pytest.raises(VerificationFailed, match="τ⁻¹P\\(1\\)"):
        checks.check_no_inj_to_proj_suite(d4, cat, main_report=partial)
