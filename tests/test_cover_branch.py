"""The kernel test's cover branch: where no injective that is not projective maps to a module,
the module's projective cover is its minimal right add(A + DA)-approximation, and the kernel
test reads it, or the syzygy record knitting wrote, in place of asking minimal_right_approx."""
import os
import random
import sys

import pytest

from repherd import catalog, checks, homological
from repherd import io as rio
from repherd.catalog import Budget, CatalogNode, IndecomposableCatalog, enumerate_indecomposables
from repherd.fields import PrimeField
from repherd.homological import projective_cover
from repherd.modules import gen_cogen, indecomposable_summands, kernel_of, same_summands

from tests.conftest import ROOT, catalog_of, fixture_path, load_fixture_algebra

sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import gen  # noqa: E402

FIXTURES = ["a2", "a3", "a4_rad2", "d4", "h5", "kron", "loop2", "sq", "tilted4", "tilted5"]
RELATION_FIXTURES = ["a4_rad2", "loop2", "sq", "tilted4", "tilted5"]
NAKAYAMA = [(n, r) for n in range(3, 9) for r in range(2, n)]
# The halves, one per module and side, that the general path runs on; every other input has none.
GENERAL_HALVES = {"loop2": 2, "tilted4": 4}

CASES = (
    [(name, None) for name in FIXTURES]
    + [(name, p) for name in RELATION_FIXTURES for p in (2, 3)]
    + [("A%d/rad%d" % nr, None) for nr in NAKAYAMA]
)


def _algebra(name, p):
    if name.startswith("A"):
        n, r = map(int, name[1:].split("/rad"))
        return rio.algebra_from_dict(gen.nakayama_algebra(random.Random(name), n, r, "Q"))
    return load_fixture_algebra(name, None if p is None else PrimeField(p))


def _sides(alg, node):
    """For the right and the left test of a node: (the module, its Hom table, the entries of the
    table that are injective and not projective, the names that name the kernel's pieces, the
    record knitting wrote or None)."""
    gc = gen_cogen(alg)
    n = len(gc.projectives)
    return [
        (node.rep, gc.homs, range(n, len(gc.modules)), ("P", "projective"), node.record),
        (node.dual, gc.dual_homs, [i for i in range(n) if i not in gc.inj_entries],
         ("I", "injective"), node.dual_record),
    ]


def _half(alg, m, homs, outside, naming, record):
    """The source dimensions, kernel dimensions, kernel piece names and projectivity of one half."""
    return checks._kernel_half(m, homs, outside, gen_cogen(alg).names, *naming, record)


@pytest.mark.parametrize("name, p", CASES, ids=["%s-%s" % (n, "Q" if p is None else "GF%d" % p) for n, p in CASES])
def test_cover_branch_gives_the_minimal_approximation(name, p):
    """On every module outside add(A + DA) and on its dual, the cover branch, with a fresh cover
    and with the record knitting wrote, gives what minimal_right_approx gives.  Counting every entry
    of the table as one that may map in sends a half down the general path, as a projective maps
    onto each nonzero module."""
    alg = _algebra(name, p)
    general = 0
    for node in catalog_of(alg).nodes:
        if node.in_add_gen_cogen:
            continue
        for m, homs, outside, naming, record in _sides(alg, node):
            assert not m.is_zero()
            want = _half(alg, m, homs, range(len(homs.modules)), naming, None)
            assert _half(alg, m, homs, outside, naming, record) == want
            if any(homs.entry(m, i) for i in outside):
                general += 1
                continue
            assert _half(alg, m, homs, (), naming, None) == want
            if record is not None:
                assert _half(alg, m, homs, (), naming, record) == want
    assert general == GENERAL_HALVES.get(name, 0)


@pytest.mark.parametrize("name", FIXTURES)
def test_general_path_runs_only_on_loop2_and_tilted4(name, monkeypatch):
    """The main check asks minimal_right_approx once for each half where an injective that is not
    projective maps in: twice on loop2, four times on tilted4, and never on the hereditary fixtures
    or on the other ones with relations."""
    alg = rio.load_algebra(fixture_path(name + ".json"))
    cat = enumerate_indecomposables(alg)
    calls = []
    original = checks.minimal_right_approx

    def recording(m, xs, _homs=None):
        calls.append(m)
        return original(m, xs, _homs=_homs)

    monkeypatch.setattr(checks, "minimal_right_approx", recording)
    checks.check_representation_hereditary(alg, catalog=cat)
    assert len(calls) == GENERAL_HALVES.get(name, 0)
    if not alg.relations:
        assert calls == []


# What nodes outside add(A + DA) carry of their covers: the records of the module and of its
# dual, each with its kernel, and how many of those records a transpose of the record's own
# module wrote, by a transpose or by the one cover that _fill_tau_tables makes.  A complete
# catalog records both sides of every such node; on d4 each record was written at the other end
# of its tau pair.  kron's catalog stops at the budget, and the nodes the knitting did not reach
# get their records from the fill.
CARRIED = {"d4": (8, 0), "h5": (20, 5), "tilted5": (12, 3), "a4_rad2": (4, 1), "sq": (8, 1), "kron": (23, 11)}


@pytest.mark.parametrize("name", sorted(CARRIED))
def test_carried_cover_is_the_fresh_one(name, monkeypatch):
    """A record gives the source dimensions of a fresh projective_cover.  Its kernel has the
    matrices of a fresh kernel_of where its own module was transposed or covered, and the summands of a
    fresh kernel_of where the transpose at the other end of the tau pair wrote it."""
    alg = load_fixture_algebra(name)
    transposed = []
    real, real_record = catalog._transpose_with_cover, catalog.syzygy_record

    def recording(m, *args):
        presentation = real(m, *args)
        transposed.append(presentation[3])
        return presentation

    def recording_record(m, *args):
        transposed.append(real_record(m, *args))
        return transposed[-1]

    monkeypatch.setattr(catalog, "_transpose_with_cover", recording)
    monkeypatch.setattr(catalog, "syzygy_record", recording_record)
    cat = enumerate_indecomposables(alg)
    monkeypatch.undo()
    recorded = own = 0
    for node in cat.nodes:
        for m, record in ((node.rep, node.record), (node.dual, node.dual_record)):
            if record is None or node.in_add_gen_cogen:
                continue
            recorded += 1
            fresh = projective_cover(m)
            assert record.source_dims == fresh.source.dims
            ker, _ = kernel_of(fresh)
            if any(record is r for r in transposed):
                own += 1
                assert record.kernel.dims == ker.dims and record.kernel.mats == ker.mats
            else:
                assert same_summands(indecomposable_summands(record.kernel), indecomposable_summands(ker))
    assert (recorded, own) == CARRIED[name]


@pytest.mark.parametrize("name", ["d4", "h5", "loop2", "tilted4", "tilted5", "a4_rad2"])
def test_cached_catalog_gives_the_same_report(name, monkeypatch):
    """The knitted catalog's nodes copied without their records, as check-module's modules
    come: syzygy_record builds a cover at each half on the cover branch that read a record,
    and the main check gives the report it gives on the knitted catalog."""
    alg = rio.load_algebra(fixture_path(name + ".json"))
    cat = enumerate_indecomposables(alg, Budget())
    want = checks.check_representation_hereditary(alg, catalog=cat).to_json()
    recorded = sum(
        record is not None
        for node in cat.nodes
        if not node.in_add_gen_cogen
        for record in (node.record, node.dual_record)
    )
    bare = [
        CatalogNode(node.rep, node.name, node.proj_vertex, node.inj_vertex, node.simple_vertex, node.tau,
                    node.tau_inv, node.arrows, node.split)
        for node in cat.nodes
    ]
    covers = []
    real = homological.cover_with_kernel

    def counting(m):
        covers.append(m)
        return real(m)

    monkeypatch.setattr(homological, "cover_with_kernel", counting)
    got = checks.check_representation_hereditary(alg, catalog=IndecomposableCatalog(alg, bare, cat.complete))
    assert got.to_json() == want
    assert len(covers) == recorded - GENERAL_HALVES.get(name, 0)
