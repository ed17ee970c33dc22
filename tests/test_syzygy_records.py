"""The syzygy records that each transpose writes at both ends of its tau pair, checked against
fresh covers, and the pd and id that node_facts reads off them, checked against resolutions."""
import os
import random
import re
import sys

import pytest

from repherd import catalog, checks, homological
from repherd.catalog import Budget, enumerate_indecomposables, node_facts, resolution_dims
from repherd.dims import DimValue
from repherd.errors import IncompleteCatalog, VerificationFailed
from repherd.fields import PrimeField
from repherd.homological import (
    SyzygyRecord, _transpose_with_cover, cover_with_kernel, inj_dim, proj_dim, projective_cover,
)
from repherd.io import algebra_from_dict
from repherd.modules import indecomposable_summands, kernel_of, same_summands, top_dims

from tests.conftest import ROOT, catalog_of, load_fixture_algebra
from tests.test_endo import DUAL_NUMBERS

sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import gen  # noqa: E402

FIXTURES = ["a2", "a3", "a4_rad2", "d4", "h5", "kron", "loop2", "sq", "tilted4", "tilted5"]
# The Euclidean quivers of the catalog-q benchmark workload, at its module budgets: their
# catalogs stop at the budget, and _fill_tau_tables writes the records the knitting did not.
EUCLIDEAN_BUDGETS = {"kronecker": 12, "d4_tilde": 20, "a3_tilde": 20, "a2_tilde": 20}
# The cases whose catalogs stop at the budget: kron's at the default one.
INCOMPLETE = {"kron", *EUCLIDEAN_BUDGETS}
LARGE = Budget(max_modules=1000, max_total_dim=4096)


def _generated(name):
    """(algebra, budget) of a generated input: A<n>/rad<r>, E6, E7, a Euclidean quiver, or
    k[x]/(x^2), all over Q."""
    if name.startswith("A"):
        n, r = map(int, name[1:].split("/rad"))
        return algebra_from_dict(gen.nakayama_algebra(random.Random(name), n, r, "Q")), LARGE
    if name in ("E6", "E7"):
        return algebra_from_dict(gen.dynkin_algebra(random.Random(3), "E", int(name[1]), "Q")), LARGE
    if name in EUCLIDEAN_BUDGETS:
        data = gen.euclidean_algebra(random.Random("catalog-q:" + name), gen.EUCLIDEAN[name], "Q")
        return algebra_from_dict(data), Budget(max_modules=EUCLIDEAN_BUDGETS[name])
    return algebra_from_dict(dict(DUAL_NUMBERS, field="Q")), None


GENERATED = ["A%d/rad%d" % (n, r) for n in range(3, 9) for r in range(2, n)] + ["E6", "E7", *EUCLIDEAN_BUDGETS, "k[x]/(x^2)"]
CASES = (
    [pytest.param(name, p, id="%s-%s" % (name, "GF%d" % p if p else "Q")) for name in FIXTURES for p in (None, 2, 3)]
    + [pytest.param(name, None, id=name) for name in GENERATED]
)


def _algebra(name, p):
    """(algebra, budget) of a case."""
    if name in FIXTURES:
        return load_fixture_algebra(name, None if p is None else PrimeField(p)), None
    return _generated(name)


def _catalog(name, p):
    return catalog_of(*_algebra(name, p))


def _knit(name, p, monkeypatch):
    """A fresh catalog of a case, and the records in it that a transpose or a cover of their own
    module wrote; each other record was written by the transpose at the other end of its tau
    pair."""
    own = []
    real, real_record = catalog._transpose_with_cover, catalog.syzygy_record

    def recording(m, *args):
        presentation = real(m, *args)
        own.append(presentation[3])
        return presentation

    def recording_record(m, *args):
        own.append(real_record(m, *args))
        return own[-1]

    with monkeypatch.context() as patched:
        patched.setattr(catalog, "_transpose_with_cover", recording)
        patched.setattr(catalog, "syzygy_record", recording_record)
        return enumerate_indecomposables(*_algebra(name, p)), own


def fresh_record(m):
    """(source dims, kernel dims, tops of the kernel, projectivity) from a fresh cover of m and
    one of its kernel, the top counted by rank."""
    f, ker, _ = cover_with_kernel(m)
    tops = tuple(v for v, t in enumerate(top_dims(ker)) for _ in range(t))
    return f.source.dims, ker.dims, tops, ker.is_zero() or cover_with_kernel(ker)[1].is_zero()


def record_holds(record, m, own):
    """Whether a record says of m what fresh covers say, and its kernel is a fresh kernel_of:
    with the same matrices where a transpose of m itself wrote the record (own), else with the
    same summands."""
    if (record.source_dims, record.kernel.dims, record.tops, record.projective) != fresh_record(m):
        return False
    ker, _ = kernel_of(projective_cover(m))
    if record.kernel.mats == ker.mats:
        return True
    return not own and same_summands(indecomposable_summands(record.kernel), indecomposable_summands(ker))


def _is_own(record, own):
    return any(record is r for r in own)


def _sides(node):
    return ((node.rep, node.record, node.proj_vertex), (node.dual, node.dual_record, node.inj_vertex))


@pytest.mark.parametrize("name, p", CASES)
def test_every_record_is_what_fresh_covers_give(name, p, monkeypatch):
    """Every record on every node, of the module and of its dual, holds.  In a complete catalog
    each node that is not projective has a record and each that is not injective a dual one."""
    cat, own = _knit(name, p, monkeypatch)
    for node in cat.nodes:
        for m, record, vertex in _sides(node):
            if record is None:
                assert vertex is not None or not cat.complete
                continue
            assert vertex is None
            assert record_holds(record, m, _is_own(record, own))


@pytest.mark.parametrize("name, p", CASES)
def test_node_facts_read_off_the_records_are_the_resolved_ones(name, p):
    """On a complete catalog the pd and id that node_facts reads off the kept Omega are those of
    proj_dim and inj_dim, node by node.  An incomplete catalog, whose Omega may have a summand
    that is no node, is refused."""
    cat = _catalog(name, p)
    assert cat.complete is (name not in INCOMPLETE)
    if not cat.complete:
        with pytest.raises(IncompleteCatalog):
            node_facts(cat)
        return
    for node, facts in zip(cat.nodes, node_facts(cat)):
        assert facts["pd"] == proj_dim(node.rep) and facts["id"] == inj_dim(node.rep)


def test_dual_numbers_resolve_the_simple():
    """Over k[x]/(x^2) the syzygy of the simple is the simple, so its records are not projective,
    its omega and co_omega are the simple itself, and that cycle makes its pd and id infinite."""
    cat = _catalog("k[x]/(x^2)", None)
    (simple,) = [node for node in cat.nodes if node.proj_vertex is None]
    assert not simple.record.projective and not simple.dual_record.projective
    i = cat.nodes.index(simple)
    facts = node_facts(cat)[i]
    assert facts["omega"] == facts["co_omega"] == [i]
    assert not facts["pd"].is_finite and not facts["id"].is_finite


FIN, INF = DimValue.finite, DimValue.infinite()


def test_resolution_dims_on_a_hand_made_table():
    """Base nodes give 0 and an empty kernel 1; a chain adds one a step; node 4 is a summand at
    5 and at 6; 7 is a self-loop and 8, 9 a 2-cycle; 10 reaches the 2-cycle after it is
    resolved, and 11 reaches the 2-cycle 13, 14 before, through a node 12 of finite depth."""
    kernels = [[], [], [], [2], [3, 0], [4], [4, 1, 1], [7], [9], [8], [2, 8], [13], [0], [14], [13, 12]]
    assert resolution_dims({0, 1}, kernels) == [
        FIN(0), FIN(0), FIN(1), FIN(2), FIN(3), FIN(4), FIN(4), INF, INF, INF, INF, INF, FIN(1), INF, INF,
    ]


def test_resolution_dims_memoizes_shared_summands():
    """Each level of the ladder has two nodes whose kernels are both nodes of the level below, so
    without memoization the 60 levels would take 2^60 visits; each list is read a bounded number
    of times, the same for every node."""
    reads = {}

    class Counted(list):
        def __getitem__(self, i):
            reads[i] = reads.get(i, 0) + 1
            return list.__getitem__(self, i)

    kernels = Counted([[]] + [[1 + 2 * (level - 1), 2 + 2 * (level - 1)] if level else [0]
                              for level in range(60) for _ in range(2)])
    dims = resolution_dims({0}, kernels)
    assert dims == [FIN(0)] + [FIN(level + 1) for level in range(60) for _ in range(2)]
    assert len(set(reads.values())) == 1


def test_resolution_dims_follows_a_long_chain_without_recursion():
    kernels = [[]] + [[i - 1] for i in range(1, 5000)] + [[5000]]
    dims = resolution_dims(set(), kernels)
    assert dims[4999] == FIN(5000) and dims[5000] == INF


@pytest.mark.parametrize("side", ["record", "dual_record"])
def test_a_node_outside_the_base_with_no_record_is_refused(side):
    """On a freshly knitted complete catalog of h5, a node that is neither projective (for its
    record) nor injective (for its dual record) but has no record makes node_facts raise, naming it."""
    cat = enumerate_indecomposables(load_fixture_algebra("h5"))
    assert cat.complete
    base = "proj_vertex" if side == "record" else "inj_vertex"
    node = next(node for node in cat.nodes if getattr(node, base) is None)
    setattr(node, side, None)
    with pytest.raises(VerificationFailed, match=re.escape(node.name)):
        node_facts(cat)


# The complete catalogs: every fixture but kron, over Q, GF(2) and GF(3), A_n/rad^r for
# 3 <= n <= 8, and k[x]/(x^2).
COMPLETE = (
    [pytest.param(name, p, id="%s-%s" % (name, "GF%d" % p if p else "Q"))
     for name in FIXTURES if name != "kron" for p in (None, 2, 3)]
    + [pytest.param(name, None, id=name) for name in GENERATED if name.startswith("A") or name == "k[x]/(x^2)"]
)


@pytest.mark.parametrize("name, p", COMPLETE)
def test_the_main_check_builds_no_cover_on_a_complete_catalog(name, p, monkeypatch):
    """Knitting records both sides of every node outside add(A + DA), each record with its
    kernel, so each half of the kernel test reads a record or asks minimal_right_approx, and
    the main check builds no projective cover.  Node facts, made afresh, and the torsionless
    check read pd, id and the (co)syzygies of the projectives and injectives off the same kept
    kernels, and build none either."""
    cat = _catalog(name, p)
    assert cat.complete
    covers = []
    real = homological._cover_data

    def counting(m):
        covers.append(m)
        return real(m)

    monkeypatch.setattr(homological, "_cover_data", counting)
    monkeypatch.setattr(cat, "_facts", None)
    checks.check_representation_hereditary(cat.algebra, catalog=cat)
    node_facts(cat)
    checks.check_torsionless_structure(cat.algebra, cat)
    assert covers == []


@pytest.mark.parametrize("name", ["h5", "tilted4", "a4_rad2"])
def test_a_record_with_the_wrong_projectivity_fails(name, monkeypatch):
    cat, own = _knit(name, None, monkeypatch)
    records = [(m, r) for node in cat.nodes for m, r, _ in _sides(node) if r is not None]
    assert records
    for m, record in records:
        assert record_holds(record, m, _is_own(record, own))
        flipped = SyzygyRecord(record.source_dims, record.tops, not record.projective, record.kernel)
        assert not record_holds(flipped, m, _is_own(record, own))


@pytest.mark.parametrize("name", ["h5", "sq", "loop2", "tilted4"])
def test_a_transpose_whose_dual_map_reaches_a_stationary_path_is_refused(name, monkeypatch):
    """With the first top generator taken twice, each cover is onto but not minimal, the second
    cover sends a top to a stationary path, and g* does too: P1* -> Tr is no projective cover,
    and the dimension counts of the record of Tr would be wrong, so the transpose refuses."""
    alg = load_fixture_algebra(name)
    modules = [node.rep for node in catalog_of(alg).nodes]
    real = homological.top_places
    monkeypatch.setattr(homological, "top_places", lambda m: real(m) + real(m)[:1])
    for m in modules:
        with pytest.raises(VerificationFailed, match="stationary path"):
            _transpose_with_cover(m)
