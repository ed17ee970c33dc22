"""The tau links that _fill_tau_tables adds to a catalog stopped by the budget: the bounds on
dim tau X that decide whether a frontier node is transposed, and the catalogs and reports
they give, checked against a fill that transposes every frontier node."""
import random

import pytest

from repherd import catalog, homological
from repherd.catalog import Budget, enumerate_indecomposables
from repherd.checks import check_representation_hereditary
from repherd.fields import PrimeField
from repherd.io import algebra_from_dict
from repherd.modules import dual_module

from tests.conftest import load_fixture_algebra
from tests.test_syzygy_records import EUCLIDEAN_BUDGETS, FIXTURES, GENERATED, _catalog, gen

COMPLETE = (
    [pytest.param(name, p, id="%s-%s" % (name, "GF%d" % p if p else "Q")) for name in FIXTURES if name != "kron"
     for p in (None, 2, 3)]
    + [pytest.param(name, None, id=name) for name in GENERATED if name.startswith("A") or name in ("E6", "k[x]/(x^2)")]
)


@pytest.mark.parametrize("name, p", COMPLETE)
def test_the_nu_bounds_hold_tau(name, p):
    """On a complete catalog every node that is not projective has a translate, whose dimension
    vector lies within the bounds read off the node's record and top."""
    cat = _catalog(name, p)
    assert cat.complete
    for node in cat.nodes:
        if node.proj_vertex is None:
            lo, hi = catalog._tau_dims_bounds(node.rep, node.record)
            tau = cat.nodes[node.tau].rep.dims
            assert all(a <= d <= b for a, d, b in zip(lo, tau, hi)), node.name


def _reference_fill(cat, kept):
    """Transpose every node that knitting did not link to its translate, afresh whatever a read
    kept, and look the translate up in the catalog."""
    if cat.complete:
        return
    for i, node in enumerate(cat.nodes):
        if node.proj_vertex is None and node.tau is None:
            presentation = catalog._transpose_with_cover(node.rep)
            node.record = presentation[3]
            node.tau = cat.find(dual_module(presentation[0]))
            if node.tau is not None:
                cat.nodes[node.tau].tau_inv = i
                cat.nodes[node.tau].dual_record = presentation[4]


def _euclidean(name):
    data = gen.euclidean_algebra(random.Random("catalog-q:" + name), gen.EUCLIDEAN[name], "Q")
    return algebra_from_dict(data)


def _stopped_algebra(name, p):
    return _euclidean(name) if name in EUCLIDEAN_BUDGETS else load_fixture_algebra(name, p and PrimeField(p))


# (input, prime or None for Q, --budget-modules, --budget-dim) of catalogs stopped by the
# budget, with and without tau links filled in
STOPPED = [
    ("d4", None, 9, 128), ("d4", None, 11, 128), ("d4", 2, 10, 128), ("d4", 3, 11, 128),
    ("h5", None, 14, 128), ("h5", None, 16, 128), ("h5", None, 18, 128), ("h5", 3, 16, 128), ("h5", None, 29, 40),
    ("sq", None, 8, 128), ("sq", None, 10, 128), ("sq", 2, 9, 128),
    ("tilted4", None, 5, 128), ("tilted4", None, 9, 128), ("tilted5", None, 12, 128), ("loop2", None, 3, 128),
    ("loop2", None, 4, 128), ("a3", None, 4, 128), ("a4_rad2", None, 5, 128), ("kron", None, 64, 128),
    ("kron", 2, 64, 128), ("kron", None, 29, 16),
    ("d4_tilde", None, 12, 128), ("d4_tilde", None, 20, 128), ("a3_tilde", None, 11, 128),
    ("a3_tilde", None, 18, 128), ("a2_tilde", None, 17, 128), ("kronecker", None, 12, 128),
]


def _record(record):
    return None if record is None else (
        tuple(record.source_dims), record.tops, record.projective, record.kernel.dims, record.kernel.mats)


def _knitted(cat):
    return [(node.name, node.tau, node.tau_inv, _record(node.record), _record(node.dual_record))
            for node in cat.nodes]


@pytest.mark.parametrize("name, p, modules, dim", STOPPED,
                         ids=["%s-%s-%d-%d" % (n, "GF%d" % p if p else "Q", m, d) for n, p, m, d in STOPPED])
def test_the_fill_gives_what_transposing_every_frontier_node_gives(name, p, modules, dim, monkeypatch):
    """Names, tau links, records and the main report are those of a fill that transposes every
    node knitting did not link."""
    alg = _stopped_algebra(name, p)
    budget = Budget(modules, dim)
    with monkeypatch.context() as patched:
        patched.setattr(catalog, "_fill_tau_tables", _reference_fill)
        reference = enumerate_indecomposables(alg, budget)
    cat = enumerate_indecomposables(alg, budget)
    assert not cat.complete
    assert _knitted(cat) == _knitted(reference)
    assert (check_representation_hereditary(alg, catalog=cat).to_json()
            == check_representation_hereditary(alg, catalog=reference).to_json())


def _fill_counts(alg, budget, monkeypatch):
    """(frontier, transposed, linked): the nodes the fill found not projective and with no tau
    link, the transposes it made, and the links it added, on a fresh catalog."""
    counts = {"transposed": 0}
    real_fill, real_transpose = catalog._fill_tau_tables, catalog._transpose_with_cover

    def counting(m, *args):
        counts["transposed"] += 1
        return real_transpose(m, *args)

    def fill(cat, kept):
        before = [node.tau for node in cat.nodes]
        counts["frontier"] = sum(node.proj_vertex is None and t is None for node, t in zip(cat.nodes, before))
        with monkeypatch.context() as patched:
            patched.setattr(catalog, "_transpose_with_cover", counting)
            real_fill(cat, kept)
        counts["linked"] = sum(t is None and node.tau is not None for node, t in zip(cat.nodes, before))

    with monkeypatch.context() as patched:
        patched.setattr(catalog, "_fill_tau_tables", fill)
        assert not enumerate_indecomposables(alg, budget).complete
    return counts["frontier"], counts["transposed"], counts["linked"]


def test_the_fill_transposes_only_the_nodes_it_links(monkeypatch):
    """On the benchmark's Euclidean inputs at their budgets 14 frontier nodes have no translate
    among the nodes, and none is transposed; kron at the default budget has 2.  Where the fill
    does link, it transposes exactly the nodes it links."""
    euclidean = [_fill_counts(_euclidean(name), Budget(budget), monkeypatch)
                 for name, budget in EUCLIDEAN_BUDGETS.items()]
    assert [frontier for frontier, _, _ in euclidean] == [2, 5, 4, 3]
    assert sum(frontier for frontier, _, _ in euclidean) == 14
    assert [(transposed, linked) for _, transposed, linked in euclidean] == [(0, 0)] * 4
    assert _fill_counts(load_fixture_algebra("kron"), Budget(), monkeypatch) == (2, 0, 0)
    for name, modules in (("d4", 11), ("h5", 18), ("sq", 9), ("tilted4", 9), ("loop2", 4)):
        frontier, transposed, linked = _fill_counts(load_fixture_algebra(name), Budget(modules), monkeypatch)
        assert transposed == linked > 0
        assert frontier >= linked
    frontier, transposed, linked = _fill_counts(_euclidean("a3_tilde"), Budget(11), monkeypatch)
    assert (frontier, transposed, linked) == (6, 2, 2)


def test_the_fill_covers_each_node_it_links_once(monkeypatch):
    """On every budget-stopped catalog of STOPPED no module is transposed twice, and a frontier
    node that the fill links and that had no record is covered once over the whole knitting:
    its record and its transpose come from one projective cover, the fill's own or that of the
    transpose a read kept for the node's tau step.  The reads hand the fill 6 such transposes,
    on 5 of the catalogs.  Linked nodes with no record are found on several of the catalogs."""
    linked, handed = 0, []
    real_fill, real_cover = catalog._fill_tau_tables, homological._cover_data
    real_transpose = catalog._transpose_with_cover
    for name, p, modules, dim in STOPPED:
        covered, transposed = [], []

        def cover(m):
            covered.append(m)
            return real_cover(m)

        def transpose(m, *args):
            transposed.append(m)
            return real_transpose(m, *args)

        def fill(cat, kept):
            handed.append(len(kept))
            before = [(node.tau, node.record) for node in cat.nodes]
            real_fill(cat, kept)
            for node, (tau, record) in zip(cat.nodes, before):
                if node.proj_vertex is None and tau is None and record is None and node.tau is not None:
                    nonlocal linked
                    linked += 1
                    assert sum(m is node.rep for m in covered) == 1, name

        with monkeypatch.context() as patched:
            patched.setattr(catalog, "_fill_tau_tables", fill)
            patched.setattr(catalog, "_cover_data", cover)
            patched.setattr(homological, "_cover_data", cover)
            patched.setattr(catalog, "_transpose_with_cover", transpose)
            assert not enumerate_indecomposables(_stopped_algebra(name, p), Budget(modules, dim)).complete
        assert len({id(m) for m in transposed}) == len(transposed), name
    assert linked > 0
    assert (sum(handed), sum(n > 0 for n in handed)) == (6, 5)
