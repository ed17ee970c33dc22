"""Knitting reads almost-split middle terms off the recorded AR arrows; these tests check the
catalog it builds against one that builds every sequence, and the recorded arrows against the
Hom dimensions they determine."""
import os
import random
import sys

import pytest

from repherd import catalog
from repherd.catalog import Budget, CatalogNode, _mesh_middle, enumerate_indecomposables
from repherd.checks import check_representation_hereditary
from repherd.errors import NonSplitEndomorphismRing, VerificationFailed
from repherd.fields import PrimeField
from repherd.io import algebra_from_dict
from repherd.modules import indec_isomorphic

from tests.reference import hom_dim
from tests.conftest import ROOT, catalog_of, load_fixture_algebra
from tests.test_cli import E6

sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import gen  # noqa: E402

COMPLETE_FIXTURES = ("a2", "a3", "d4", "h5", "loop2", "sq", "tilted4", "tilted5")
D5 = dict(E6, vertices=["1", "2", "3", "4", "5"], arrows=[
    {"name": "a", "from": "2", "to": "1"},
    {"name": "b", "from": "2", "to": "3"},
    {"name": "c", "from": "4", "to": "3"},
    {"name": "d", "from": "5", "to": "3"},
])
GENERATED = {"D5": D5, "E6": E6}
# The Euclidean quivers of the catalog-q benchmark workload, at its module budgets.
EUCLIDEAN_BUDGETS = {"kronecker": 12, "d4_tilde": 20, "a3_tilde": 20, "a2_tilde": 20}
# The generated shapes of the oracle-gfp benchmark workload, over its field GF(101), each drawn
# from a fixed stream, with a budget that leaves every catalog complete.
ORACLE_SHAPES = {
    "E7": lambda rng: gen.dynkin_algebra(rng, "E", 7, 101),
    "A8-rad3": lambda rng: gen.nakayama_algebra(rng, 8, 3, 101),
    "A10-rad3": lambda rng: gen.nakayama_algebra(rng, 10, 3, 101),
}
# The almost-split sequences that knitting builds, in every field tested; the others are read
# off the arrows out of the two ends of their meshes and the seeds not yet knitted, off the
# in-arrows of their left ends translated by tau^{-1}, or off the out-arrows of their right ends
# translated by tau.
READ_BUILT = {"h5": 0, "E6": 0, "kronecker": 0, "d4_tilde": 0, "a3_tilde": 0, "a2_tilde": 0,
              "E7": 0, "A8-rad3": 1, "A10-rad3": 1}
GF101 = PrimeField(101)
# (input, prime or None for Q) of the knitting comparisons
KNITTING_CASES = [
    pytest.param(name, p, id="%s-%s" % (name, "GF%d" % p if p else "Q"))
    for names, primes in (((*COMPLETE_FIXTURES, *GENERATED), (None, 101)), (EUCLIDEAN_BUDGETS, (None, 2, 3)),
                          (ORACLE_SHAPES, (101,)))
    for name in names for p in primes
]


def _algebra(name, field):
    if name in GENERATED:
        return algebra_from_dict(dict(GENERATED[name], field="Q"), field=field), Budget(max_total_dim=256)
    if name in EUCLIDEAN_BUDGETS:
        data = gen.euclidean_algebra(random.Random("catalog-q:" + name), gen.EUCLIDEAN[name], "Q")
        return algebra_from_dict(data, field=field), Budget(max_modules=EUCLIDEAN_BUDGETS[name])
    if name in ORACLE_SHAPES:
        data = ORACLE_SHAPES[name](random.Random("oracle-gfp:" + name))
        return algebra_from_dict(data, field=field), Budget(max_modules=1000, max_total_dim=4096)
    return load_fixture_algebra(name, field=field), None


def _node_key(node):
    return (
        node.rep.dims,
        tuple(m.entries for m in node.rep.mats),
        node.name,
        (node.proj_vertex, node.inj_vertex, node.simple_vertex),
        node.tau,
        node.tau_inv,
        node.arrows,
    )


def _class_key(node):
    """_node_key up to isomorphism: all of it but the matrices."""
    return _node_key(node)[:1] + _node_key(node)[2:]


def _knit(alg, budget, monkeypatch, mesh=True, by_tau_inv=True, by_tau=True):
    """(catalog, almost-split sequences built, transposes made), with the mesh read and the
    reads translated by tau^{-1} and by tau each on or declining."""
    built, transposed = [], []
    real_build, real_transpose = catalog.almost_split_sequence, catalog._transpose_with_cover

    def building(z, *args, **kwargs):
        built.append(z)
        return real_build(z, *args, **kwargs)

    def transposing(m, *args):
        transposed.append(m)
        return real_transpose(m, *args)

    with monkeypatch.context() as m:
        m.setattr(catalog, "almost_split_sequence", building)
        m.setattr(catalog, "_transpose_with_cover", transposing)
        if not mesh:
            m.setattr(catalog, "_mesh_middle", lambda nodes, s, t: None)
        if not (by_tau_inv and by_tau):
            real_read, on = catalog._translated_middle, {False: by_tau_inv, True: by_tau}
            m.setattr(catalog, "_translated_middle", lambda *args: real_read(*args) if on[args[-1]] else None)
        cat = enumerate_indecomposables(alg, budget)
    return cat, len(built), len(transposed)


def _assert_same_catalog(cat, reference):
    """The same completeness, names, flags, tau links and arrows, modules isomorphic node by node,
    and the same main report."""
    assert cat.complete == reference.complete
    assert [_class_key(node) for node in cat.nodes] == [_class_key(node) for node in reference.nodes]
    assert all(indec_isomorphic(x.rep, y.rep) for x, y in zip(cat.nodes, reference.nodes))
    alg = cat.algebra
    assert (check_representation_hereditary(alg, catalog=cat).to_json()
            == check_representation_hereditary(alg, catalog=reference).to_json())


@pytest.mark.parametrize("name, p", KNITTING_CASES)
def test_reading_middle_terms_off_the_meshes_changes_no_node(name, p, monkeypatch):
    """The mesh read changes no node: with the translated reads on, the catalog is the one whose
    mesh reads all decline, the same modules, names, flags, tau links and arrows, and the same
    completeness.  The reference that declines every read builds every sequence."""
    alg, budget = _algebra(name, p and PrimeField(p))
    read, read_built, _ = _knit(alg, budget, monkeypatch)
    unmeshed, unmeshed_built, _ = _knit(alg, budget, monkeypatch, mesh=False)
    plain, plain_built, _ = _knit(alg, budget, monkeypatch, mesh=False, by_tau_inv=False, by_tau=False)
    assert read.complete == unmeshed.complete == plain.complete == (name not in EUCLIDEAN_BUDGETS)
    assert [_node_key(node) for node in read.nodes] == [_node_key(node) for node in unmeshed.nodes]
    assert read_built <= unmeshed_built <= plain_built
    if plain.complete:
        assert plain_built == sum(node.proj_vertex is None for node in plain.nodes)
    if name in READ_BUILT:
        assert read_built == READ_BUILT[name]


def _assert_same_knitting(name, p, monkeypatch, **declined):
    """The catalog with every read on against the one with the reads of declined declining: the
    same completeness, names, flags, tau links and arrows, isomorphic modules and the same main
    report, from as many transposes, which on a complete catalog are one per tau link, and no
    more sequences built."""
    alg, budget = _algebra(name, p and PrimeField(p))
    read, built, transposed = _knit(alg, budget, monkeypatch)
    reference, reference_built, reference_transposed = _knit(alg, budget, monkeypatch, **declined)
    _assert_same_catalog(read, reference)
    assert transposed == reference_transposed
    assert built <= reference_built
    if read.complete:
        assert transposed == sum(node.tau is not None for node in read.nodes)


@pytest.mark.parametrize("name, p", KNITTING_CASES)
def test_the_translated_read_gives_the_catalog_that_builds_every_sequence(name, p, monkeypatch):
    """Against the reference that declines every read."""
    _assert_same_knitting(name, p, monkeypatch, mesh=False, by_tau_inv=False, by_tau=False)


@pytest.mark.parametrize("name, p", KNITTING_CASES)
def test_the_read_translated_by_tau_changes_no_catalog(name, p, monkeypatch):
    """Against the reference whose reads off the out-arrows of t translated by tau decline."""
    _assert_same_knitting(name, p, monkeypatch, by_tau=False)


def _doctored_reads(monkeypatch, doctor):
    """Hand each translated read the nodes and arrows that doctor(nodes, arrows, by_tau) returns,
    when it returns them, and decline that read; the list of what those reads gave.  A transpose
    the read keeps for a node of the doctored nodes that is no node of the knitting is dropped."""
    gave = []
    real = catalog._translated_middle

    def read(nodes, s, t, arrows, seeds, kept, by_tau):
        view = doctor(nodes, arrows, by_tau)
        if view is None:
            return real(nodes, s, t, arrows, seeds, kept, by_tau)
        seen = dict(kept)
        gave.append(real(view[0], s, t, view[1], seeds, seen, by_tau))
        kept.update((k, v) for k, v in seen.items() if k < len(nodes))
        return None

    monkeypatch.setattr(catalog, "_translated_middle", read)
    return gave


def _copy(node, **changes):
    out = CatalogNode(node.rep, node.name, node.proj_vertex, node.inj_vertex, node.simple_vertex, node.tau,
                      node.tau_inv, node.arrows, node.split)
    for attr, value in changes.items():
        setattr(out, attr, value)
    return out


def _first_translated(nodes, arrows, by_tau):
    """The first node of arrows that the read translates: not projective with by_tau, else not
    injective."""
    return next((w for w in arrows if (nodes[w].proj_vertex if by_tau else nodes[w].inj_vertex) is None), None)


def _one_more(nodes, arrows, by_tau):
    """One more arrow into s from its first in-neighbour that is not injective."""
    w = None if by_tau else _first_translated(nodes, arrows, by_tau)
    return None if w is None else (nodes, {**arrows, w: arrows[w] + 1})


def _split_arrow(nodes, arrows, by_tau):
    """One arrow W -> s of multiplicity m > 1, from a node with no tau^{-1} link, made into
    W^(m-1) -> s and W' -> s for a copy W' of W appended to the nodes: the read finds two pieces
    with one dimension vector, Tr D W and Tr D W', isomorphic but of distinct nodes."""
    w = None if by_tau else next((w for w, m in arrows.items() if m > 1 and nodes[w].inj_vertex is None
                                  and nodes[w].tau_inv is None), None)
    if w is None:
        return None
    return nodes + [_copy(nodes[w])], {**arrows, w: arrows[w] - 1, len(nodes): 1}


def _one_more_out(nodes, arrows, by_tau):
    """One more arrow out of t to its first out-neighbour that is not projective."""
    z = _first_translated(nodes, arrows, by_tau) if by_tau else None
    return None if z is None else (nodes, {**arrows, z: arrows[z] + 1})


def _one_out_dropped(nodes, arrows, by_tau):
    """The arrows out of t without the one to its first out-neighbour that is not projective."""
    z = _first_translated(nodes, arrows, by_tau) if by_tau else None
    return None if z is None else (nodes, {w: m for w, m in arrows.items() if w != z})


@pytest.mark.parametrize("name, p, doctor", [
    ("h5", None, _one_more), ("E6", None, _one_more), ("a2_tilde", 3, _one_more), ("A10-rad3", 101, _one_more),
    ("kronecker", None, _split_arrow),
    ("h5", None, _one_more_out), ("E6", None, _one_out_dropped), ("d4_tilde", 2, _one_more_out),
    ("a2_tilde", None, _one_out_dropped), ("E7", 101, _one_more_out), ("A10-rad3", 101, _one_out_dropped),
])
def test_a_doctored_translated_read_declines(name, p, doctor, monkeypatch):
    """One more arrow into s, or out of t, than recorded, seen only by the read, makes its
    summands add up to more than the middle term, one arrow out of t fewer makes them fall
    short, and an arrow split between two nodes of one module gives two pieces of one
    dimension vector: each read declines, the sequence is built, and the catalog is the
    reference's."""
    alg, budget = _algebra(name, p and PrimeField(p))
    plain, _, _ = _knit(alg, budget, monkeypatch, mesh=False, by_tau_inv=False, by_tau=False)
    gave = _doctored_reads(monkeypatch, doctor)
    read, _, _ = _knit(alg, budget, monkeypatch)
    assert gave and gave == [None] * len(gave)
    _assert_same_catalog(read, plain)


@pytest.mark.parametrize("name", ["h5", "E6", "A10-rad3"])
def test_a_translated_read_skips_the_arrows_it_cannot_translate(name, monkeypatch):
    """An arrow into s from an injective, or out of t to a projective, has no translate: one more
    such arrow, to a node not among the arrows, leaves what each read gives unchanged."""
    alg, budget = _algebra(name, GF101)
    real, compared = catalog._translated_middle, []

    def read(nodes, s, t, arrows, seeds, kept, by_tau):
        out = real(nodes, s, t, arrows, seeds, kept, by_tau)
        x = next(k for k, node in enumerate(nodes)
                 if (node.proj_vertex if by_tau else node.inj_vertex) is not None and k not in arrows)
        more = real(nodes, s, t, {**arrows, x: 1}, seeds, dict(kept), by_tau)
        compared.append(by_tau)
        assert (more is None) == (out is None)
        assert out is None or [y.dims for y in more] == [y.dims for y in out]
        return out

    monkeypatch.setattr(catalog, "_translated_middle", read)
    enumerate_indecomposables(alg, budget)
    assert set(compared) == {False, True}


def _fail_inside_a_read(name, where, by_tau, monkeypatch):
    """The first transpose that a read translated by tau (with by_tau) or by tau^{-1} makes, or the
    first check that a translate it made is one piece, raises: the read declines and keeps no
    transpose it made, the node's own step transposes again, and the catalog is the
    reference's."""
    alg, budget = _algebra(name, GF101)
    plain, _, plain_transposed = _knit(alg, budget, monkeypatch, mesh=False, by_tau_inv=False, by_tau=False)
    real_read, real_fn = catalog._translated_middle, getattr(catalog, where)
    reading, failed, gave = [], [], []

    def read(*args):
        kept, side = args[-2:]
        before = dict(kept)
        reading.append(side)
        try:
            out = real_read(*args)
        finally:
            reading.pop()
        if side == by_tau and len(gave) < len(failed):
            gave.append((out, before, dict(kept)))
        return out

    def failing(m, *args):
        if reading and reading[-1] == by_tau and not failed:
            failed.append(m)
            raise NonSplitEndomorphismRing("forced")
        return real_fn(m, *args)

    monkeypatch.setattr(catalog, "_translated_middle", read)
    monkeypatch.setattr(catalog, where, failing)
    read_cat, _, transposed = _knit(alg, budget, monkeypatch)
    assert len(failed) == 1
    (out, before, after), = gave
    assert out is None and set(after) <= set(before)
    assert all(presentation[0] is not failed[0] for presentation in after.values())
    # the one that raised, or the one dropped after its piece raised, is made again
    assert transposed == plain_transposed + 1
    _assert_same_catalog(read_cat, plain)


@pytest.mark.parametrize("name", ["h5", "E6", "kronecker"])
@pytest.mark.parametrize("where", ["_transpose_with_cover", "_translate_piece"])
def test_a_failure_inside_a_translated_read_drops_its_transposes(name, where, monkeypatch):
    """In a read translated by tau^{-1}."""
    _fail_inside_a_read(name, where, False, monkeypatch)


@pytest.mark.parametrize("name", ["h5", "E6", "d4_tilde"])
@pytest.mark.parametrize("where", ["_transpose_with_cover", "_translate_piece"])
def test_a_failure_inside_a_read_translated_by_tau_drops_its_transposes(name, where, monkeypatch):
    """In a read translated by tau."""
    _fail_inside_a_read(name, where, True, monkeypatch)


def _reading(monkeypatch):
    """A list that holds an entry while a mesh read runs."""
    reading = []
    real = catalog._mesh_middle

    def read(nodes, s, t):
        reading.append((s, t))
        try:
            return real(nodes, s, t)
        finally:
            reading.pop()

    monkeypatch.setattr(catalog, "_mesh_middle", read)
    return reading


@pytest.mark.parametrize("name", ["h5", "tilted4", "E6", "E7"])
def test_each_seed_splits_its_neighbour_module_once(name, monkeypatch):
    """Over a complete knitting, rad P of each node flagged P(v), and I/soc I of each node flagged
    I(v), is split exactly once, whether a mesh read asked for it first or the node's own step."""
    alg, budget = _algebra(name, GF101)
    parts = {}    # id of a rad P or I/soc I -> (that module, the node's module, "rad" or "top")
    first = {}    # (the node's module id, kind) -> [number of splits, made inside a read]
    reading = _reading(monkeypatch)
    real_radical, real_cokernel, real_split = catalog.radical_of, catalog.cokernel_of, catalog.indecomposable_summands

    def radical_of(rep):
        out = real_radical(rep)
        parts[id(out[0])] = (out[0], rep, "rad")
        return out

    def cokernel_of(incl):
        out = real_cokernel(incl)
        parts[id(out[0])] = (out[0], incl.target, "top")
        return out

    def summands(rep, known=()):
        if id(rep) in parts:
            _, of, kind = parts[id(rep)]
            first.setdefault((id(of), kind), [0, bool(reading)])[0] += 1
        return real_split(rep, known)

    monkeypatch.setattr(catalog, "radical_of", radical_of)
    monkeypatch.setattr(catalog, "cokernel_of", cokernel_of)
    monkeypatch.setattr(catalog, "indecomposable_summands", summands)
    cat = enumerate_indecomposables(alg, budget)
    assert cat.complete
    want = {(id(node.rep), kind) for node in cat.nodes
            for kind, flag in (("rad", node.proj_vertex), ("top", node.inj_vertex)) if flag is not None}
    assert set(first) == want
    assert all(count == 1 for count, _ in first.values())
    assert {in_read for _, in_read in first.values()} == {True, False}


def test_a_seed_split_that_fails_inside_a_read_is_dropped(monkeypatch):
    """The first split a mesh read asks for raises: the read skips that seed, and over h5, where
    that seed is a summand of the middle term, the mesh read declines and the translated read
    reads that middle term, so no more sequences are built than READ_BUILT.  The seed is split
    again later, and the catalog is still the one whose mesh reads all decline."""
    alg, budget = _algebra("h5", GF101)
    unmeshed, _, _ = _knit(alg, budget, monkeypatch, mesh=False)
    reading = _reading(monkeypatch)
    failed = []
    real_split = catalog.indecomposable_summands

    def summands(rep, known=()):
        if reading and not failed:
            failed.append(rep)
            raise NonSplitEndomorphismRing("forced")
        return real_split(rep, known)

    monkeypatch.setattr(catalog, "indecomposable_summands", summands)
    read, built, _ = _knit(alg, budget, monkeypatch)
    assert len(failed) == 1
    assert [_node_key(node) for node in read.nodes] == [_node_key(node) for node in unmeshed.nodes]
    assert built == READ_BUILT["h5"]


@pytest.mark.parametrize("name", ["d4", "h5", "E6"])
def test_a_mesh_read_off_both_ends_refuses_arrows_that_disagree(name):
    """On a complete catalog each middle term reads back as the recorded in-arrows.  Where the
    arrows out of both ends name one summand, one multiplicity altered makes the read refuse."""
    alg, budget = _algebra(name, GF101)
    nodes = enumerate_indecomposables(alg, budget).nodes
    both = []
    for t, node in enumerate(nodes):
        if node.tau is None:
            continue
        s = node.tau
        assert _mesh_middle(nodes, s, t) == node.arrows
        out_of_t = {nodes[w].tau for w, other in enumerate(nodes) if other.arrows and t in other.arrows}
        both += [(s, t, y) for y in node.arrows if s in nodes[y].arrows and y in out_of_t]
    assert both
    s, t, y = both[0]
    nodes[y].arrows[s] += 1
    with pytest.raises(VerificationFailed, match="disagree"):
        _mesh_middle(nodes, s, t)


def ar_hom_dims(cat):
    """dim Hom(X, Y) for every pair of nodes, from the recorded AR arrows and tau alone; None
    when the AR quiver has an oriented cycle.

    Hom(X, -) on 0 -> tau Y -> E -> Y -> 0 is exact but at Hom(X, Y), whose maps from E are the
    radical ones, so h_X(Y) = sum over Z -> Y of m h_X(Z) - h_X(tau Y) + [Y = X], with no tau
    term when Y is projective (E = rad Y).  Y is taken in topological order of the arrows.
    """
    assert cat.complete
    n = len(cat.nodes)
    into = [cat.nodes[y].arrows for y in range(n)]
    out = [[] for _ in range(n)]
    waiting = [len(arrows) for arrows in into]
    for y, arrows in enumerate(into):
        for z in arrows:
            out[z].append(y)
    order = [y for y in range(n) if not waiting[y]]
    for y in order:
        for w in out[y]:
            waiting[w] -= 1
            if not waiting[w]:
                order.append(w)
    if len(order) < n:
        return None
    h = [[0] * n for _ in range(n)]
    for y in order:
        tau = cat.nodes[y].tau
        for x in range(n):
            h[x][y] = sum(m * h[x][z] for z, m in into[y].items()) + (x == y) - (h[x][tau] if tau is not None else 0)
    return h


@pytest.mark.parametrize("name", ["a2", "a3", "d4", "h5", "sq", "tilted4", "tilted5", "E6"])
def test_ar_recurrence_gives_every_hom_dimension(name):
    """An oracle for the recorded arrows and tau links that does not rest on commuting_maps."""
    if name == "E6":
        cat = catalog_of(algebra_from_dict(E6), Budget(max_total_dim=256))
    else:
        cat = catalog_of(load_fixture_algebra(name, field=GF101))
    h = ar_hom_dims(cat)
    assert h is not None
    assert h == [[hom_dim(x.rep, y.rep) for y in cat.nodes] for x in cat.nodes]


def test_ar_recurrence_declines_a_cyclic_quiver(loop2):
    assert ar_hom_dims(catalog_of(loop2)) is None
