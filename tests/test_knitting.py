"""Knitting reads almost-split middle terms off the recorded AR arrows; these tests check the
catalog it builds against one that builds every sequence, and the recorded arrows against the
Hom dimensions they determine."""
import os
import random
import sys

import pytest

from repherd import catalog
from repherd.catalog import Budget, enumerate_indecomposables
from repherd.fields import PrimeField
from repherd.io import algebra_from_dict

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
GF101 = PrimeField(101)


def _algebra(name, field):
    if name in GENERATED:
        return algebra_from_dict(dict(GENERATED[name], field="Q"), field=field), Budget(max_total_dim=256)
    if name in EUCLIDEAN_BUDGETS:
        data = gen.euclidean_algebra(random.Random("catalog-q:" + name), gen.EUCLIDEAN[name], "Q")
        return algebra_from_dict(data, field=field), Budget(max_modules=EUCLIDEAN_BUDGETS[name])
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


def _knit(alg, budget, monkeypatch, read_meshes):
    """(catalog, number of almost-split sequences built), with the mesh read on or declining."""
    built = []
    real = catalog.almost_split_sequence

    def building(z, *args, **kwargs):
        built.append(z)
        return real(z, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(catalog, "almost_split_sequence", building)
        if not read_meshes:
            m.setattr(catalog, "_mesh_middle", lambda nodes, s, right: None)
        cat = enumerate_indecomposables(alg, budget)
    return cat, len(built)


def _cases(names, primes):
    return [pytest.param(name, p and PrimeField(p), id="%s-%s" % (name, "GF%d" % p if p else "Q"))
            for name in names for p in primes]


@pytest.mark.parametrize("name, field", [
    *_cases((*COMPLETE_FIXTURES, *GENERATED), (None, 101)),
    *_cases(EUCLIDEAN_BUDGETS, (None, 2, 3)),
])
def test_reading_middle_terms_off_the_meshes_changes_no_node(name, field, monkeypatch):
    """The catalog is the one that builds every sequence: the same modules, names, flags, tau
    links and arrows, and the same completeness."""
    alg, budget = _algebra(name, field)
    read, read_built = _knit(alg, budget, monkeypatch, True)
    plain, plain_built = _knit(alg, budget, monkeypatch, False)
    assert read.complete == plain.complete == (name not in EUCLIDEAN_BUDGETS)
    assert [_node_key(node) for node in read.nodes] == [_node_key(node) for node in plain.nodes]
    assert read_built <= plain_built
    if plain.complete:
        assert plain_built == sum(node.proj_vertex is None for node in plain.nodes)
    if name in ("h5", "E6"):
        assert read_built < plain_built


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
