"""Projective covers: the prefix walk of `_from_generators` against one product of arrow
matrices per basis path, the sums of projectives kept per algebra and vertex tuple, and the
rank-nullity check that certifies a cover onto."""
import random

import pytest

from repherd import homological
from repherd import io as rio
from repherd.catalog import enumerate_indecomposables
from repherd.checks import check_representation_hereditary
from repherd.errors import VerificationFailed
from repherd.fields import PrimeField
from repherd.homological import _from_generators, _projective_sum, _transpose_with_cover, cover_with_kernel
from repherd.modules import direct_sum, projective_at, top_places

from tests.conftest import catalog_of, fixture_path, load_fixture_algebra
from tests.reference import cover_mats
from tests.test_knitting import GF101, _algebra

FIXTURES = ["a2", "a3", "a4_rad2", "d4", "h5", "kron", "loop2", "sq", "tilted4", "tilted5"]
FIELDS = [None, 2, 3]
# The sums of projectives that homological builds while `check` knits the catalog and runs the
# main check on a freshly loaded algebra, over the algebra and its opposite together: one per
# vertex tuple met, each then served from the cache.
SUMS_BUILT = {"h5": 18, "E6": 44}


def _modules(name, p):
    alg = load_fixture_algebra(name, None if p is None else PrimeField(p))
    return [m for node in catalog_of(alg).nodes for m in (node.rep, node.dual)]


def _top_gens(m):
    fld = m.algebra.field
    return [(v, tuple(fld.one if i == s else fld.zero for i in range(m.dims[v]))) for v, s in top_places(m)]


@pytest.mark.parametrize("name", FIXTURES)
@pytest.mark.parametrize("p", FIELDS, ids=["Q", "GF2", "GF3"])
def test_prefix_walk_gives_the_path_action_matrices(name, p):
    """On every catalog node and its dual, for the generators that top_places gives and for
    random ones, each matrix of the map has the entries, of the same type, that one product of
    arrow matrices per basis path gives."""
    rng = random.Random("%s-%s" % (name, p))
    for m in _modules(name, p):
        fld = m.algebra.field
        rand = [(v, tuple(fld.coerce(rng.randrange(-3, 4)) for _ in range(m.dims[v])))
                for v in range(len(m.dims)) for _ in range(m.dims[v] and 2)]
        for gens in (_top_gens(m), rand):
            got = _from_generators(m, gens).mats
            want = cover_mats(m, gens)
            assert got == want
            assert [tuple(map(type, a.entries)) for a in got] == [tuple(map(type, a.entries)) for a in want]


def test_projective_sum_is_kept_per_algebra_and_tuple():
    """One object per (algebra, vertex tuple), equal to a fresh direct_sum, and the opposite
    algebra keeps sums of its own."""
    alg = rio.load_algebra(fixture_path("sq.json"))
    op = alg.opposite
    for verts in [(), (0,), (3,), (0, 1), (1, 0, 0), (0, 1, 2, 3)]:
        s = _projective_sum(alg, verts)
        assert _projective_sum(alg, verts) is s and s.algebra is alg
        fresh = direct_sum(alg, [projective_at(alg, v) for v in verts])
        assert (s.dims, s.mats, s.summands) == (fresh.dims, fresh.mats, fresh.summands)
        t = _projective_sum(op, verts)
        assert t is not s and t.algebra is op and _projective_sum(op, verts) is t
        assert t.dims == direct_sum(op, [projective_at(op, v) for v in verts]).dims
    assert alg._projective_sums is not op._projective_sums


@pytest.mark.parametrize("name", FIXTURES)
@pytest.mark.parametrize("p", [None, 2], ids=["Q", "GF2"])
def test_cover_dims_is_the_sum_of_the_projectives(name, p):
    """cover_dims(alg, top), which counts only the vertices in the top, is the dimension vector of
    the direct sum of the P(v)^{top_v}, on random tops with zeros and multiplicities."""
    alg = rio.load_algebra(fixture_path(name + ".json"), field=None if p is None else PrimeField(p))
    n = alg.quiver.n_vertices
    rng = random.Random("%s-%s" % (name, p))
    tops = [[0] * n] + [[rng.choice([0, 0, 1, 2, 3]) for _ in range(n)] for _ in range(12)]
    for top in tops:
        want = direct_sum(alg, [projective_at(alg, v) for v, t in enumerate(top) for _ in range(t)]).dims
        assert homological.cover_dims(alg, top) == list(want)


@pytest.mark.parametrize("name", sorted(SUMS_BUILT))
def test_check_builds_each_sum_of_projectives_once(name, monkeypatch):
    """`check` builds each sum of projectives once; dropping the cache shows as a higher count.
    Its covers and transposes ask for many more."""
    if name == "E6":
        alg, budget = _algebra("E6", GF101)
    else:
        alg, budget = rio.load_algebra(fixture_path(name + ".json")), None
    built, asked = [], []
    real_sum, real_from = homological.direct_sum, homological._from_generators

    def summing(a, reps):
        reps = list(reps)
        projs = [p for p, _ in a._projectives.values()]
        if all(any(r is p for p in projs) for r in reps):
            built.append(len(reps))
        return real_sum(a, reps)

    def asking(m, gens):
        asked.append(m)
        return real_from(m, gens)

    monkeypatch.setattr(homological, "direct_sum", summing)
    monkeypatch.setattr(homological, "_from_generators", asking)
    check_representation_hereditary(alg, catalog=enumerate_indecomposables(alg, budget))
    assert len(built) == len(alg._projective_sums) + len(alg.opposite._projective_sums) == SUMS_BUILT[name]
    assert len(asked) > 2 * len(built)


@pytest.mark.parametrize("name", ["h5", "sq", "loop2", "tilted4"])
def test_a_cover_missing_a_generator_is_refused(name, monkeypatch):
    """With the last place of the top dropped, every map still commutes with the arrows, and
    the rank-nullity check refuses it as not onto, in a cover, with its kernel, and in a
    transpose."""
    alg = load_fixture_algebra(name)
    modules = [node.rep for node in catalog_of(alg).nodes]
    real = homological.top_places
    monkeypatch.setattr(homological, "top_places", lambda m: real(m)[:-1])
    for m in modules:
        for build in (homological.projective_cover, cover_with_kernel, _transpose_with_cover):
            with pytest.raises(VerificationFailed, match="projective cover is not surjective"):
                build(m)
