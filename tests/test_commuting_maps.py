"""Hom spaces from linalg.commuting_maps equal the dense build they replaced.

The reference below is the system both Hom builders used to assemble: one
dense row per commuting square (i, j, A, B) and entry (r, c) of
h_j A - B h_i, all-zero rows dropped, solved by the dense Gauss-Jordan loop.
Since the reduced row echelon form is unique, the basis must be the same
element by element and in the same order, over Q and over GF(101).
"""
import random

import pytest

from repherd import endo
from repherd.fields import PrimeField, QQ
from repherd.linalg import _gauss_jordan
from repherd.modules import gen_cogen, hom_basis, morphism_flat

from tests.conftest import load_fixture_algebra, rebased

ALGEBRAS = ["a2", "a3", "d4", "h5", "kron", "loop2", "sq", "tilted4", "tilted5"]
FIELDS = [QQ, PrimeField(101)]


def dense_commuting_basis(f, src_dims, dst_dims, squares):
    offset, total = [], 0
    for s, d in zip(src_dims, dst_dims):
        offset.append(total)
        total += s * d
    if not total:
        return []
    rows = []
    for i, j, a, b in squares:
        for r in range(dst_dims[j]):
            for c in range(src_dims[i]):
                row = [f.zero] * total
                for k in range(src_dims[j]):
                    x = a.at(k, c)
                    if x:
                        t = offset[j] + r * src_dims[j] + k
                        row[t] = f.add(row[t], x)
                for l in range(dst_dims[i]):
                    x = b.at(r, l)
                    if x:
                        t = offset[i] + l * src_dims[i] + c
                        row[t] = f.sub(row[t], x)
                if any(row):
                    rows.append(row)
    pivots = _gauss_jordan(f, rows, total)
    basis = []
    for fc in (c for c in range(total) if c not in pivots):
        vec = [f.zero] * total
        vec[fc] = f.one
        for k, pc in enumerate(pivots):
            if rows[k][fc]:
                vec[pc] = f.neg(rows[k][fc])
        basis.append(tuple(vec))
    return basis


def arrow_squares(m, n):
    q = m.algebra.quiver
    return [(q.arrow_src[a], q.arrow_tgt[a], m.mats[a], n.mats[a]) for a in range(q.n_arrows)]


def assert_hom_matches(m, n):
    hb = hom_basis(m, n)
    assert [morphism_flat(h) for h in hb] == dense_commuting_basis(m.algebra.field, m.dims, n.dims, arrow_squares(m, n))
    for h in hb:
        assert [(x.rows, x.cols) for x in h.mats] == list(zip(n.dims, m.dims))


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("name", ALGEBRAS)
def test_hom_basis_matches_the_dense_build_on_gen_cogen(name, field):
    mods = gen_cogen(load_fixture_algebra(name, field)).modules
    for m in mods:
        for n in mods:
            assert_hom_matches(m, n)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("name", ["kron", "loop2", "d4"])
def test_hom_basis_matches_the_dense_build_in_a_rational_basis(name, field):
    rng = random.Random("rebased:%s" % name)
    mods = [rebased(m, rng) for m in gen_cogen(load_fixture_algebra(name, field)).modules]
    assert any(x.denominator > 1 for m in mods for a in m.mats for x in a.entries) == (field == QQ)
    for m in mods:
        for n in mods:
            assert_hom_matches(m, n)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("name", ["kron", "d4"])
def test_graded_hom_in_the_oracle_matches_the_dense_build(name, field, monkeypatch):
    """Hom over the algebra that gldim_end_gen_cogen builds, between every two of
    its projectives and the modules its resolutions meet."""
    met = []
    syzygy = endo._Peirce.syzygy

    def recording(self, v):
        k = syzygy(self, v)
        met.append((self, v, k))
        return k

    monkeypatch.setattr(endo._Peirce, "syzygy", recording)
    endo.gldim_end_gen_cogen(load_fixture_algebra(name, field))
    peirce = met[0][0]
    mods = list(dict.fromkeys([x for _, v, k in met for x in (v, k)] + peirce.proj))
    assert len(mods) > len(peirce.proj)
    for v in mods:
        for w in mods:
            squares = [(*peirce.tag[b], v.acts[r], w.acts[r]) for r, b in enumerate(peirce.rad)]
            homs = peirce.hom(v, w)
            assert [tuple(x for h in maps for x in h.entries) for maps in homs] == dense_commuting_basis(
                peirce.field, v.dims, w.dims, squares)
            for maps in homs:
                assert [(h.rows, h.cols) for h in maps] == list(zip(w.dims, v.dims))
