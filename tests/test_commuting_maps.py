"""Hom spaces from linalg.commuting_maps equal the dense build they replaced.

The reference below is the system both Hom builders used to assemble: one
dense row per commuting square (i, j, A, B) and entry (r, c) of
h_j A - B h_i, all-zero rows dropped, solved by the dense Gauss-Jordan loop.
Since the reduced row echelon form is unique, the basis must be the same
element by element and in the same order, over Q and over GF(p).
"""
import os
import random
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repherd import endo, linalg
from repherd import io as rio
from repherd.fields import PrimeField, QQ
from repherd.linalg import _gauss_jordan
from repherd.modules import gen_cogen, hom_basis, morphism_flat

from tests.conftest import ROOT, load_fixture_algebra, rebased
from tests.test_linalg import incremental_row_space

ALGEBRAS = ["a2", "a3", "d4", "h5", "kron", "loop2", "sq", "tilted4", "tilted5"]
FIELDS = [QQ, PrimeField(101)]


def dense_commuting_rows(f, src_dims, dst_dims, squares):
    """The dense equations of the system, all-zero rows dropped, and the number of unknowns."""
    offset, total = [], 0
    for s, d in zip(src_dims, dst_dims):
        offset.append(total)
        total += s * d
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
    return rows, total


def dense_commuting_basis(f, src_dims, dst_dims, squares):
    rows, total = dense_commuting_rows(f, src_dims, dst_dims, squares)
    if not total:
        return []
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


# -- Kronecker sums in a random basis ----------------------------------------------
#
# perfbench's Kronecker module sums, with each vertex in a random unimodular basis,
# give the longest back-substitutions of the Hom solve, and its largest integers.

sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import gen  # noqa: E402

_KRON_SUMMAND = st.tuples(st.sampled_from(["preprojective", "preinjective", "regular"]), st.integers(0, 2),
                          st.integers(-4, 4)).filter(lambda s: s[0] != "regular" or s[1] > 0)
# total dimension (7, 8) and (8, 7), with a repeated regular summand in the second
LARGE_SUMS = [
    [("preprojective", 2, 0), ("regular", 2, 3), ("preinjective", 1, 0), ("preprojective", 1, 0)],
    [("preinjective", 2, 0), ("regular", 1, 2), ("regular", 1, 2), ("regular", 2, -3), ("regular", 1, 0)],
]


def kron_sum(field, summands, seed):
    kron = load_fixture_algebra("kron", None if field == QQ else field)
    return rio.module_from_dict(kron, gen.kron_module(summands, random.Random(seed)))


def assert_end_and_hom_from_gen_cogen_match(m):
    assert_hom_matches(m, m)
    for x in gen_cogen(m.algebra).modules:
        assert_hom_matches(x, m)


@settings(derandomize=True, database=None, max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from([QQ, PrimeField(2), PrimeField(3), PrimeField(101)]),
       st.lists(_KRON_SUMMAND, min_size=1, max_size=3), st.integers(0, 2**32))
def test_hom_basis_matches_the_dense_build_on_kronecker_sums(field, summands, seed):
    assert_end_and_hom_from_gen_cogen_match(kron_sum(field, summands, seed))


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("k", range(len(LARGE_SUMS)))
def test_hom_basis_matches_the_dense_build_on_large_kronecker_sums(k, field):
    m = kron_sum(field, LARGE_SUMS[k], "large:%d" % k)
    assert sorted(m.dims) == [7, 8]
    assert_end_and_hom_from_gen_cogen_match(m)


def test_the_end_solve_back_substitutes_once(monkeypatch):
    """On End(m) of a (7, 8) Kronecker sum over Q, commuting_maps normalizes under a tenth of the
    entries that the incremental solver, which reduces every stored row at each new pivot,
    normalizes on the same equations in the same order, and reads no more pivot-row entries
    clearing columns."""
    m = kron_sum(QQ, LARGE_SUMS[0], "large:0")
    squares = arrow_squares(m, m)
    rows, total = dense_commuting_rows(QQ, m.dims, m.dims, squares)
    counts = {"normalize": 0, "clear": 0}
    normalize, clear = linalg._normalize, linalg._clear

    def counting_normalize(row, p, mod):
        counts["normalize"] += len(row)
        return normalize(row, p, mod)

    def counting_clear(row, c, prow, mod):
        counts["clear"] += len(prow)
        return clear(row, c, prow, mod)

    monkeypatch.setattr(linalg, "_normalize", counting_normalize)
    monkeypatch.setattr(linalg, "_clear", counting_clear)
    piv = incremental_row_space(QQ, rows, total)
    old = dict(counts)
    counts.update(normalize=0, clear=0)
    basis = linalg.commuting_maps(QQ, m.dims, m.dims, squares)
    new = dict(counts)
    assert basis == [tuple(v) for v in linalg._null_space(QQ, piv, None, total)]
    assert 10 * new["normalize"] < old["normalize"] and new["clear"] <= old["clear"], (old, new)
