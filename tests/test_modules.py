import os
import random
import sys

import pytest

from repherd.algebra import Path
from repherd.errors import DimensionMismatch, InvalidRepresentation
from repherd.fields import QQ, PrimeField
from repherd.linalg import Mat
from repherd.modules import (
    ModuleMorphism,
    Representation,
    cokernel_of,
    compose,
    decompose,
    direct_sum,
    dual_module,
    hom_basis,
    hom_dim,
    identity_morphism,
    indec_isomorphic,
    indec_isomorphism,
    indecomposable_summands,
    injective_at,
    is_isomorphic,
    kernel_of,
    morphism_is_invertible,
    path_action,
    projective_at,
    projective_paths,
    radical_of,
    simple_at,
    socle_of,
    subrep_from_bases,
    zero_morphism,
    zero_rep,
)
from repherd.io import algebra_from_dict

from tests.conftest import ROOT, catalog_of, load_fixture_algebra, rebased

sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import gen  # noqa: E402


def dims_of(rep):
    return tuple(rep.dims)


def test_canonical_modules_a2(a2):
    assert dims_of(projective_at(a2, "1")) == (1, 1)
    assert dims_of(projective_at(a2, "2")) == (0, 1)
    assert dims_of(injective_at(a2, "1")) == (1, 0)
    assert dims_of(injective_at(a2, "2")) == (1, 1)
    assert indec_isomorphic(injective_at(a2, "2"), projective_at(a2, "1"))


def test_canonical_modules_loop2(loop2):
    assert dims_of(projective_at(loop2, "1")) == (2, 1)
    assert dims_of(projective_at(loop2, "2")) == (0, 1)
    assert dims_of(injective_at(loop2, "1")) == (2, 0)
    assert dims_of(injective_at(loop2, "2")) == (1, 1)


def test_canonical_modules_tilted4(tilted4):
    assert dims_of(projective_at(tilted4, "4")) == (0, 1, 1, 1)
    assert dims_of(injective_at(tilted4, "1")) == (1, 1, 1, 0)


def test_algebra_dim_equals_sum_of_projective_dims(a2, a3, loop2, tilted4, tilted5, sq, d4):
    for alg in (a2, a3, loop2, tilted4, tilted5, sq, d4):
        total = sum(projective_at(alg, v).total_dim for v in range(alg.quiver.n_vertices))
        assert total == alg.dim


def test_yoneda_hom_dims(loop2, tilted4):
    for alg in (loop2, tilted4):
        nv = alg.quiver.n_vertices
        mods = [projective_at(alg, v) for v in range(nv)] + [injective_at(alg, v) for v in range(nv)]
        for v in range(nv):
            p = projective_at(alg, v)
            iv = injective_at(alg, v)
            for m in mods:
                assert hom_dim(p, m) == m.dims[v]
                assert hom_dim(m, iv) == m.dims[v]


def test_hom_example_tilted4(tilted4):
    s2 = simple_at(tilted4, "2")
    assert hom_dim(injective_at(tilted4, "1"), s2) == 1
    assert hom_dim(injective_at(tilted4, "2"), s2) == 0


def test_hom_dims_field_independent(loop2, gf101):
    from tests.conftest import load_fixture_algebra

    loop2p = load_fixture_algebra("loop2", field=gf101)
    mods_q = [projective_at(loop2, v) for v in range(2)] + [injective_at(loop2, v) for v in range(2)]
    mods_p = [projective_at(loop2p, v) for v in range(2)] + [injective_at(loop2p, v) for v in range(2)]
    for i in range(4):
        for j in range(4):
            assert hom_dim(mods_q[i], mods_q[j]) == hom_dim(mods_p[i], mods_p[j])


def test_kernel_of_identity_and_cokernel_of_zero(loop2):
    p1 = projective_at(loop2, "1")
    k, _ = kernel_of(identity_morphism(p1))
    assert k.total_dim == 0
    c, _ = cokernel_of(zero_morphism(zero_rep(loop2), p1))
    assert dims_of(c) == dims_of(p1)


def test_loop2_evaluation_kernel_dims(loop2):
    from repherd.homological import evaluation

    s1 = simple_at(loop2, "1")
    i1, i2 = injective_at(loop2, "1"), injective_at(loop2, "2")
    ev = evaluation([i1, i2], s1)
    k, _ = kernel_of(ev)
    assert dims_of(k) == (2, 1)
    assert is_isomorphic(k, projective_at(loop2, "1"))


def test_direct_sum(a2, loop2):
    assert direct_sum(a2, []).total_dim == 0
    s = direct_sum(a2, [projective_at(a2, "1"), projective_at(a2, "2")])
    assert dims_of(s) == (1, 2)
    parts = [
        projective_at(loop2, "1"),
        projective_at(loop2, "2"),
        injective_at(loop2, "1"),
        injective_at(loop2, "2"),
    ]
    assert dims_of(direct_sum(loop2, parts)) == (5, 3)


def test_radical_socle_loop2(loop2):
    s1 = simple_at(loop2, "1")
    r, _ = radical_of(s1)
    assert r.total_dim == 0
    rp1, _ = radical_of(projective_at(loop2, "1"))
    assert dims_of(rp1) == (1, 1)
    d = decompose(rp1)
    assert sorted(dims_of(p) for p, _ in d.pieces) == [(0, 1), (1, 0)]
    soc, _ = socle_of(injective_at(loop2, "1"))
    assert dims_of(soc) == (1, 0)


def test_decompose_basics(a2, loop2):
    s1 = simple_at(a2, "1")
    d = decompose(s1)
    assert len(d.pieces) == 1 and d.pieces[0][1] == 1
    m = direct_sum(a2, [s1, s1, projective_at(a2, "2")])
    d = decompose(m)
    got = sorted((dims_of(p), mult) for p, mult in d.pieces)
    assert got == [((0, 1), 1), ((1, 0), 2)]
    # re-decomposing a piece returns itself
    for p, _ in d.pieces:
        again = decompose(p)
        assert len(again.pieces) == 1 and again.pieces[0][1] == 1
        assert dims_of(again.pieces[0][0]) == dims_of(p)


def test_decompose_dim_accounting(loop2):
    m = direct_sum(loop2, [projective_at(loop2, "1"), injective_at(loop2, "2"), simple_at(loop2, "1")])
    d = decompose(m)
    per_vertex = [0, 0]
    for p, mult in d.pieces:
        for v in range(2):
            per_vertex[v] += p.dims[v] * mult
    assert tuple(per_vertex) == m.dims


def test_krull_schmidt_multiset_union_on_random_sums(loop2, a3):
    rng = random.Random("ks-sums")
    pools = {}
    for alg in (loop2, a3):
        nv = alg.quiver.n_vertices
        pool = [projective_at(alg, v) for v in range(nv)]
        pool += [injective_at(alg, v) for v in range(nv)]
        pool += [simple_at(alg, v) for v in range(nv)]
        pools[alg] = pool

    def multiset(rep):
        out = []
        for piece in indecomposable_summands(rep):
            out.append(tuple(piece.dims))
        return sorted(out)

    for trial in range(50):
        alg = loop2 if trial % 2 == 0 else a3
        pool = pools[alg]
        m = pool[rng.randrange(len(pool))]
        n = pool[rng.randrange(len(pool))]
        assert multiset(direct_sum(alg, [m, n])) == sorted(multiset(m) + multiset(n))


def test_is_isomorphic(loop2):
    s1 = simple_at(loop2, "1")
    s2 = simple_at(loop2, "2")
    assert is_isomorphic(s1, s1)
    assert not is_isomorphic(s1, s2)
    assert not is_isomorphic(s1, projective_at(loop2, "1"))


def test_path_action_is_the_product_from_the_identity(loop2, tilted4):
    """path_action starts from the first arrow's matrix and gives the product of the
    path's arrows applied to the identity, entry by entry and type by type; a
    stationary path acts as the identity."""
    for alg in (loop2, tilted4, load_fixture_algebra("tilted4", PrimeField(101))):
        q = alg.quiver
        m = direct_sum(alg, [x for v in range(q.n_vertices) for x in (projective_at(alg, v), injective_at(alg, v))])
        for v in range(q.n_vertices):
            paths = [p for per_vertex in projective_paths(alg, v)[1] for p in per_vertex]
            assert Path(v, ()).key() in [p.key() for p in paths]
            for p in paths:
                want = Mat.identity(alg.field, m.dims[v])
                for a in p.arrows:
                    want = m.mats[a].mul(want)
                got = path_action(m, p)
                assert (got.rows, got.cols) == (want.rows, want.cols)
                assert [(type(x), x) for x in got.entries] == [(type(x), x) for x in want.entries]


def test_relation_violation_rejected(loop2):
    # alpha^2 = 0 fails for this matrix choice
    bad = [
        Mat.from_rows(QQ, [[0, 0], [1, 0]]),  # alpha on a 2-dim space, alpha^2 = 0 ok
        Mat.from_rows(QQ, [[1, 0]]),
    ]
    Representation(loop2, (2, 1), bad)  # fine
    worse = [
        Mat.from_rows(QQ, [[1, 0], [0, 1]]),  # identity: alpha^2 != 0
        Mat.from_rows(QQ, [[1, 0]]),
    ]
    with pytest.raises(InvalidRepresentation):
        Representation(loop2, (2, 1), worse)


def _sq_module(alpha, beta):
    """The module of sq with dims (1, 1, 0, 1): zero at vertex 3, so gamma and delta are empty."""
    sq = load_fixture_algebra("sq")
    f = sq.field
    mats = [Mat.from_rows(f, [[alpha]]), Mat.from_rows(f, [[beta]]), Mat.zeros(f, 0, 1), Mat.zeros(f, 1, 0)]
    return sq, mats


def test_a_relation_term_through_a_zero_vertex_leaves_the_others_checked():
    """sq's relation alpha.beta - gamma.delta on dims (1, 1, 0, 1): the gamma.delta term passes
    through the zero vertex 3 and is zero, but alpha.beta = 1 does not vanish, and the error
    names the relation by its index and its paths."""
    sq, mats = _sq_module(1, 1)
    with pytest.raises(InvalidRepresentation, match=r"^relation 0 \(alpha\.beta, gamma\.delta\) does not vanish"):
        Representation(sq, (1, 1, 0, 1), mats)
    sq, mats = _sq_module(1, 0)
    assert Representation(sq, (1, 1, 0, 1), mats).dims == (1, 1, 0, 1)


def test_a_subspace_zero_at_an_arrows_target_must_map_to_zero_there(a2):
    """On P(1) of a2, the line at vertex 1 with nothing at vertex 2 is not a submodule, since
    a maps it onto vertex 2; with a = 0 it is the simple S(1)."""
    f = a2.field
    bases = [Mat.identity(f, 1), Mat.zeros(f, 1, 0)]
    with pytest.raises(InvalidRepresentation, match="not invariant under arrow a"):
        subrep_from_bases(projective_at(a2, "1"), bases)
    split = Representation(a2, (1, 1), [Mat.zeros(f, 1, 1)])
    assert subrep_from_bases(split, bases)[0].dims == (1, 0)


def test_a_square_that_does_not_commute_on_the_support_is_rejected():
    """A map of the sq module zero at vertex 3 to itself, 1 at vertex 1 and 0 at vertex 2: the
    square of alpha does not commute, though every square through vertex 3 is empty."""
    sq, mats = _sq_module(1, 0)
    x = Representation(sq, (1, 1, 0, 1), mats)
    f = sq.field
    one, zero = Mat.identity(f, 1), Mat.zeros(f, 1, 1)
    ModuleMorphism(x, x, (one, one, Mat.identity(f, 0), one)).check()
    with pytest.raises(InvalidRepresentation, match="does not commute with arrow alpha"):
        ModuleMorphism(x, x, (one, zero, Mat.identity(f, 0), one)).check()


def _generated(kind, n, r):
    rng = random.Random("support:%s%d" % (kind, n))
    data = gen.dynkin_algebra(rng, "A", n, "Q") if kind == "A" else gen.nakayama_algebra(rng, n, r, "Q")
    return algebra_from_dict(data)


@pytest.mark.parametrize("kind, n, r", [("A", 6, None), ("nakayama", 7, 3)])
def test_checks_multiply_nothing_outside_the_support(kind, n, r, monkeypatch):
    """`Representation._check_relations`, `ModuleMorphism.check` and `path_action` take no
    product with an empty factor: on a module supported on one vertex of A_n or A_n/rad^r they
    take none at all, and on a projective, an interval of the line, only products of its
    nonzero blocks."""
    alg = _generated(kind, n, r)
    q = alg.quiver
    f = alg.field
    assert (len(alg.relations) > 0) == (kind == "nakayama")
    one_vertex = []
    for v in range(q.n_vertices):
        dims = [2 if u == v else 0 for u in range(q.n_vertices)]
        mats = [Mat.zeros(f, dims[q.arrow_tgt[a]], dims[q.arrow_src[a]]) for a in range(q.n_arrows)]
        one_vertex.append(Representation(alg, dims, mats, check=False))
    projectives = [projective_at(alg, v) for v in range(q.n_vertices)]
    products = []
    real = Mat.mul

    def recording(a, b):
        products.append((a.rows, a.cols, b.cols))
        return real(a, b)

    monkeypatch.setattr(Mat, "mul", recording)
    for x in one_vertex:
        x._check_relations()
        ModuleMorphism(x, x, tuple(Mat.identity(f, d).scale(f.from_int(3)) for d in x.dims)).check()
        for p in alg.basis:
            assert path_action(x, p).is_zero() or not p.arrows
    assert products == []
    for x in projectives:
        x._check_relations()
        identity_morphism(x).check()
    assert products and all(all(shape) for shape in products)


def test_hom_basis_elements_commute(loop2, tilted4):
    import random

    from repherd.modules import ModuleMorphism

    rng = random.Random("hom-commute")
    for alg in (loop2, tilted4):
        nv = alg.quiver.n_vertices
        pool = [projective_at(alg, v) for v in range(nv)] + [injective_at(alg, v) for v in range(nv)]
        for _ in range(12):
            m = pool[rng.randrange(len(pool))]
            n = pool[rng.randrange(len(pool))]
            for h in hom_basis(m, n):
                ModuleMorphism(h.source, h.target, h.mats).check()


def test_dual_module_roundtrip(loop2):
    p1 = projective_at(loop2, "1")
    dd = dual_module(dual_module(p1))
    assert dd.algebra is p1.algebra
    assert dims_of(dd) == dims_of(p1)
    for a, b in zip(dd.mats, p1.mats):
        assert a.eq(b)


def _rotation_module(field):
    """The Kronecker module with a = I and b = J = [[0, -1], [1, 0]]: End = k[J], k[x]/(x^2 + 1)."""
    from repherd.fields import PrimeField
    from tests.conftest import load_fixture_algebra

    kron = load_fixture_algebra("kron", None if field is None else PrimeField(field))
    f = kron.field
    return kron, Representation(kron, (2, 2), [Mat.identity(f, 2), Mat.from_rows(f, [[0, -1], [1, 0]])])


@pytest.mark.parametrize("p", [None, 3], ids=["Q", "GF3"])
def test_rotation_module_does_not_split_without_a_root_of_x2_plus_1(p):
    from repherd.errors import NonSplitEndomorphismRing

    _, m = _rotation_module(p)
    with pytest.raises(NonSplitEndomorphismRing):
        indecomposable_summands(m)


def test_rotation_module_splits_over_gf5():
    """x^2 + 1 = (x - 2)(x - 3) over GF(5): two pieces, and four for the sum with itself."""
    kron, m = _rotation_module(5)
    assert [p.dims for p in indecomposable_summands(m)] == [(1, 1), (1, 1)]
    pieces = indecomposable_summands(direct_sum(kron, [m, m]))
    assert [p.dims for p in pieces] == [(1, 1)] * 4
    assert is_isomorphic(direct_sum(kron, pieces), direct_sum(kron, [m, m]))


def test_summands_are_sorted_by_dimension_vector(loop2, a3):
    for alg in (loop2, a3):
        nv = alg.quiver.n_vertices
        parts = [injective_at(alg, v) for v in range(nv)] + [projective_at(alg, v) for v in range(nv)]
        parts += [simple_at(alg, v) for v in reversed(range(nv))]
        dims = [p.dims for p in indecomposable_summands(direct_sum(alg, parts))]
        assert dims == sorted(dims) and sorted(dims) == sorted(p.dims for p in parts)


def test_module_morphism_vertex_shapes_are_checked(loop2):
    p, s = projective_at(loop2, 0), simple_at(loop2, 0)
    good = zero_morphism(p, s).mats
    assert ModuleMorphism(p, s, good).mats == good
    with pytest.raises(DimensionMismatch):
        ModuleMorphism(s, p, good)
    with pytest.raises(DimensionMismatch):
        ModuleMorphism(p, s, (good[0].transpose(),) + good[1:])


def test_module_morphism_value_equality_and_hash(loop2):
    p, s = projective_at(loop2, 0), simple_at(loop2, 0)
    f, g = identity_morphism(p), identity_morphism(p)
    assert f is not g and f == g and hash(f) == hash(g)
    assert zero_morphism(p, s) == zero_morphism(p, s)
    assert f != zero_morphism(p, p)
    # the ends are compared as objects: an equal module built again is another module
    p2 = Representation(loop2, p.dims, p.mats)
    assert identity_morphism(p2) != f


def test_module_morphism_repr_is_readable(loop2):
    p, s = projective_at(loop2, 0), simple_at(loop2, 0)
    assert repr(zero_morphism(p, s)) == "ModuleMorphism(%s -> %s)" % (p.dims, s.dims)
    assert repr(zero_morphism(p, s)) == "ModuleMorphism((2, 1) -> (1, 0))"


def _two_sided_isomorphism(x, y):
    """The reference search: the first f in hom_basis(x, y) with some g . f invertible,
    g in hom_basis(y, x)."""
    if x.dims != y.dims:
        return None
    if x is y:
        return identity_morphism(x)
    if x.total_dim == 0:
        return zero_morphism(x, y)
    fwd = hom_basis(x, y)
    bwd = hom_basis(y, x) if fwd else []
    for f in fwd:
        for g in bwd:
            if morphism_is_invertible(compose(g, f)):
                return f
    return None


@pytest.mark.parametrize("field", [None, PrimeField(101)], ids=["Q", "GF101"])
@pytest.mark.parametrize("name", ["a2", "a3", "d4", "h5", "loop2", "sq", "tilted4", "tilted5"])
def test_isomorphism_from_one_hom_space_matches_the_two_sided_search(name, field):
    """On each ordered pair of catalog nodes with equal dimension vectors, and on each node
    against a copy in a random basis, indec_isomorphism returns the reference's morphism."""
    cat = catalog_of(load_fixture_algebra(name, field=field))
    assert cat.complete
    rng = random.Random(name)
    reps = [node.rep for node in cat.nodes]
    found = 0
    for x in reps:
        others = [y for y in reps if y.dims == x.dims] + [rebased(x, rng)]
        for y in others:
            iso = indec_isomorphism(x, y)
            assert iso == _two_sided_isomorphism(x, y)
            found += iso is not None
    assert found == 2 * len(reps)
