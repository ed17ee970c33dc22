import gc
import itertools
import json
import math
import os
import random
import sys
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repherd import endo
from repherd.cli import main
from repherd.dims import DimValue
from repherd.endo import (
    _eigenvalue,
    algebra_radical,
    certify_structure,
    gen_cogen_algebra,
    gldim_end_gen_cogen,
    global_dimension,
    min_poly_of_matrix,
    primitive_idempotents,
    rational_roots,
)
from repherd import io as rio
from repherd.errors import FieldTooSmall, NonSplit, VerificationFailed
from repherd.fields import PrimeField, QQ
from repherd.homological import proj_dim
from repherd.fields import _is_prime
from repherd.linalg import Mat, SpanTracker, col_space, inverse, kernel_basis, rank
from repherd.modules import (
    Representation,
    direct_sum,
    endomorphism_radical,
    gen_cogen,
    hom_basis,
    injective_at,
    projective_at,
    subrep_from_bases,
)

from tests import reference
from tests.reference import basic_corner, endomorphism_algebra, from_rows, make_algebra, mult, simple_at
from tests.conftest import ROOT, catalog_of, load_fixture_algebra, plain_rank
from tests.test_catalog import COMPLETE_FIXTURES

sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import gen  # noqa: E402


def test_end_simple_is_one_dimensional(loop2):
    g, _ = endomorphism_algebra(simple_at(loop2, "1"))
    assert g.dim == 1 and not algebra_radical(g)


def test_end_p1_loop2(loop2):
    g, _ = endomorphism_algebra(projective_at(loop2, "1"))
    assert g.dim == 2
    assert len(algebra_radical(g)) == 1


def test_end_s1_plus_s1_matrix_algebra(loop2):
    s1 = simple_at(loop2, "1")
    g, _ = endomorphism_algebra(direct_sum(loop2, [s1, s1]))
    assert g.dim == 4
    assert algebra_radical(g) == []
    assert len(primitive_idempotents(g)) == 2


def matrix_algebra_2x2():
    # basis E11, E12, E21, E22 of M_2(Q)
    def unit(i):
        return tuple(QQ.one if t == i else QQ.zero for t in range(4))

    def mul(i, j):
        a, b = divmod(i, 2)
        c, d = divmod(j, 2)
        if b != c:
            return (QQ.zero,) * 4
        return unit(a * 2 + d)

    table = [[mul(i, j) for j in range(4)] for i in range(4)]
    return make_algebra(QQ, table, (QQ.one, QQ.zero, QQ.zero, QQ.one))


def upper_triangular_2x2():
    # basis E11, E12, E22
    z, o = QQ.zero, QQ.one
    e11, e12, e22 = (o, z, z), (z, o, z), (z, z, o)
    zero = (z, z, z)
    table = [
        [e11, e12, zero],
        [zero, zero, e12],
        [zero, zero, e22],
    ]
    return make_algebra(QQ, table, (o, z, o))


def test_radical_semisimple_and_triangular():
    m2 = matrix_algebra_2x2()
    assert algebra_radical(m2) == []
    assert len(primitive_idempotents(m2)) == 2
    tri = upper_triangular_2x2()
    assert len(algebra_radical(tri)) == 1
    assert global_dimension(basic_corner(tri)) == DimValue.finite(1)


def test_radical_certified_by_independent_criteria(a2):
    """Nilpotent ideal with semisimple quotient (nondegenerate trace form)."""
    parts = [projective_at(a2, v) for v in range(2)]
    iv = injective_at(a2, "1")
    parts.append(iv)
    m = direct_sum(a2, parts)
    g, _ = endomorphism_algebra(m)
    rad = algebra_radical(g)
    assert len(rad) == 2
    # (a) products of radical elements with anything stay in the radical span
    span = [list(r) for r in rad]
    def contains(vec):
        return plain_rank(span + [list(vec)]) == plain_rank(span)
    for r in rad:
        for t in range(g.dim):
            unit = tuple(QQ.one if i == t else QQ.zero for i in range(g.dim))
            assert contains(mult(g, r, unit))
            assert contains(mult(g, unit, r))
    # (b) the quotient's trace form is nondegenerate (test-local elimination)
    basis = []
    for t in range(g.dim):
        unit = [Fraction(1) if i == t else Fraction(0) for i in range(g.dim)]
        if plain_rank(span + basis + [unit]) > plain_rank(span + basis):
            basis.append(unit)
    assert len(basis) == g.dim - len(rad)
    # quotient multiplication via reduction mod the radical span is semisimple;
    # its regular trace form must have full rank
    import itertools

    def reduce_mod(vec):
        rows = [r[:] for r in span]
        v = [Fraction(x) for x in vec]
        for r in rows:
            piv = next((i for i, x in enumerate(r) if x != 0), None)
            if piv is not None and v[piv] != 0:
                f = v[piv] / r[piv]
                v = [a - f * b for a, b in zip(v, r)]
        return v

    # trace of left multiplication on the quotient, in the chosen basis
    qbasis = [reduce_mod(b) for b in basis]

    def coords(vec):
        rows = [q[:] + [Fraction(0)] for q in qbasis]
        target = reduce_mod(vec)
        aug = [q[:] for q in qbasis]
        sol = []
        # solve sum c_i qbasis_i = target by elimination
        mat = [[aug[i][j] for i in range(len(qbasis))] for j in range(g.dim)]
        for j in range(g.dim):
            mat[j].append(target[j])
        # gaussian solve
        m = [row[:] for row in mat]
        ncols = len(qbasis)
        piv_rows = []
        r = 0
        for c in range(ncols):
            piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
            if piv is None:
                continue
            m[r], m[piv] = m[piv], m[r]
            pr = m[r]
            for i in range(len(m)):
                if i != r and m[i][c] != 0:
                    f = m[i][c] / pr[c]
                    m[i] = [a - f * b for a, b in zip(m[i], pr)]
            piv_rows.append((r, c))
            r += 1
        out = [Fraction(0)] * ncols
        for (row, col) in piv_rows:
            out[col] = m[row][-1] / m[row][col]
        return out

    k = len(qbasis)
    lmats = []
    for i in range(k):
        cols = [coords(mult(g, tuple(basis[i]), tuple(basis[j]))) for j in range(k)]
        lmats.append([[cols[j][t] for j in range(k)] for t in range(k)])
    gram = [
        [sum(lmats[i][s][t] * lmats[j][t][s] for s in range(k) for t in range(k)) for j in range(k)]
        for i in range(k)
    ]
    assert plain_rank(gram) == k


def test_primitive_idempotents_loop2_gen_cogen(loop2):
    parts = [projective_at(loop2, v) for v in range(2)]
    for v in range(2):
        iv = injective_at(loop2, v)
        parts.append(iv)
    m = direct_sum(loop2, parts)
    g, _ = endomorphism_algebra(m)
    assert len(primitive_idempotents(g)) == 4


def test_primitive_idempotents_p1_plus_s2(a2):
    g, _ = endomorphism_algebra(direct_sum(a2, [projective_at(a2, "1"), simple_at(a2, "2")]))
    assert len(primitive_idempotents(g)) == 2


def test_global_dimension_examples(a2):
    m2 = matrix_algebra_2x2()
    assert global_dimension(basic_corner(m2)) == DimValue.finite(0)
    # path algebra of a2 viewed abstractly: End(P1 + P2) over a2
    g, _ = endomorphism_algebra(direct_sum(a2, [projective_at(a2, "1"), projective_at(a2, "2")]))
    assert g.dim == 3
    assert global_dimension(basic_corner(g)) == DimValue.finite(1)


def test_gldim_end_gen_cogen_paper_values(a2, a3):
    assert gldim_end_gen_cogen(a2) == DimValue.finite(2)
    assert gldim_end_gen_cogen(a3) == DimValue.finite(3)


def test_gldim_morita_invariance(a2, a3):
    for alg in (a2, a3):
        nv = alg.quiver.n_vertices
        parts = [projective_at(alg, v) for v in range(nv)]
        for v in range(nv):
            iv = injective_at(alg, v)
            from repherd.modules import indec_isomorphic

            if not any(indec_isomorphic(iv, p) for p in parts):
                parts.append(iv)
        base = global_dimension(basic_corner(endomorphism_algebra(direct_sum(alg, parts))[0]))
        doubled = global_dimension(basic_corner(endomorphism_algebra(direct_sum(alg, parts + [parts[0]]))[0]))
        assert base == doubled


def test_field_too_small():
    z, o = 0, 1
    f3 = PrimeField(3)
    e11, e12, e22 = (o, z, z), (z, o, z), (z, z, o)
    zero = (z, z, z)
    table = [
        [e11, e12, zero],
        [zero, zero, e12],
        [zero, zero, e22],
    ]
    g = make_algebra(f3, table, (o, z, o))
    with pytest.raises(FieldTooSmall):
        algebra_radical(g)


def test_min_poly_and_roots():
    m = from_rows(QQ, [[1, 1], [0, 1]])
    mu = min_poly_of_matrix(m)
    assert mu == [Fraction(1), Fraction(-2), Fraction(1)]  # (t-1)^2
    roots = rational_roots(QQ, mu)
    assert roots == [(Fraction(1), 2)]
    d = from_rows(QQ, [[2, 0], [0, 3]])
    assert sorted(r for r, _ in rational_roots(QQ, min_poly_of_matrix(d))) == [2, 3]


def _fraction_rational_roots(f, poly):
    """rational_roots over Q as it was before it tested candidates in ints: each candidate
    p/q is evaluated on the Fraction polynomial by Horner's rule."""
    poly = endo._p_trim(f, list(poly))
    if len(poly) <= 1:
        return []
    roots = []
    k = 0
    while not poly[0]:
        poly = poly[1:]
        k += 1
    if k:
        roots.append((f.zero, k))
    if len(poly) <= 1:
        return sorted(roots)
    den_lcm = math.lcm(*(c.denominator for c in poly))
    ip = [int(c * den_lcm) for c in poly]
    candidates = []
    for pnum in endo._int_divisors(ip[0]):
        for qden in endo._int_divisors(ip[-1]):
            candidates.append(f.coerce(Fraction(pnum, qden)))
            candidates.append(f.coerce(Fraction(-pnum, qden)))
    seen = set()
    for lam in candidates:
        if lam in seen:
            continue
        seen.add(lam)
        if not endo._p_eval_scalar(f, poly, lam):
            mult = 0
            cur = poly
            while True:
                q, r = endo._p_divmod(f, cur, [f.neg(lam), f.one])
                if r:
                    break
                mult += 1
                cur = q
                if not cur or endo._p_eval_scalar(f, cur, lam):
                    break
            roots.append((lam, mult))
    return sorted(roots)


_ROOTS = st.sampled_from([0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4), Fraction(7, 6)])
# x^2 + 1, x^2 - 2 and 3x^2 - x + 5 have no rational root
_NO_ROOTS = st.sampled_from([[1, 0, 1], [-2, 0, 1], [5, -1, 3]])


@settings(derandomize=True, database=None, max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.tuples(_ROOTS, st.integers(1, 3)), max_size=4), st.lists(_NO_ROOTS, max_size=2),
       st.sampled_from([1, -1, Fraction(3, 7), Fraction(-10, 9), 6]))
def test_roots_tested_in_ints_are_the_roots_tested_as_fractions(linear, others, scale):
    """Products of (x - r)^m, with repeated, zero and non-integral rational roots r, times
    factors with no rational root and a scalar: the same roots, multiplicities and order."""
    poly = [QQ.coerce(scale)]
    for r, m in linear:
        for _ in range(m):
            poly = endo._p_mul(QQ, poly, [QQ.coerce(-r), 1])
    for g in others:
        poly = endo._p_mul(QQ, poly, g)
    got = rational_roots(QQ, poly)
    assert got == _fraction_rational_roots(QQ, poly)
    want = {}
    for r, m in linear:
        want[r] = want.get(r, 0) + m
    assert got == sorted(want.items())


def _root_search_eigenvalue(op):
    """The eigenvalue as the root search alone finds it: the least root in the field of the
    minimal polynomial of the first block of op that has one; else None.  A block whose
    polynomial has a coefficient too large to factor counts as having none."""
    for m in op:
        if m.rows:
            try:
                roots = rational_roots(m.field, min_poly_of_matrix(m))
            except RuntimeError:
                roots = []
            if roots:
                return roots[0][0]
    return None


EIGEN_FIELDS = [QQ, PrimeField(2), PrimeField(3), PrimeField(101)]


@st.composite
def _block(draw, field):
    """A square block of size 0-5: lam + nilpotent, a sum of two such, or random, each in a
    random basis; sizes 2 and 4 over GF(2) and 3 over GF(3) are the blocks whose size is 0
    in the field."""
    d = draw(st.integers(0, 5))
    small = st.integers(-3, 3).map(field.coerce)
    kind = draw(st.sampled_from(["single", "two", "random"]))
    if kind == "random":
        return Mat(field, d, d, tuple(draw(st.lists(small, min_size=d * d, max_size=d * d))))
    cut = draw(st.integers(0, d)) if kind == "two" else d
    lams = [draw(small), draw(small)]
    ent = []
    for i in range(d):
        for j in range(d):
            same = (i < cut) == (j < cut)
            if i == j:
                ent.append(lams[i >= cut])
            elif j > i and same:
                ent.append(draw(small))
            else:
                ent.append(field.zero)
    core = Mat(field, d, d, tuple(ent))
    lower = [draw(small) if j < i else field.one if i == j else field.zero for i in range(d) for j in range(d)]
    upper = [draw(small) if j > i else field.one if i == j else field.zero for i in range(d) for j in range(d)]
    s = Mat(field, d, d, tuple(lower)).mul(Mat(field, d, d, tuple(upper)))
    return s.mul(core).mul(inverse(s)) if d else core


@settings(derandomize=True, database=None, max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(EIGEN_FIELDS).flatmap(lambda f: st.lists(_block(f), min_size=1, max_size=3)))
def test_eigenvalue_read_off_the_trace_matches_the_root_search(op):
    """Wherever the root search finds an eigenvalue, _eigenvalue returns the same one, and
    it finds none where the search finds none (entries stay small enough to factor)."""
    assert _eigenvalue(tuple(op)) == _root_search_eigenvalue(tuple(op))


def test_eigenvalue_beyond_the_root_search():
    """Over Q the root search gives up on the constant term p^2 of (x - p)^2 for a prime p
    above 10^12; the trace still gives p."""
    p = 10**12 + 39
    assert _is_prime(p)
    block = from_rows(QQ, [[p, 1], [0, p]])
    assert _root_search_eigenvalue((block,)) is None
    assert _eigenvalue((block,)) == p


def test_idempotent_completeness_invariant(loop2):
    m = direct_sum(loop2, [projective_at(loop2, "1"), injective_at(loop2, "2"), simple_at(loop2, "1")])
    g, _ = endomorphism_algebra(m)
    idems = primitive_idempotents(g)
    # completeness and orthogonality are asserted inside; spot-check primitivity
    total = [QQ.zero] * g.dim
    for e in idems:
        total = [QQ.add(a, b) for a, b in zip(total, e)]
    assert tuple(total) == g.unit


@pytest.mark.parametrize("name", ["a2", "a3", "d4", "kron", "loop2", "sq", "tilted4", "tilted5", "h5"])
def test_block_oracle_matches_generic_route(name):
    alg = load_fixture_algebra(name)
    generic, _ = endomorphism_algebra(direct_sum(alg, gen_cogen(alg).modules))
    assert generic.idempotents is None
    assert gldim_end_gen_cogen(alg) == global_dimension(basic_corner(generic))


def _off_diagonal(g):
    """The index of a radical basis element that maps one summand into another."""
    for r in range(g.dim):
        if r in g.idempotents:
            continue
        b = _unit(g, r)
        for i, ei in enumerate(g.idempotents):
            for j, ej in enumerate(g.idempotents):
                if i != j and mult(g, _unit(g, ei), b) == b and mult(g, b, _unit(g, ej)) == b:
                    return r
    raise AssertionError("no off-diagonal radical element")


def test_certifier_rejects_a_wrong_radical(loop2):
    """The claimed radical is every basis element but the claimed idempotents: claiming an
    off-diagonal radical element as one more idempotent shrinks it, dropping one enlarges it."""
    g = gen_cogen_algebra(loop2)
    certify_structure(g)
    r = _off_diagonal(g)
    too_small = replace(g, idempotents=g.idempotents + (r,))
    too_large = replace(g, idempotents=g.idempotents[1:])
    for bad in (too_small, too_large):
        with pytest.raises(VerificationFailed):
            certify_structure(bad)
        with pytest.raises(VerificationFailed):
            global_dimension(bad)


ALGEBRA_FIXTURES = ["a2", "a3", "d4", "h5", "kron", "loop2", "sq", "tilted4", "tilted5"]


@pytest.mark.parametrize("field", [None, PrimeField(101)], ids=["Q", "GF101"])
@pytest.mark.parametrize("name", ALGEBRA_FIXTURES)
def test_global_dimension_matches_resolutions_of_simple_representations(name, field):
    """gl.dim End(P(1) + ... + P(n)) = gl.dim A, which the Representation code finds
    from the simple modules of A without any of the structure-constant code."""
    alg = load_fixture_algebra(name, field)
    nv = alg.quiver.n_vertices
    g, _ = endomorphism_algebra(direct_sum(alg, [projective_at(alg, v) for v in range(nv)]))
    pds = [proj_dim(simple_at(alg, v)) for v in range(nv)]
    if any(pd.is_infinite for pd in pds):
        expected = DimValue.infinite()
    else:
        assert all(pd.is_finite for pd in pds)
        expected = DimValue.finite(max(pd.value for pd in pds))
    assert global_dimension(basic_corner(g)) == expected


def _bipartite(n, edges):
    """Arrows of a tree on 1..n oriented from the vertices at even distance from 1."""
    side = {1: 0}
    while len(side) < n:
        for a, b in edges:
            if a in side and b not in side:
                side[b] = 1 - side[a]
            elif b in side and a not in side:
                side[a] = 1 - side[b]
    return [(a, b) if side[a] == 0 else (b, a) for a, b in edges]


def _quiver_algebra(n, arrows, relation_length, length_bound):
    """The path algebra over GF(101) of arrows on 1..n, modulo every path of relation_length arrows."""
    names = ["x%d" % k for k in range(len(arrows))]
    paths = [[]]
    for _ in range(relation_length):
        paths = [p + [k] for p in paths for k, (a, _) in enumerate(arrows) if not p or arrows[p[-1]][1] == a]
    return rio.algebra_from_dict({
        "field": {"GFp": 101},
        "vertices": [str(v) for v in range(1, n + 1)],
        "arrows": [{"name": x, "from": str(a), "to": str(b)} for x, (a, b) in zip(names, arrows)],
        "relations": [[{"coeff": "1", "path": [names[k] for k in p]}] for p in paths] if relation_length else [],
        "length_bound": length_bound,
    })


TREES = {
    "A6": (6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)]),
    "D5": (5, [(1, 2), (2, 3), (3, 4), (3, 5)]),
    "E6": (6, [(1, 2), (2, 3), (3, 4), (4, 5), (3, 6)]),
}


@pytest.mark.parametrize("name", sorted(TREES))
def test_oracle_on_dynkin_path_algebras(name):
    n, edges = TREES[name]
    alg = _quiver_algebra(n, _bipartite(n, edges), 0, 2)
    assert gldim_end_gen_cogen(alg) == DimValue.finite(3)


@pytest.mark.parametrize("n, r, gldim", [(6, 2, 6), (8, 3, 6), (10, 3, 7)])
def test_oracle_on_nakayama_algebras(n, r, gldim):
    """A_n / rad^r, the linear quiver with every path of r arrows set to zero."""
    alg = _quiver_algebra(n, [(v, v + 1) for v in range(1, n)], r, r)
    assert gldim_end_gen_cogen(alg) == DimValue.finite(gldim)


DUAL_NUMBERS = {
    "vertices": ["1"],
    "arrows": [{"name": "x", "from": "1", "to": "1"}],
    "relations": [[{"coeff": "1", "path": ["x", "x"]}]],
    "length_bound": 3,
}


@pytest.mark.parametrize("field", ["Q", {"GFp": 2}], ids=["Q", "GF2"])
def test_oracle_finds_an_infinite_resolution_on_dual_numbers(field, tmp_path, monkeypatch, capsys):
    """k[x]/(x^2) is self-injective, so End(A + DA) = A: the syzygy of the simple is the simple,
    which the repeat test finds through one Hom solve; `check` reports gl.dim infinite and Fails."""
    calls = []
    hom = endo._Peirce.hom

    def counted(self, v, w):
        calls.append((v, w))
        return hom(self, v, w)

    monkeypatch.setattr(endo._Peirce, "hom", counted)
    monkeypatch.delenv("REPHERD_CACHE_DIR", raising=False)
    path = tmp_path / "dual_numbers.json"
    path.write_text(json.dumps(dict(DUAL_NUMBERS, field=field)))
    assert main(["check", str(path)]) == 1
    (report,) = json.loads(capsys.readouterr().out)["checks"]
    assert report["verdict"] == "Fails"
    assert "gl.dim End(A + DA) = infinite (agrees with the kernel test)" in report["notes"]
    assert len(calls) == 1
    assert gldim_end_gen_cogen(rio.algebra_from_dict(dict(DUAL_NUMBERS, field=field))) == DimValue.infinite()
    assert len(calls) == 2


def test_global_dimension_refuses_an_algebra_without_idempotents():
    """global_dimension has one path: an algebra that carries no idempotents is refused, not
    taken to its basic corner."""
    with pytest.raises(VerificationFailed, match="carries no idempotents"):
        global_dimension(upper_triangular_2x2())


def _square_zero_table():
    """k[x, y]/(x, y)^2 over Q, with basis 1, x, y."""
    z, o = QQ.zero, QQ.one
    one, x, y, zero = (o, z, z), (z, o, z), (z, z, o), (z, z, z)
    return [[one, x, y], [x, zero, zero], [y, zero, zero]]


def test_validation_rejects_a_changed_structure_constant():
    make_algebra(QQ, _square_zero_table(), (QQ.one, QQ.zero, QQ.zero))
    table = _square_zero_table()
    table[1][2] = (QQ.zero, QQ.zero, QQ.one)  # x y = y, so (x x) y = 0 but x (x y) = y
    with pytest.raises(VerificationFailed, match="associativity"):
        make_algebra(QQ, table, (QQ.one, QQ.zero, QQ.zero))


def test_validation_rejects_a_wrong_unit():
    with pytest.raises(VerificationFailed, match="unit law"):
        make_algebra(QQ, _square_zero_table(), (QQ.zero, QQ.one, QQ.zero))


# -- End(A + DA) in sparse structure constants, against the dense table -------


def _dense_block_table(f, n, blocks, flat, compose):
    """The dense structure table of the algebra _block_algebra builds from these arguments,
    built as _block_algebra built it before its constants were kept sparse: table[s][t] holds
    the coordinates of b_s * b_t."""
    offset, dim = {}, 0
    for key, hb in blocks.items():
        offset[key] = dim
        dim += len(hb)
    trackers = {}
    for key, hb in blocks.items():
        tracker = SpanTracker(f, len(flat(hb[0])), track=True)
        for b in hb:
            assert tracker.add(flat(b))
        trackers[key] = tracker
    zero = (f.zero,) * dim
    table = [[zero] * dim for _ in range(dim)]
    for (i, j), left in blocks.items():
        for k in range(n):
            right = blocks.get((j, k))
            if right is None:
                continue
            for s, b in enumerate(left):
                for t, c in enumerate(right):
                    prod = flat(compose(b, c))
                    if not any(prod):
                        continue
                    coords = trackers[(i, k)].coords(prod)
                    row = list(zero)
                    row[offset[(i, k)]:offset[(i, k)] + len(coords)] = coords
                    table[offset[(i, j)] + s][offset[(j, k)] + t] = tuple(row)
    return table


def _oracle_with_dense_table(alg, monkeypatch):
    """gen_cogen_algebra(alg), and the dense reference table of the blocks it was built from."""
    seen = []
    build = endo._block_algebra

    def recording(*args):
        seen.append(args)
        return build(*args)

    monkeypatch.setattr(endo, "_block_algebra", recording)
    g = gen_cogen_algebra(alg)
    (args,) = seen
    return g, _dense_block_table(*args)


def _nakayama(n, r):
    """A_n / rad^r over GF(101)."""
    return _quiver_algebra(n, [(v, v + 1) for v in range(1, n)], r, r)


def _assert_sparse_constants_match_the_dense_table(alg, monkeypatch):
    g, table = _oracle_with_dense_table(alg, monkeypatch)
    f = g.field
    assert len(table) == g.dim
    assert all(tt and all(c for _, c in tt) for row in g.terms for tt in row.values())
    for s, row in enumerate(table):
        for t, want in enumerate(row):
            got = [f.zero] * g.dim
            for u, c in g.terms[s].get(t, ()):
                got[u] = c
            assert tuple(got) == want, (s, t)
    # the dense table carries no idempotents: its gl.dim comes from the trace form
    assert global_dimension(basic_corner(make_algebra(f, table, g.unit))) == global_dimension(g)


@pytest.mark.parametrize("field", [None, PrimeField(101)], ids=["Q", "GF101"])
@pytest.mark.parametrize("name", ALGEBRA_FIXTURES)
def test_sparse_constants_match_the_dense_table_on_fixtures(name, field, monkeypatch):
    _assert_sparse_constants_match_the_dense_table(load_fixture_algebra(name, field), monkeypatch)


@pytest.mark.parametrize("n, r", [(n, r) for n in range(3, 9) for r in range(2, n)])
def test_sparse_constants_match_the_dense_table_on_nakayama_algebras(n, r, monkeypatch):
    _assert_sparse_constants_match_the_dense_table(_nakayama(n, r), monkeypatch)


def _sampled_triples(n):
    """The basis triples on which associativity used to be checked: all of them for n <= 14,
    else those of the first six basis elements and 300 drawn ones."""
    if n <= 14:
        return set(itertools.product(range(n), repeat=3))
    triples = set(itertools.product(range(6), repeat=3))
    rng = random.Random("assoc:%d" % n)
    for _ in range(300):
        triples.add((rng.randrange(n), rng.randrange(n), rng.randrange(n)))
    return triples


def _unit(g, t):
    return tuple(g.field.one if i == t else g.field.zero for i in range(g.dim))


def _failing_triples(g, i, j):
    """The basis triples on which g is not associative, among those whose products read the
    constants of b_i * b_j: (i, j, z), (x, i, j), (x, y, j) with b_i in the support of b_x b_y, and
    (i, y, z) with b_j in the support of b_y b_z."""
    n, b = g.dim, [_unit(g, t) for t in range(g.dim)]
    cand = {(i, j, z) for z in range(n)} | {(x, i, j) for x in range(n)}
    for x, y in itertools.product(range(n), repeat=2):
        p = mult(g, b[x], b[y])
        if p[i]:
            cand.add((x, y, j))
        if p[j]:
            cand.add((i, x, y))
    return {(x, y, z) for x, y, z in cand
            if mult(g, mult(g, b[x], b[y]), b[z]) != mult(g, b[x], mult(g, b[y], b[z]))}


def _with_terms(g, s, t, tt):
    """g with the structure constants of b_s * b_t replaced by tt, or removed when tt is empty."""
    terms = [dict(row) for row in g.terms]
    if tt:
        terms[s][t] = tt
    else:
        del terms[s][t]
    return replace(g, terms=tuple(terms))


def _changes_the_sample_misses(g, last):
    """g with the structure constants of b_s * b_t doubled, for two radical basis elements beyond
    the first six whose product lies beyond them too, where g is then not associative and every
    failing triple lies beyond the first six and outside the old sample; one per pair (s, t), in
    increasing order, or in decreasing order when last."""
    f, sample = g.field, _sampled_triples(g.dim)
    idem = set(g.idempotents)
    for s, t in sorted(((s, t) for s, row in enumerate(g.terms) for t in row), reverse=last):
        tt = g.terms[s][t]
        if min(s, t, *(u for u, _ in tt)) < 6 or s in idem or t in idem:
            continue
        bad = _with_terms(g, s, t, tuple((u, f.add(c, c)) for u, c in tt))
        failing = _failing_triples(bad, s, t)
        if failing and min(min(x) for x in failing) >= 6 and not failing & sample:
            yield bad


def test_validation_proves_associativity_where_the_sample_missed_a_change():
    """In End(A + DA) for A_14/rad^5, of dimension 80, the first and the last changed constant that
    the old sample misses, so that their failing triples come early and late in the check."""
    g = gen_cogen_algebra(_nakayama(14, 5))
    assert g.dim > 14
    endo._validate_algebra(g)
    for last in (False, True):
        bad = next(_changes_the_sample_misses(g, last))
        with pytest.raises(VerificationFailed, match="associativity"):
            endo._validate_algebra(bad)


def _radical_product(g):
    """(s, t) for a nonzero product b_s * b_t of two radical basis elements."""
    idem = set(g.idempotents)
    return next((s, t) for s, row in enumerate(g.terms) for t in row if s not in idem and t not in idem)


def test_validation_rejects_a_product_that_leaves_its_block():
    g = gen_cogen_algebra(load_fixture_algebra("a3"))
    s, t = _radical_product(g)
    (u, c), *rest = g.terms[s][t]
    other = next(v for v in range(g.dim) if g.grading[v] != g.grading[u])
    bad = _with_terms(g, s, t, ((other, c), *rest))
    for check in (endo._validate_algebra, global_dimension):
        with pytest.raises(VerificationFailed, match="leaves its block"):
            check(bad)


def test_validation_rejects_a_basis_element_in_no_peirce_block():
    """e_a b = b is removed for the basis element b of a radical product, so no idempotent fixes b
    on the left."""
    g = gen_cogen_algebra(load_fixture_algebra("a3"))
    _, b = _radical_product(g)
    p = next(p for p in g.idempotents if b in g.terms[p])
    bad = _with_terms(g, p, b, ())
    for check in (endo._validate_algebra, global_dimension):
        with pytest.raises(VerificationFailed, match="lies in no Peirce block"):
            check(bad)


def test_certifier_rejects_a_radical_candidate_that_is_not_nilpotent():
    """k x k as k[x]/(x^2 - x), with basis 1, x, claiming x as its radical and 1 as its one
    idempotent: x spans a two-sided ideal of codimension 1, but x^2 = x."""
    z, o = QQ.zero, QQ.one
    g = make_algebra(QQ, [[(o, z), (z, o)], [(z, o), (z, o)]], (o, z), idempotents=(0,))
    for check in (certify_structure, global_dimension):
        with pytest.raises(VerificationFailed, match="not nilpotent"):
            check(g)


def _wrong_claim(case):
    """An algebra whose claimed idempotents fail the certificate at the branch case names.

    "ideal": k[x]/(x^2 - 1) over Q, with basis 1, x, claiming x as its radical and 1 as its one
    idempotent; x^2 = 1, so x spans no two-sided ideal.  "repeated" and "out-of-range": End(A + DA)
    for loop2 with one idempotent index claimed twice, or one past its last basis element."""
    if case == "ideal":
        z, o = QQ.zero, QQ.one
        return make_algebra(QQ, [[(o, z), (z, o)], [(z, o), (o, z)]], (o, z), idempotents=(0,))
    g = gen_cogen_algebra(load_fixture_algebra("loop2"))
    extra = g.idempotents[0] if case == "repeated" else g.dim
    return replace(g, idempotents=g.idempotents + (extra,))


@pytest.mark.parametrize("case, match", [
    ("ideal", "not a two-sided ideal"),
    ("repeated", "not distinct basis elements"),
    ("out-of-range", "not distinct basis elements"),
])
def test_certifier_rejects_a_wrong_claim_at_each_branch(case, match):
    bad = _wrong_claim(case)
    for check in (certify_structure, global_dimension):
        with pytest.raises(VerificationFailed, match=match):
            check(bad)


def _square_tables(n):
    """The lists and tuples of n lists or tuples of length n that the collector tracks."""
    return [x for x in gc.get_objects() if isinstance(x, (list, tuple)) and len(x) == n
            and all(isinstance(y, (list, tuple)) and len(y) == n for y in x)]


def test_associativity_visits_the_chaining_triples_and_no_square_table_exists(monkeypatch):
    """On End(A + DA) for A_10/rad^3: the check visits exactly the basis triples whose Peirce
    blocks chain, found here from products with the idempotents, and while it runs no dim x dim
    table exists, nor does the dense-table constructor run."""
    visited, squares = [], []
    chains, validate = endo._chains, endo._validate_algebra

    def counted(tags):
        for triple in chains(tags):
            visited.append(triple)
            yield triple

    def scanned(g):
        squares.extend(_square_tables(g.dim))
        return validate(g)

    def dense(*args, **kwargs):
        raise AssertionError("the dense-table constructor ran")

    monkeypatch.setattr(endo, "_chains", counted)
    monkeypatch.setattr(endo, "_validate_algebra", scanned)
    monkeypatch.setattr(reference, "make_algebra", dense)
    g = gen_cogen_algebra(_nakayama(10, 3))
    n = g.dim
    b = [_unit(g, t) for t in range(n)]
    tags = [(next(a for a, e in enumerate(g.idempotents) if mult(g, b[e], b[t]) == b[t]),
             next(c for c, e in enumerate(g.idempotents) if mult(g, b[t], b[e]) == b[t])) for t in range(n)]
    chaining = [(i, j, k) for i in range(n) for j in range(n) for k in range(n)
                if tags[i][1] == tags[j][0] and tags[j][1] == tags[k][0]]
    assert sorted(visited) == chaining
    assert len(chaining) < n ** 3 // 10
    assert squares == []
    assert not hasattr(g, "table")
    assert sum(len(row) for row in g.terms) < n * n // 10


def _no_eigenvalue_or_fitting_split(monkeypatch):
    def fail(*args):
        raise AssertionError("a one-element basis needs no eigenvalue and no Fitting split")

    for name in ("_eigenvalue", "_fitting", "_images_vanish"):
        monkeypatch.setattr(endo, name, fail)


@pytest.mark.parametrize("field", [QQ, PrimeField(101)], ids=["Q", "GF101"])
def test_one_element_basis_is_local_on_sight(field, monkeypatch):
    """One op spans End(V) only when End(V) = k id: local with radical 0, read off the length."""
    _no_eigenvalue_or_fitting_split(monkeypatch)
    dims = (2, 0, 3)
    for c in (field.one, field.from_int(-7), field.coerce(Fraction(2, 3))):
        op = tuple(Mat.identity(field, d).scale(c) for d in dims)
        assert endo.fitting_split(field, dims, [op]) == (None, [])


@pytest.mark.parametrize("field", [None, PrimeField(101)], ids=["Q", "GF101"])
@pytest.mark.parametrize("name", COMPLETE_FIXTURES)
def test_bricks_of_a_catalog_carry_an_empty_radical(name, field, monkeypatch):
    """A node with End = k carries local_parts == [], unless it came from add(A + DA) with no
    certificate; either way its radical is certified empty with no eigenvalue."""
    cat = catalog_of(load_fixture_algebra(name, field=field))
    assert cat.complete
    bricks = [node for node in cat.nodes if len(hom_basis(node.rep, node.rep)) == 1]
    _no_eigenvalue_or_fitting_split(monkeypatch)
    assert bricks
    for node in bricks:
        x = node.rep
        if x.local_parts is None:
            assert node.in_add_gen_cogen
        else:
            assert x.local_parts == []
        assert endomorphism_radical(Representation(x.algebra, x.dims, x.mats)) == []


# -- the Fitting step on the ops as given: the reference for the integral one --


def _ref_fitting_split(f, dims, ops):
    """fitting_split with every step on the ops themselves, over Q in their Fraction entries."""
    if len(ops) == 1:
        return None, []
    nil, every = [], True
    for op in ops:
        lam = _ref_eigenvalue(op)
        if lam is None:
            every = False
            continue
        psi = tuple(m.sub(Mat.identity(f, m.rows).scale(lam)) for m in op)
        split = _ref_fitting(psi)
        if split:
            return split, None
        if any(not m.is_zero() for m in psi):
            nil.append(psi)
    if every and endo._images_vanish(f, dims, nil):
        return None, nil
    for a in nil:
        for b in nil:
            split = _ref_fitting(tuple(x.mul(y) for x, y in zip(a, b)))
            if split:
                return split, None
    raise NonSplit("the endomorphism ring of a space of dimensions %s is not split local and no "
                   "element splits it over the base field" % (tuple(dims),))


def _ref_eigenvalue(op):
    for m in op:
        if m.rows:
            lam = _ref_single_eigenvalue(m)
            if lam is not None:
                return lam
            try:
                roots = rational_roots(m.field, min_poly_of_matrix(m))
            except RuntimeError:
                roots = []
            if roots:
                return roots[0][0]
    return None


def _ref_single_eigenvalue(m):
    f, d = m.field, m.rows
    dk = f.from_int(d)
    if not dk:
        return None
    tr = f.zero
    for i in range(d):
        tr = f.add(tr, m.entries[i * d + i])
    lam = f.mul(tr, f.inv(dk))
    psi = m.sub(Mat.identity(f, d).scale(lam))
    e = 1
    while e < d and not psi.is_zero():
        psi = psi.mul(psi)
        e *= 2
    return lam if psi.is_zero() else None


def _ref_fitting(psi):
    powers = [_ref_stable_power(m) for m in psi]
    if all(p.is_zero() for p in powers):
        return None
    return [kernel_basis(p) for p in powers], [col_space(p) for p in powers]


def _ref_stable_power(m):
    r = rank(m)
    while r:
        sq = m.mul(m)
        rs = rank(sq)
        if rs == r:
            break
        m, r = sq, rs
    return m


def _outcome(split, f, dims, ops):
    """(result, its repr) of split(f, dims, ops), the repr telling an int from a Fraction; or
    (None, the NonSplit it raised)."""
    try:
        out = split(f, dims, ops)
    except NonSplit as exc:
        return None, "NonSplit: %s" % exc
    return out, repr(out)


def _assert_splits_as_the_reference(m):
    """fitting_split gives the reference's result on End(m) and, down the splits, on End of each
    piece; returns the number of calls compared."""
    todo, calls = [m], 0
    while todo:
        x = todo.pop()
        f, ops = x.algebra.field, [b.mats for b in hom_basis(x, x)]
        got, text = _outcome(endo.fitting_split, f, x.dims, ops)
        assert text == _outcome(_ref_fitting_split, f, x.dims, ops)[1]
        calls += 1
        if got is not None and got[0] is not None:
            todo += [subrep_from_bases(x, bases)[0] for bases in got[0]]
    return calls


@pytest.mark.parametrize("name", COMPLETE_FIXTURES)
def test_fitting_split_matches_the_reference_on_catalogs(name):
    """Every catalog node, every module of add(A + DA) and their sum A + DA, which splits, over Q."""
    alg = load_fixture_algebra(name)
    mods = gen_cogen(alg).modules
    for node in catalog_of(alg).nodes:
        _assert_splits_as_the_reference(Representation(alg, node.rep.dims, node.rep.mats))
    for x in mods:
        _assert_splits_as_the_reference(Representation(alg, x.dims, x.mats))
    assert _assert_splits_as_the_reference(direct_sum(alg, mods)) > len(mods)


_KRON_SUMMAND = st.tuples(st.sampled_from(["preprojective", "preinjective", "regular"]), st.integers(0, 2),
                          st.integers(-4, 4)).filter(lambda s: s[0] != "regular" or s[1] > 0)


@settings(derandomize=True, database=None, max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from([None, 2, 3, 101]), st.lists(_KRON_SUMMAND, min_size=1, max_size=3), st.booleans(),
       st.integers(0, 2**32))
def test_fitting_split_matches_the_reference_on_kronecker_sums(p, summands, repeat, seed):
    """perfbench's Kronecker sums in a random basis, with a repeated first summand X + X when repeat."""
    kron = load_fixture_algebra("kron", None if p is None else PrimeField(p))
    data = gen.kron_module(summands + summands[:1] * repeat, random.Random(seed))
    _assert_splits_as_the_reference(rio.module_from_dict(kron, data))


def test_fitting_split_matches_the_reference_through_the_product_fallback():
    """id, e12, e21 and [[1, 1], [-1, -1]] on k^2, scaled by 2/3 or 5/7: each has one eigenvalue
    and only e12 e21 splits, in the product fallback."""
    s, t = Fraction(2, 3), Fraction(5, 7)
    ops = [(from_rows(QQ, rows).scale(QQ.coerce(c)),) for rows, c in [
        ([[1, 0], [0, 1]], s), ([[0, 1], [0, 0]], t), ([[0, 0], [1, 0]], s), ([[1, 1], [-1, -1]], t)]]
    for op in ops:
        assert _ref_eigenvalue(op) is not None
    assert all(_ref_fitting(tuple(m.sub(Mat.identity(QQ, 2).scale(_ref_eigenvalue(op))) for m in op)) is None
               for op in ops)
    got = endo.fitting_split(QQ, (2,), ops)
    assert got[0] is not None
    assert repr(got) == repr(_ref_fitting_split(QQ, (2,), ops))


def test_root_search_gives_up_where_it_gives_up_on_the_op_itself():
    """diag(1, 2) / p for a prime p above 10^12 has the minimal polynomial x^2 - 3x / p + 2 / p^2,
    whose denominator p^2 is too large to factor, so the op counts as having no eigenvalue, and
    with id alone nothing splits k^2.  The integral diag(1, 2) would have given the search
    x^2 - 3x + 2."""
    p = 10**12 + 39
    ops = [(Mat.identity(QQ, 2),), (from_rows(QQ, [[Fraction(1, p), 0], [0, Fraction(2, p)]]),)]
    for split in (endo.fitting_split, _ref_fitting_split):
        with pytest.raises(NonSplit):
            split(QQ, (2,), ops)


@pytest.mark.parametrize("p", [None, 3], ids=["Q", "GF3"])
def test_rotation_module_is_refused_as_by_the_reference(p):
    kron = load_fixture_algebra("kron", None if p is None else PrimeField(p))
    f = kron.field
    m = Representation(kron, (2, 2), [Mat.identity(f, 2), from_rows(f, [[0, -1], [1, 0]])])
    ops = [b.mats for b in hom_basis(m, m)]
    for split in (endo.fitting_split, _ref_fitting_split):
        with pytest.raises(NonSplit):
            split(f, m.dims, ops)


def _count_products(monkeypatch):
    count = [0]
    mul = Mat.mul

    def counted(self, other):
        count[0] += 1
        return mul(self, other)

    monkeypatch.setattr(Mat, "mul", counted)
    return count


@pytest.mark.parametrize("field, rows", [
    (QQ, [[0, 1, 0], [0, 0, 1], [1, 0, 0]]),  # lam = 0, tr(psi^2) = 0, psi^3 = I
    (PrimeField(2), [[1, 0, 0], [0, 1, 0], [0, 0, 0]]),  # lam = 2 / 3 = 0, tr(psi^2) = 2 = 0
], ids=["3-cycle-Q", "diag110-GF2"])
def test_a_block_with_tr_psi2_zero_is_squared_and_refused(field, rows, monkeypatch):
    m = from_rows(field, rows)
    count = _count_products(monkeypatch)
    assert endo._single_eigenvalue(m) is None
    assert count[0] > 0


@pytest.mark.parametrize("field", [QQ, PrimeField(101)], ids=["Q", "GF101"])
@pytest.mark.parametrize("lam", [-3, 0, 5])
def test_lam_plus_nilpotent_in_a_unimodular_basis(field, lam):
    s, s_inv = gen.unimodular(random.Random("nilpotent:%d" % lam), 4)
    n = from_rows(field, [[int(j > i) * (i + j) for j in range(4)] for i in range(4)])
    m = from_rows(field, s).mul(n).mul(from_rows(field, s_inv)).add(Mat.identity(field, 4).scale(
        field.from_int(lam)))
    assert endo._single_eigenvalue(m) == field.from_int(lam)


def test_two_rational_eigenvalues_are_refused_before_any_product(monkeypatch):
    s, s_inv = gen.unimodular(random.Random("two eigenvalues"), 3)
    m = from_rows(QQ, s).mul(from_rows(QQ, [[1, 0, 0], [0, 1, 0], [0, 0, 3]])).mul(from_rows(QQ, s_inv))
    count = _count_products(monkeypatch)
    assert endo._single_eigenvalue(m) is None
    assert count[0] == 0
