import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repherd.endo import _p_mul, rational_roots
from repherd.errors import DimensionMismatch
from repherd.fields import PrimeField, QQ
from repherd.linalg import (
    Mat,
    SpanTracker,
    _echelon,
    _gauss_jordan,
    _insert,
    _modulus,
    _row_space,
    _scaled,
    col_space,
    complement_places,
    block_diag,
    extend_to_basis,
    hstack,
    inverse,
    is_invertible,
    kernel_basis,
    quotient_maps,
    rank,
    rref,
    solve,
    vstack,
)
from tests.conftest import in_form


def bareiss_rank(rows):
    """Fraction-free Gaussian elimination over the integers (oracle)."""
    m = [list(map(int, r)) for r in rows]
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    prev = 1
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, nrows):
            if m[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, nrows):
            for j in range(c + 1, ncols):
                m[i][j] = (m[r][c] * m[i][j] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        r += 1
        if r == nrows:
            break
    return r


def test_rref_identity():
    m = Mat.identity(QQ, 3)
    red, rk, pivots = rref(m)
    assert rk == 3 and pivots == (0, 1, 2)
    assert red.eq(m)


def test_rref_proportional_rows():
    m = Mat.from_rows(QQ, [[2, 4], [1, 2]])
    _, rk, pivots = rref(m)
    assert rk == 1 and pivots == (0,)


def test_rref_rank_matches_bareiss_oracle_gf101():
    fld = PrimeField(101)
    rng = random.Random("rref-oracle")
    for _ in range(25):
        rows = [[rng.randrange(-9, 10) for _ in range(7)] for _ in range(5)]
        m = Mat.from_rows(fld, [[x % 101 for x in r] for r in rows])
        # fraction-free oracle over the integers, then project mod 101:
        # ranks agree because every integer pivot stays nonzero mod 101
        # for entries this small only when computed over Q; compare there.
        mq = Mat.from_rows(QQ, rows)
        assert rank(mq) == bareiss_rank(rows)
        assert rank(m) <= rank(mq)


def test_rref_idempotent_random_both_fields():
    for fld in (QQ, PrimeField(101)):
        rng = random.Random("idem:%s" % fld)
        for _ in range(20):
            rows = [[rng.randrange(-5, 6) for _ in range(6)] for _ in range(4)]
            m = Mat.from_rows(fld, rows)
            red, rk, piv = rref(m)
            red2, rk2, piv2 = rref(red)
            assert red2.eq(red) and rk2 == rk and piv2 == piv


def test_rank_nullity():
    rng = random.Random("rank-nullity")
    for _ in range(20):
        rows = [[rng.randrange(-4, 5) for _ in range(5)] for _ in range(7)]
        m = Mat.from_rows(QQ, rows)
        assert rank(m) + kernel_basis(m).cols == m.cols


def test_kernel_identity_and_zero():
    assert kernel_basis(Mat.identity(QQ, 4)).cols == 0
    assert kernel_basis(Mat.zeros(QQ, 2, 3)).cols == 3


def test_kernel_example_proportional():
    m = Mat.from_rows(QQ, [[1, 1, 0], [0, 0, 1]])
    k = kernel_basis(m)
    assert k.cols == 1
    v = k.col(0)
    # proportional to (1, -1, 0)
    assert v[2] == 0 and v[0] == -v[1] and v[0] != 0
    assert all(x == 0 for x in m.mul(k).entries)


def test_solve_identity_and_inconsistent():
    b = Mat.from_rows(QQ, [[1], [2], [3]])
    x = solve(Mat.identity(QQ, 3), b)
    assert x.eq(b)
    a = Mat.from_rows(QQ, [[1], [1]])
    assert solve(a, Mat.from_rows(QQ, [[0], [1]])) is None


def test_solve_substitution_random():
    rng = random.Random("solve-sub")
    for _ in range(15):
        a = Mat.from_rows(QQ, [[rng.randrange(-3, 4) for _ in range(4)] for _ in range(5)])
        xtrue = Mat.from_rows(QQ, [[rng.randrange(-3, 4)] for _ in range(4)])
        b = a.mul(xtrue)
        x = solve(a, b)
        assert x is not None and a.mul(x).eq(b)


def test_col_space_and_inverse():
    m = Mat.from_rows(QQ, [[1, 2, 3], [0, 0, 1], [1, 2, 4]])
    cs = col_space(m)
    assert cs.cols == rank(m) == 2
    inv = inverse(Mat.from_rows(QQ, [[2, 1], [1, 1]]))
    assert inv.eq(Mat.from_rows(QQ, [[1, -1], [-1, 2]]))


def test_span_tracker_coords():
    t = SpanTracker(QQ, 3, track=True)
    t.add((1, 0, 1))
    t.add((0, 1, 1))
    coords = t.coords((2, 3, 5))
    assert coords == [Fraction(2), Fraction(3)]
    assert t.coords((0, 0, 1)) is None
    assert t.reduce((1, 0, 1)) == [0, 0, 0]


# -- the sparse kernel against the dense loop --------------------------------

FIELDS = [QQ, PrimeField(2), PrimeField(3), PrimeField(101)]

# Over Q entries are mostly small, so that rows are often dependent, with some
# rationals of numerator up to 2^64 and denominator up to 10^6; over GF(p)
# they are drawn mod p.
_entries = st.one_of(
    st.just(0),
    st.integers(-3, 3),
    st.builds(Fraction, st.integers(-2**64, 2**64), st.integers(1, 10**6)),
)
_scalars = [1, -1, 2, Fraction(-5, 7)]  # 7 is invertible in every field of FIELDS


def entries(field):
    return _entries if field is QQ else st.one_of(st.just(0), st.integers(0, field.p - 1))


@st.composite
def row_pools(draw, field, ncols, size=4):
    """A few random rows of ncols field elements, and the zero row."""
    base = draw(st.lists(st.lists(entries(field), min_size=ncols, max_size=ncols), max_size=size))
    return [[field.coerce(x) for x in row] for row in base] + [[field.zero] * ncols]


@st.composite
def matrices(draw, field):
    """A matrix over field of up to 7 x 6, either dimension possibly 0, whose rows are
    drawn, each times a small scalar, from a few random rows and the zero row."""
    ncols = draw(st.integers(0, 6))
    pool = draw(row_pools(field, ncols))
    picked = draw(st.lists(st.tuples(st.sampled_from(pool), st.sampled_from(_scalars)), max_size=7))
    rows = [[field.mul(field.coerce(s), x) for x in row] for row, s in picked]
    return Mat(field, len(rows), ncols, tuple(x for r in rows for x in r))


def dense_solve(a, b):
    """The x that dense Gauss-Jordan on [a | b] reads off, as entries, or None."""
    f = a.field
    rows = [list(a.row(i)) + list(b.row(i)) for i in range(a.rows)]
    pivots = _gauss_jordan(f, rows, a.cols + b.cols)
    if any(p >= a.cols for p in pivots):
        return None
    out = [f.zero] * (a.cols * b.cols)
    for k, pc in enumerate(pivots):
        for j in range(b.cols):
            out[pc * b.cols + j] = rows[k][a.cols + j]
    return tuple(out)


@settings(derandomize=True, database=None, max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(FIELDS).flatmap(lambda f: st.tuples(matrices(f), st.data())))
def test_fraction_free_rref_over_q_matches_the_dense_loop(drawn):
    """rref, rank, col_space, kernel_basis and solve over Q and GF(p) equal
    what dense Gauss-Jordan gives, entry by entry."""
    m, data = drawn
    f = m.field
    rows = m.row_lists()
    pivots = _gauss_jordan(f, rows, m.cols)
    reduced, rk, piv = rref(m)
    assert piv == tuple(pivots) and rk == rank(m) == len(pivots)
    assert reduced.entries == tuple(x for r in rows for x in r)
    assert col_space(m).entries == tuple(m.at(i, c) for i in range(m.rows) for c in pivots)
    assert all(in_form(f, x) for x in reduced.entries)
    # the kernel is read off the same form: one column per free column, in order
    ker = kernel_basis(m)
    free = [c for c in range(m.cols) if c not in pivots]
    assert ker.rows == m.cols and ker.cols == len(free)
    for k, fc in enumerate(free):
        col = ker.col(k)
        assert col[fc] == 1 and all(not col[c] for c in free if c != fc)
        assert all(col[pc] == f.neg(rows[t][fc]) for t, pc in enumerate(pivots))
    assert m.mul(ker).is_zero()
    # solve on a random right-hand side, often inconsistent, and on one in the image
    nb = data.draw(st.integers(0, 2))
    b = Mat.from_rows(f, [data.draw(st.lists(entries(f), min_size=nb, max_size=nb)) for _ in range(m.rows)])
    xs = solve(m, b)
    assert (None if xs is None else xs.entries) == dense_solve(m, b)
    x = Mat.from_rows(f, [data.draw(st.lists(entries(f), min_size=nb, max_size=nb)) for _ in range(m.cols)])
    if m.rows:
        xs = solve(m, m.mul(x))
        assert xs.entries == dense_solve(m, m.mul(x)) and m.mul(xs).eq(m.mul(x))


# -- empty shapes ----------------------------------------------------------------
#
# A vertex where a module is zero makes every block at it empty, and the kernels
# return at once on such shapes; these tests hold each early answer to the plain
# definition or to dense Gauss-Jordan.


def shaped(field, rows, cols):
    """A rows x cols matrix over field with drawn entries."""
    return st.lists(entries(field), min_size=rows * cols, max_size=rows * cols).map(
        lambda xs: Mat(field, rows, cols, tuple(field.coerce(x) for x in xs)))


@st.composite
def empty_products(draw):
    """A field and matrices a (n x k), b (k x m) and c (n x m) with one of n, k, m zero."""
    field = draw(st.sampled_from(FIELDS))
    n, k, m = draw(st.tuples(*[st.integers(0, 3)] * 3).filter(lambda t: 0 in t))
    return field, draw(shaped(field, n, k)), draw(shaped(field, k, m)), draw(shaped(field, n, m))


def _dot(f, xs, ys):
    acc = f.zero
    for x, y in zip(xs, ys):
        acc = f.add(acc, f.mul(x, y))
    return acc


def _dense_block_diag(f, mats):
    nc = sum(m.cols for m in mats)
    rows, c0 = [], 0
    for m in mats:
        rows += [[f.zero] * c0 + list(m.row(i)) + [f.zero] * (nc - c0 - m.cols) for i in range(m.rows)]
        c0 += m.cols
    return Mat(f, len(rows), nc, tuple(x for r in rows for x in r))


@settings(derandomize=True, database=None, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(empty_products(), st.sampled_from(_scalars))
def test_empty_shapes_follow_the_plain_definitions(drawn, s):
    """mul, transpose, add, scale, hstack, vstack and block_diag, with a zero
    dimension somewhere, give what their definitions give."""
    f, a, b, c = drawn
    s = f.coerce(s)
    prod = a.mul(b)
    assert prod == Mat(f, a.rows, b.cols, tuple(_dot(f, a.row(i), b.col(j)) for i in range(a.rows) for j in range(b.cols)))
    assert c.add(prod) == Mat(f, c.rows, c.cols, tuple(f.add(x, y) for x, y in zip(c.entries, prod.entries)))
    for x in (a, b, c):
        assert x.transpose() == Mat(f, x.cols, x.rows, tuple(x.at(i, j) for j in range(x.cols) for i in range(x.rows)))
        assert x.scale(s) == Mat(f, x.rows, x.cols, tuple(f.mul(s, e) for e in x.entries))
    for left, right in ((a, c), (c, a), (a, a)):
        want = tuple(e for i in range(left.rows) for e in left.row(i) + right.row(i))
        assert hstack(f, [left, right]) == Mat(f, left.rows, left.cols + right.cols, want)
    for top, bottom in ((b, c), (c, b), (c, c)):
        assert vstack(f, [top, bottom]) == Mat(f, top.rows + bottom.rows, c.cols, top.entries + bottom.entries)
    for x in (a, b, c):
        assert hstack(f, [x]) == vstack(f, [x]) == block_diag(f, [x]) == x
    assert block_diag(f, [a, b, c]) == _dense_block_diag(f, [a, b, c])


def dense_kernel(f, m):
    """The kernel basis dense Gauss-Jordan reads off: one column per free column of m, in order."""
    rows = m.row_lists()
    pivots = _gauss_jordan(f, rows, m.cols)
    free = [c for c in range(m.cols) if c not in pivots]
    cols = []
    for fc in free:
        col = [f.zero] * m.cols
        col[fc] = f.one
        for t, pc in enumerate(pivots):
            col[pc] = f.neg(rows[t][fc])
        cols.append(col)
    return Mat(f, m.cols, len(free), tuple(col[i] for i in range(m.cols) for col in cols))


@settings(derandomize=True, database=None, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(empty_products(), st.booleans())
def test_empty_shapes_match_the_dense_reference(drawn, zero_rhs):
    """rank, col_space, kernel_basis and solve, with a zero dimension somewhere,
    give what dense Gauss-Jordan gives."""
    f, a, b, c = drawn
    for x in (a, b, c):
        pivots = _gauss_jordan(f, x.row_lists(), x.cols)
        assert rank(x) == len(pivots)
        assert col_space(x) == Mat(f, x.rows, len(pivots), tuple(x.at(i, p) for i in range(x.rows) for p in pivots))
        assert kernel_basis(x) == dense_kernel(f, x)
    rhs = Mat.zeros(f, c.rows, c.cols) if zero_rhs else c
    xs = solve(a, rhs)
    assert (None if xs is None else xs.entries) == dense_solve(a, rhs)
    if xs is not None:
        assert (xs.rows, xs.cols) == (a.cols, c.cols)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_solve_with_no_unknowns_needs_a_zero_right_hand_side(field):
    """a x = b with a.cols == 0 has the one solution x = 0 (0 x nb) when b is zero, and none
    otherwise: an early answer on the shape must still read b."""
    for rows, nb in ((1, 1), (3, 2)):
        a = Mat(field, rows, 0, ())
        assert solve(a, Mat.zeros(field, rows, nb)) == Mat(field, 0, nb, ())
        for k in range(rows * nb):
            b = Mat(field, rows, nb, tuple(field.one if t == k else field.zero for t in range(rows * nb)))
            assert solve(a, b) is None


class DenseSpan:
    """What SpanTracker must answer, from dense Gauss-Jordan on the generators."""

    def __init__(self, field, width):
        self.field, self.width, self.ngens, self.kept, self.kept_at = field, width, 0, [], []

    def add(self, vec):
        self.ngens += 1
        grew = len(_gauss_jordan(self.field, [list(g) for g in self.kept] + [list(vec)], self.width)) > len(self.kept)
        if grew:
            self.kept.append(list(vec))
            self.kept_at.append(self.ngens - 1)
        return grew

    def reduce(self, vec):
        f = self.field
        rows = [list(g) for g in self.kept]
        out = list(vec)
        for row, p in zip(rows, _gauss_jordan(f, rows, self.width)):
            c = out[p]
            out = [f.sub(x, f.mul(c, y)) for x, y in zip(out, row)]
        return out

    def coords(self, vec):
        """vec over the generators, zero at those that did not enlarge the span."""
        f = self.field
        if any(self.reduce(vec)):
            return None
        k = len(self.kept)
        rows = [[g[i] for g in self.kept] + [vec[i]] for i in range(self.width)]
        pivots = _gauss_jordan(f, rows, k + 1)
        assert pivots == list(range(k))
        out = [f.zero] * self.ngens
        for t, g in enumerate(self.kept_at):
            out[g] = rows[t][k]
        return out


@st.composite
def span_runs(draw):
    """A field, a width, whether to track, and a list of ("add" | "query", vector),
    each vector a combination of two from a few random rows and the zero row."""
    field = draw(st.sampled_from(FIELDS))
    width = draw(st.integers(0, 6))
    pool = draw(row_pools(field, width))
    scalar = st.sampled_from(_scalars).map(field.coerce)
    vec = st.tuples(st.sampled_from(pool), scalar, st.sampled_from(pool), scalar).map(
        lambda t: [field.add(field.mul(t[1], x), field.mul(t[3], y)) for x, y in zip(t[0], t[2])])
    ops = draw(st.lists(st.tuples(st.sampled_from(["add", "query"]), vec), max_size=12))
    return field, width, draw(st.booleans()), ops


@settings(derandomize=True, database=None, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(span_runs())
def test_span_tracker_matches_the_dense_reference(run):
    """add, reduce, coords and contains, with dependent generators and reduce on a
    tracked span, equal what dense Gauss-Jordan on the generators gives."""
    field, width, track, ops = run
    t, ref = SpanTracker(field, width, track=track), DenseSpan(field, width)
    for op, vec in ops:
        if op == "add":
            assert t.add(vec) == ref.add(vec)
            assert t.dim == len(ref.kept)
            continue
        residue = ref.reduce(vec)
        assert t.reduce(vec) == residue
        assert t.contains(vec) == (not any(residue))
        if track:
            assert t.coords(vec) == ref.coords(vec)
        else:
            with pytest.raises(RuntimeError):
                t.coords(vec)


def test_mat_entry_count_is_checked():
    with pytest.raises(DimensionMismatch):
        Mat(QQ, 2, 2, (Fraction(1), Fraction(2), Fraction(3)))
    with pytest.raises(DimensionMismatch):
        Mat(PrimeField(7), 0, 3, (1,))


def test_mat_value_equality_and_hash():
    a = Mat.from_rows(QQ, [[1, 2], [3, 4]])
    b = Mat(QQ, 2, 2, (Fraction(1), Fraction(2), Fraction(3), Fraction(4)))
    assert all(type(x) is int for x in a.entries)
    assert a == b and hash(a) == hash(b)
    assert [QQ.fmt(x) for x in a.entries] == [QQ.fmt(x) for x in b.entries] == ["1", "2", "3", "4"]
    assert len({a, b}) == 1
    assert a != a.transpose()
    assert a != Mat(QQ, 1, 4, a.entries)
    # the field is part of the value: 1 mod 7 is not the rational 1
    assert Mat.identity(QQ, 2) != Mat.identity(PrimeField(7), 2)
    assert a != a.entries


def test_mat_repr_is_readable():
    m = Mat.from_rows(PrimeField(7), [[1, 0, 6]])
    assert repr(m) == "Mat(field=GF(7), rows=1, cols=3, entries=(1, 0, 6))"


# -- the stored form of a scalar ---------------------------------------------


def test_rational_inverse_is_exact():
    assert QQ.inv(2) == Fraction(1, 2) and type(QQ.inv(2)) is Fraction
    assert QQ.inv(-1) == -1 and type(QQ.inv(-1)) is int
    assert QQ.inv(Fraction(1, 3)) == 3 and type(QQ.inv(Fraction(1, 3))) is int
    assert QQ.inv(Fraction(-2, 3)) == Fraction(-3, 2)
    with pytest.raises(ZeroDivisionError):
        QQ.inv(0)


# Roots of the polynomials drawn below: small, so that the rational root
# theorem has few divisors to try; 7 is invertible in every field of FIELDS.
_roots = st.one_of(st.integers(-3, 3), st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 7])))


@settings(derandomize=True, database=None, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(FIELDS).flatmap(lambda f: st.tuples(matrices(f), st.data())))
def test_every_result_is_in_the_stored_form(drawn):
    """Over Q every scalar that the field ops, the parsers, the Mat ops, the
    eliminations, SpanTracker and rational_roots return is an int when
    integral and a Fraction with denominator > 1 otherwise; over GF(p) an
    int in 0..p-1."""
    m, data = drawn
    f = m.field

    def ok(xs):
        return all(in_form(f, x) for x in xs)

    raw = [data.draw(entries(f)) for _ in range(2)]
    a, b = (f.coerce(x) for x in raw)
    ops = [a, b, f.add(a, b), f.sub(a, b), f.mul(a, b), f.neg(a), f.from_int(data.draw(st.integers(-9, 9)))]
    ops += [f.inv(x) for x in (a, b) if x]
    num, den = data.draw(st.integers(-50, 50)), data.draw(st.sampled_from([1, 7]))
    ops += [f.parse(str(x)) for x in raw] + [f.parse("%d/%d" % (num, den)), f.parse(num)]
    assert ok(ops)
    assert f.parse("%d/%d" % (num, den)) == f.mul(f.from_int(num), f.inv(f.from_int(den)))

    s = f.coerce(data.draw(st.sampled_from(_scalars)))
    mt = m.transpose()
    for out in (m.add(m.scale(s)), m.sub(m.scale(s)), m.scale(s), m.neg(), m.mul(mt), mt.mul(m)):
        assert ok(out.entries)
    assert ok(rref(m)[0].entries) and ok(kernel_basis(m).entries)
    x = Mat.from_rows(f, [data.draw(st.lists(entries(f), min_size=1, max_size=1)) for _ in range(m.cols)])
    if m.rows and m.cols:
        assert ok(solve(m, m.mul(x)).entries)
    for sq in (m.mul(mt), mt.mul(m)):
        if is_invertible(sq):
            assert ok(inverse(sq).entries)

    t = SpanTracker(f, m.cols, track=True)
    for i in range(m.rows):
        t.add(m.row(i))
    assert ok(t.reduce(x.entries))
    for i in range(m.rows):
        coords = t.coords(m.scale(s).row(i))
        assert coords is not None and ok(coords)

    roots = [f.coerce(data.draw(_roots)) for _ in range(data.draw(st.integers(1, 3)))]
    poly = [f.one]
    for r in roots:
        poly = _p_mul(f, poly, [f.neg(r), f.one])
    found = rational_roots(f, poly)
    assert ok(r for r, _ in found)
    assert {r for r, _ in found} == set(roots)


def test_scaled_returns_int_rows_as_collected():
    """_scaled gives the nonzeros as ints scaled by the lcm of the denominators;
    an integral Fraction is read as its int, and an all-int row comes back as is."""
    for xs, want in (
        ([0, 3, 0, -2], (1, [(1, 3), (3, -2)])),
        ([Fraction(3), 0, 2], (1, [(0, 3), (2, 2)])),
        ([Fraction(1, 2), 0, 3, Fraction(-2, 3)], (6, [(0, 3), (2, 18), (3, -4)])),
        ([0, 0], (1, [])),
    ):
        got = _scaled(xs, None)
        assert got == want and all(type(x) is int for _, x in got[1])
    assert _scaled([0, 4, 1], 5) == (1, [(1, 4), (2, 1)])


def reference_quotient_maps(field, basis):
    """What quotient_maps gave before it read its maps off one reduced basis:
    extend basis to a basis t of k^d, project by the last d - r rows of t^{-1}
    and take the last d - r columns of t as the section."""
    d, r = basis.rows, basis.cols
    t = extend_to_basis(field, basis)
    tinv = inverse(t) if d else Mat.zeros(field, 0, 0)
    proj = Mat(field, d - r, d, tinv.entries[r * d:])
    sect = Mat(field, d, d - r, tuple(t.entries[i * d + r + j] for i in range(d) for j in range(d - r)))
    return proj, sect


@st.composite
def column_sets(draw):
    """A field and a d x c matrix whose columns are meant as a basis of a
    subspace: no columns, an invertible L U P with c = d, the column space of
    drawn columns, or drawn columns as they come, which may be dependent."""
    field = draw(st.sampled_from(FIELDS))
    d = draw(st.integers(0, 6))
    shape = draw(st.sampled_from(["none", "full", "span", "any"]))
    if shape == "none":
        return field, Mat.zeros(field, d, 0)
    if shape == "full":
        def unit_triangular(upper):
            return Mat.from_rows(field, [[draw(entries(field)) if (i < j) == upper and i != j else int(i == j)
                                          for j in range(d)] for i in range(d)])
        perm = draw(st.permutations(range(d)))
        p = Mat.from_rows(field, [[int(perm[j] == i) for j in range(d)] for i in range(d)])
        full = unit_triangular(False).mul(unit_triangular(True)).mul(p) if d else Mat.zeros(field, 0, 0)
        return field, full
    c = draw(st.integers(0, d + 1))
    pool = draw(row_pools(field, d))
    picked = draw(st.lists(st.tuples(st.sampled_from(pool), st.sampled_from(_scalars)), min_size=c, max_size=c))
    cols = [[field.mul(field.coerce(s), x) for x in col] for col, s in picked]
    m = Mat(field, d, c, tuple(cols[j][i] for i in range(d) for j in range(c)))
    return field, m if shape == "any" else col_space(m)


@settings(derandomize=True, database=None, max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(column_sets())
def test_quotient_maps_match_extend_and_invert(drawn):
    """quotient_maps gives the projection and section that extending the basis
    to a basis of k^d and inverting it gave, entry by entry and type by type,
    and refuses dependent columns as that construction did."""
    field, basis = drawn
    try:
        want = reference_quotient_maps(field, basis)
    except DimensionMismatch as exc:
        assert "dependent input columns" in str(exc)
        with pytest.raises(DimensionMismatch, match="dependent input columns"):
            quotient_maps(field, basis)
        return
    got = quotient_maps(field, basis)
    for g, w in zip(got, want):
        assert (g.rows, g.cols) == (w.rows, w.cols)
        assert [(type(x), x) for x in g.entries] == [(type(x), x) for x in w.entries]
    proj, sect = got
    d, r = basis.rows, basis.cols
    assert proj.rows == sect.cols == d - r
    assert proj.mul(basis).is_zero() and proj.mul(sect).eq(Mat.identity(field, d - r))


def test_quotient_maps_edge_shapes():
    for field in FIELDS:
        proj, sect = quotient_maps(field, Mat.zeros(field, 0, 0))
        assert (proj.rows, proj.cols, sect.rows, sect.cols) == (0, 0, 0, 0)
        proj, sect = quotient_maps(field, Mat.zeros(field, 3, 0))
        assert proj.eq(Mat.identity(field, 3)) and sect.eq(Mat.identity(field, 3))
        proj, sect = quotient_maps(field, Mat.identity(field, 3))
        assert (proj.rows, proj.cols, sect.rows, sect.cols) == (0, 3, 3, 0)
        for dependent in (Mat.zeros(field, 2, 1), Mat.from_rows(field, [[1, 1], [1, 1]]), Mat.zeros(field, 0, 1)):
            with pytest.raises(DimensionMismatch, match="dependent input columns"):
                quotient_maps(field, dependent)


def reference_complement_places(field, cols):
    """The places the covers kept before complement_places: add the columns to a SpanTracker,
    then each e_k in turn, and keep the k whose e_k enlarges the span."""
    d = cols.rows
    tracker = SpanTracker(field, d)
    for j in range(cols.cols):
        tracker.add(cols.col(j))
    return [k for k in range(d) if tracker.add([field.one if i == k else field.zero for i in range(d)])]


@settings(derandomize=True, database=None, max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(column_sets(), st.booleans())
def test_complement_places_match_the_greedy_span_and_the_section(drawn, repeat):
    """complement_places keeps the places the greedy SpanTracker loop kept, on spanning columns
    that may be dependent or repeated, and on independent columns the places of the section of
    quotient_maps."""
    field, cols = drawn
    if repeat:
        cols = hstack(field, [cols, cols], rows=cols.rows)
    places = complement_places(cols)
    assert places == reference_complement_places(field, cols)
    assert len(places) == cols.rows - rank(cols)
    if rank(cols) == cols.cols:
        sect = quotient_maps(field, cols)[1]
        assert [[i for i in range(sect.rows) if sect.at(i, j)] for j in range(sect.cols)] == [[s] for s in places]


def test_complement_places_edge_shapes():
    for field in FIELDS:
        assert complement_places(Mat.zeros(field, 0, 0)) == []
        assert complement_places(Mat.zeros(field, 3, 0)) == [0, 1, 2]
        assert complement_places(Mat.zeros(field, 3, 2)) == [0, 1, 2]
        assert complement_places(Mat.identity(field, 3)) == []
        assert complement_places(Mat.from_rows(field, [[1, 1], [1, 1]])) == [0]
        assert complement_places(Mat.from_rows(field, [[1, 0], [0, 0], [1, 1]])) == [1]


# -- forward elimination, then one back-substitution ------------------------------
#
# rref, kernel_basis, solve, quotient_maps and commuting_maps eliminate forward and
# back-substitute once.  The reference is the row space they kept before: every row
# inserted with `_insert`, which reduces every stored row at each new pivot, as
# SpanTracker still does.


def incremental_row_space(field, rows, width):
    """{pivot: row} of dense rows, each inserted into a row space kept reduced."""
    mod = _modulus(field)
    piv = {}
    for r in rows:
        row = dict(_scaled(r, mod)[1])
        if row:
            _insert(piv, row, width, mod)
    return piv


@st.composite
def systems(draw, field):
    """A matrix over field of up to 9 x 10, either dimension possibly 0, whose rows are
    drawn, each times a small scalar, from up to 7 random rows and the zero row: zero rows,
    repeated rows and rank below both dimensions all occur."""
    ncols = draw(st.integers(0, 10))
    pool = draw(row_pools(field, ncols, size=7))
    picked = draw(st.lists(st.tuples(st.sampled_from(pool), st.sampled_from(_scalars)), max_size=9))
    rows = [[field.mul(field.coerce(s), x) for x in row] for row, s in picked]
    return Mat(field, len(rows), ncols, tuple(x for r in rows for x in r))


@settings(derandomize=True, database=None, max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(FIELDS).flatmap(systems))
def test_row_space_is_the_incremental_one(m):
    """The back-substituted echelon form is the row space that incremental insertion
    keeps, row by row and entry by entry, with the same pivots as the echelon form."""
    f = m.field
    rows = [m.row(i) for i in range(m.rows)]
    want = incremental_row_space(f, rows, m.cols)
    echelon, mod = _echelon(f, rows, m.cols)
    assert sorted(echelon) == sorted(want) and mod == _modulus(f)
    assert _row_space(f, rows, m.cols) == (want, mod)


def dense_quotient_maps(field, basis):
    """The projection and section read off dense Gauss-Jordan on the columns of basis,
    reversed, or None when they are dependent."""
    d, r = basis.rows, basis.cols
    rows = [list(basis.col(j)[::-1]) for j in range(r)]
    pivots = _gauss_jordan(field, rows, d)
    if len(pivots) != r:
        return None
    free = [s for s in range(d) if d - 1 - s not in pivots]
    proj = [[field.one if t == s else field.zero for t in range(d)] for s in free]
    for row, c in zip(rows, pivots):
        for i, s in enumerate(free):
            proj[i][d - 1 - c] = field.neg(row[d - 1 - s])
    sect = [[field.one if i == s else field.zero for s in free] for i in range(d)]
    return (Mat(field, d - r, d, tuple(x for row in proj for x in row)),
            Mat(field, d, d - r, tuple(x for row in sect for x in row)))


@settings(derandomize=True, database=None, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(FIELDS).flatmap(lambda f: st.tuples(systems(f), st.data())))
def test_back_substituted_results_match_the_dense_loop(drawn):
    """rref, kernel_basis and solve on the larger systems, and quotient_maps on their
    column spaces and on their columns as they come, equal dense Gauss-Jordan."""
    m, data = drawn
    f = m.field
    rows = m.row_lists()
    pivots = _gauss_jordan(f, rows, m.cols)
    assert rref(m) == (Mat(f, m.rows, m.cols, tuple(x for r in rows for x in r)), len(pivots), tuple(pivots))
    assert kernel_basis(m) == dense_kernel(f, m)
    nb = data.draw(st.integers(0, 2))
    b = Mat.from_rows(f, [data.draw(st.lists(entries(f), min_size=nb, max_size=nb)) for _ in range(m.rows)])
    x = Mat.from_rows(f, [data.draw(st.lists(entries(f), min_size=nb, max_size=nb)) for _ in range(m.cols)])
    for rhs in (b, m.mul(x)) if m.rows else (b,):
        xs = solve(m, rhs)
        assert (None if xs is None else xs.entries) == dense_solve(m, rhs)
    for basis in (col_space(m.transpose()), m.transpose()):
        want = dense_quotient_maps(f, basis)
        if want is None:
            with pytest.raises(DimensionMismatch, match="dependent input columns"):
                quotient_maps(f, basis)
        else:
            assert quotient_maps(f, basis) == want
