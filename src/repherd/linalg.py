"""Exact linear algebra over a field.

Matrices are immutable row-major tuples.  Over GF(p) elimination is plain
dense Gauss-Jordan on ints.  Over Q it runs fraction-free on sparse rows of
integers (`_fraction_free`), and a `Fraction` is made only when the reduced
row echelon form is read off at the end; since that form is unique, every
result is the one dense Gauss-Jordan over Q would give, entry by entry.
Commuting-square systems such as Hom spaces between modules are built sparse
from the start (`commuting_maps`).

A scalar is tested for zero by its truth value (`if x:`, `any(row)`), never
by `x != field.zero`: both field types make zero the only false element,
and for `Fraction` the truth test skips the type dispatch of `__eq__`.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import DimensionMismatch


@dataclass(frozen=True)
class Mat:
    field: object
    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise DimensionMismatch(
                "entry count %d does not match %dx%d" % (len(self.entries), self.rows, self.cols)
            )

    @staticmethod
    def from_rows(field, rows):
        rows = [list(r) for r in rows]
        nr = len(rows)
        nc = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != nc:
                raise DimensionMismatch("ragged rows")
        ent = tuple(field.coerce(x) for r in rows for x in r)
        return Mat(field, nr, nc, ent)

    @staticmethod
    def zeros(field, rows, cols):
        return Mat(field, rows, cols, (field.zero,) * (rows * cols))

    @staticmethod
    def identity(field, n):
        z, o = field.zero, field.one
        ent = [z] * (n * n)
        for i in range(n):
            ent[i * n + i] = o
        return Mat(field, n, n, tuple(ent))

    @staticmethod
    def column(field, vec):
        return Mat(field, len(vec), 1, tuple(vec))

    def at(self, i, j):
        return self.entries[i * self.cols + j]

    def row(self, i):
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j):
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def row_lists(self):
        return [list(self.row(i)) for i in range(self.rows)]

    def is_zero(self) -> bool:
        return not any(self.entries)

    def transpose(self) -> "Mat":
        ent = tuple(self.entries[i * self.cols + j] for j in range(self.cols) for i in range(self.rows))
        return Mat(self.field, self.cols, self.rows, ent)

    def add(self, other: "Mat") -> "Mat":
        self._same_shape(other)
        f = self.field
        return Mat(f, self.rows, self.cols, tuple(f.add(a, b) for a, b in zip(self.entries, other.entries)))

    def sub(self, other: "Mat") -> "Mat":
        self._same_shape(other)
        f = self.field
        return Mat(f, self.rows, self.cols, tuple(f.sub(a, b) for a, b in zip(self.entries, other.entries)))

    def neg(self) -> "Mat":
        f = self.field
        return Mat(f, self.rows, self.cols, tuple(f.neg(a) for a in self.entries))

    def scale(self, s) -> "Mat":
        f = self.field
        return Mat(f, self.rows, self.cols, tuple(f.mul(s, a) for a in self.entries))

    def mul(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise DimensionMismatch("cannot multiply %dx%d by %dx%d" % (self.rows, self.cols, other.rows, other.cols))
        f = self.field
        z = f.zero
        n, m, k = self.rows, other.cols, self.cols
        out = [z] * (n * m)
        oe = other.entries
        se = self.entries
        for i in range(n):
            base = i * k
            for t in range(k):
                a = se[base + t]
                if not a:
                    continue
                orow = t * m
                obase = i * m
                for j in range(m):
                    b = oe[orow + j]
                    if b:
                        out[obase + j] = f.add(out[obase + j], f.mul(a, b))
        return Mat(f, n, m, tuple(out))

    def apply(self, vec):
        """Multiply by a column vector given as a sequence; returns a tuple."""
        if self.cols != len(vec):
            raise DimensionMismatch("vector length mismatch")
        f = self.field
        z = f.zero
        out = []
        for i in range(self.rows):
            acc = z
            base = i * self.cols
            for j, v in enumerate(vec):
                if v:
                    e = self.entries[base + j]
                    if e:
                        acc = f.add(acc, f.mul(e, v))
            out.append(acc)
        return tuple(out)

    def eq(self, other: "Mat") -> bool:
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and all(a == b for a, b in zip(self.entries, other.entries))
        )

    def _same_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatch("shape mismatch")


def hstack(field, mats, rows=None):
    mats = list(mats)
    if not mats:
        if rows is None:
            raise DimensionMismatch("hstack of nothing needs a row count")
        return Mat.zeros(field, rows, 0)
    nr = mats[0].rows
    for m in mats:
        if m.rows != nr:
            raise DimensionMismatch("hstack row mismatch")
    out = []
    for i in range(nr):
        for m in mats:
            out.extend(m.row(i))
    return Mat(field, nr, sum(m.cols for m in mats), tuple(out))


def vstack(field, mats, cols=None):
    mats = list(mats)
    if not mats:
        if cols is None:
            raise DimensionMismatch("vstack of nothing needs a column count")
        return Mat.zeros(field, 0, cols)
    nc = mats[0].cols
    for m in mats:
        if m.cols != nc:
            raise DimensionMismatch("vstack column mismatch")
    ent = []
    for m in mats:
        ent.extend(m.entries)
    return Mat(field, sum(m.rows for m in mats), nc, tuple(ent))


def block_diag(field, mats):
    mats = list(mats)
    nr = sum(m.rows for m in mats)
    nc = sum(m.cols for m in mats)
    z = field.zero
    out = [z] * (nr * nc)
    r0 = c0 = 0
    for m in mats:
        for i in range(m.rows):
            base = (r0 + i) * nc + c0
            for j in range(m.cols):
                out[base + j] = m.entries[i * m.cols + j]
        r0 += m.rows
        c0 += m.cols
    return Mat(field, nr, nc, tuple(out))


def _gauss_jordan(field, rows, ncols):
    """In-place dense Gauss-Jordan on a list of row lists; returns pivot columns."""
    pivots = []
    r = 0
    nrows = len(rows)
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if rows[i][c]:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        if pv != field.one:
            inv = field.inv(pv)
            rr = rows[r]
            for j in range(c, ncols):
                if rr[j]:
                    rr[j] = field.mul(inv, rr[j])
        rr = rows[r]
        for i in range(nrows):
            if i != r:
                f0 = rows[i][c]
                if f0:
                    ri = rows[i]
                    for j in range(c, ncols):
                        if rr[j]:
                            ri[j] = field.sub(ri[j], field.mul(f0, rr[j]))
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def _scaled(xs, q=True):
    """The nonzeros of a sequence of field elements as (d, [(index, d * x)]).

    Over Q (q true) d is the lcm of their denominators, so every d * x is an
    int; over GF(p) the elements are ints already and d is 1.
    """
    nz = [(k, x) for k, x in enumerate(xs) if x]
    if not q:
        return 1, nz
    den = lcm(*[x.denominator for _, x in nz])
    if den == 1:
        return 1, [(k, x.numerator) for k, x in nz]
    return den, [(k, x.numerator * (den // x.denominator)) for k, x in nz]


def _int_rows(rows):
    """Dense rows of rationals as sparse integer rows {col: int}, each scaled by the lcm of its denominators."""
    return [dict(_scaled(r)[1]) for r in rows]


def _clear(row, p, prow):
    """Make row zero at column p with the row prow, whose entry at p is nonzero: row <- a*row - b*prow."""
    a, b = prow[p], row[p]
    g = gcd(a, b)
    a //= g
    b //= g
    if a != 1:
        for k in row:
            row[k] *= a
    for k, x in prow.items():
        v = row.get(k, 0) - b * x
        if v:
            row[k] = v
        else:
            del row[k]


def _primitive(row, p):
    """Divide row by its content, signed so that the entry at p is positive."""
    g = gcd(*row.values())
    if row[p] < 0:
        g = -g
    if g != 1:
        for k in row:
            row[k] //= g


def _fraction_free(rows):
    """Fraction-free Gauss-Jordan over Z on sparse rows {col: int}, which it consumes.

    Returns {pivot column: row}.  Each stored row is primitive with a
    positive entry at its pivot, its least column, and is zero at every other
    pivot; dividing each by its pivot entry gives the reduced row echelon
    form over Q.  Row operations multiply by integers only, and every row is
    divided by its content after each update, so no rational is ever formed.
    """
    piv = {}
    for row in rows:
        for p in [p for p in row if p in piv]:
            _clear(row, p, piv[p])
        if not row:
            continue
        p = min(row)
        _primitive(row, p)
        for q, other in piv.items():
            if p in other:
                _clear(other, p, row)
                _primitive(other, q)
        piv[p] = row
    return piv


def _eliminate(field, rows, ncols):
    """In-place Gauss-Jordan on a list of row lists; returns pivot columns.

    Over Q the rows are reduced by `_fraction_free` and rewritten as the
    reduced row echelon form, pivot rows first; over GF(p) by the dense loop.
    """
    if field.kind != "Q":
        return _gauss_jordan(field, rows, ncols)
    piv = _fraction_free(_int_rows(rows))
    pivots = sorted(piv)
    z = field.zero
    for k, p in enumerate(pivots):
        row, d = piv[p], piv[p][p]
        out = [z] * ncols
        for j, x in row.items():
            out[j] = Fraction(x, d)
        rows[k] = out
    for k in range(len(pivots), len(rows)):
        rows[k] = [z] * ncols
    return pivots


def rref(m: Mat):
    """Reduced row echelon form; returns (reduced, rank, pivot_columns)."""
    rows = m.row_lists()
    pivots = _eliminate(m.field, rows, m.cols)
    rank = len(pivots)
    # canonical RREF: pivot rows first, zero rows after
    ent = tuple(x for r in rows for x in r)
    return Mat(m.field, m.rows, m.cols, ent), rank, tuple(pivots)


def _pivots(m: Mat):
    """The pivot columns of the reduced row echelon form of m, in order."""
    if m.field.kind == "Q":
        return sorted(_fraction_free(_int_rows(m.row(i) for i in range(m.rows))))
    return _gauss_jordan(m.field, m.row_lists(), m.cols)


def rank(m: Mat) -> int:
    return len(_pivots(m))


def _null_space(field, rows, ncols):
    """A basis of the vectors x with row . x = 0 for each of the dense rows: one
    vector per free column of the reduced row echelon form, in column order."""
    if field.kind == "Q":
        return _q_null_space(_fraction_free(_int_rows(rows)), ncols)
    z, o = field.zero, field.one
    pivots = _gauss_jordan(field, rows, ncols)
    free = sorted(set(range(ncols)).difference(pivots))
    vecs = []
    for fc in free:
        vec = [z] * ncols
        vec[fc] = o
        for k, pc in enumerate(pivots):
            # pivot row k gives x[pc] = -reduced[k][fc]
            val = rows[k][fc]
            if val:
                vec[pc] = field.neg(val)
        vecs.append(vec)
    return vecs


def _q_null_space(piv, ncols):
    """The null space over Q of the rows {pivot: row} that `_fraction_free` returns, as `_null_space` gives it."""
    z, o = Fraction(0), Fraction(1)
    free = [c for c in range(ncols) if c not in piv]
    vecs = {}
    for fc in free:
        vec = vecs[fc] = [z] * ncols
        vec[fc] = o
    for p, row in piv.items():
        d = row[p]
        for c, x in row.items():
            if c != p:
                vecs[c][p] = Fraction(-x, d)
    return [vecs[fc] for fc in free]


def kernel_basis(m: Mat) -> Mat:
    """Columns form a basis of the right null space of m."""
    vecs = _null_space(m.field, m.row_lists(), m.cols)
    ent = tuple(v[i] for i in range(m.cols) for v in vecs)
    return Mat(m.field, m.cols, len(vecs), ent)


def commuting_maps(field, src_dims, dst_dims, squares):
    """A basis of the tuples (h_v) of dst_dims[v] x src_dims[v] matrices with
    h_j A = B h_i for each square (i, j, A, B).

    A is src_dims[j] x src_dims[i] and B is dst_dims[j] x dst_dims[i].  Each
    basis element is the h_v flattened row by row and joined in vertex order;
    the basis is the one `kernel_basis` gives on the system with one equation
    per square and entry (r, c), in that order.  Each equation is built from
    the nonzeros of column c of A and row r of B; over Q it is scaled to
    integers by the lcm of their denominators and goes to `_fraction_free`,
    over GF(p) it is made dense for the dense loop.
    """
    offset, total = [], 0
    for s, d in zip(src_dims, dst_dims):
        offset.append(total)
        total += s * d
    if not total:
        return []
    q = field.kind == "Q"
    rows = []
    for i, j, a, b in squares:
        si, sj, dj = src_dims[i], src_dims[j], dst_dims[j]
        if not (si and dj):
            continue
        ae = a.entries
        acols = [_scaled([ae[k * si + c] for k in range(sj)], q) for c in range(si)]
        brows = [_scaled(b.row(r), q) for r in range(dj)]
        for r, (bden, brow) in enumerate(brows):
            base = offset[j] + r * sj
            cells = [(offset[i] + l * si, x) for l, x in brow]  # h_i[l, 0] for each nonzero B[r, l]
            for c, (aden, acol) in enumerate(acols):
                den = lcm(aden, bden)
                fa, fb = den // aden, den // bden
                row = {base + k: x * fa for k, x in acol}
                for t, x in cells:
                    t += c
                    v = row.get(t, 0) - x * fb
                    if v:
                        row[t] = v
                    else:
                        del row[t]
                if row:
                    rows.append(row)
    if q:
        vecs = _q_null_space(_fraction_free(rows), total)
    else:
        dense = []
        for row in rows:
            out = [field.zero] * total
            for t, x in row.items():
                out[t] = field.from_int(x)
            dense.append(out)
        vecs = _null_space(field, dense, total)
    return [tuple(v) for v in vecs]


def solve(a: Mat, b: Mat):
    """Some x with a*x = b, or None if the system is inconsistent."""
    if a.rows != b.rows:
        raise DimensionMismatch("solve: row mismatch")
    f = a.field
    aug = hstack(f, [a, b])
    reduced, rk, pivots = rref(aug)
    for p in pivots:
        if p >= a.cols:
            return None
    z = f.zero
    out = [z] * (a.cols * b.cols)
    for k, pc in enumerate(pivots):
        for j in range(b.cols):
            out[pc * b.cols + j] = reduced.at(k, a.cols + j)
    return Mat(f, a.cols, b.cols, tuple(out))


solve_linear = solve


def col_space(m: Mat) -> Mat:
    """A basis of the column space, as the original pivot columns of m."""
    pivots = _pivots(m)
    ent = tuple(m.at(i, j) for i in range(m.rows) for j in pivots)
    return Mat(m.field, m.rows, len(pivots), ent)


def inverse(m: Mat) -> Mat:
    if m.rows != m.cols:
        raise DimensionMismatch("inverse of non-square matrix")
    x = solve(m, Mat.identity(m.field, m.rows))
    if x is None or not m.mul(x).eq(Mat.identity(m.field, m.rows)):
        raise DimensionMismatch("matrix is not invertible")
    return x


def is_invertible(m: Mat) -> bool:
    return m.rows == m.cols and rank(m) == m.rows


def extend_to_basis(field, basis: Mat) -> Mat:
    """Append standard basis vectors to the columns of `basis` to span k^n."""
    n = basis.rows
    tracker = SpanTracker(field, n)
    cols = [basis.col(j) for j in range(basis.cols)]
    for c in cols:
        if not tracker.add(c):
            raise DimensionMismatch("extend_to_basis: dependent input columns")
    extra = []
    z, o = field.zero, field.one
    for k in range(n):
        if tracker.dim == n:
            break
        vec = [z] * n
        vec[k] = o
        if tracker.add(vec):
            extra.append(tuple(vec))
    all_cols = cols + extra
    ent = tuple(all_cols[j][i] for i in range(n) for j in range(n))
    return Mat(field, n, n, ent)


def quotient_maps(field, basis: Mat):
    """Projection k^d -> k^d / span(basis) and a linear section of it.

    With t the extension of `basis` to a basis of k^d, the projection is the
    last d - r rows of t^{-1} and the section the last d - r columns of t.
    """
    d, r = basis.rows, basis.cols
    t = extend_to_basis(field, basis)
    tinv = inverse(t) if d else Mat.zeros(field, 0, 0)
    proj = Mat(field, d - r, d, tinv.entries[r * d :])
    sect = Mat(field, d, d - r, tuple(t.entries[i * d + r + j] for i in range(d) for j in range(d - r)))
    return proj, sect


class SpanTracker:
    """Incrementally maintained row space in reduced echelon form.

    With track=True every stored row also carries its expression over the
    vectors passed to add(), so membership queries can return coordinates.
    """

    def __init__(self, field, width, track=False):
        self.field = field
        self.width = width
        self.track = track
        self.rows = []      # reduced rows, each normalized with leading 1
        self.pivots = []    # pivot column per stored row
        self.combos = []    # expression of each row over added generators
        self.ngens = 0

    @property
    def dim(self):
        return len(self.rows)

    def _reduce(self, vec, combo):
        f = self.field
        v = list(vec)
        for k, p in enumerate(self.pivots):
            c = v[p]
            if c:
                row = self.rows[k]
                for j in range(p, self.width):
                    if row[j]:
                        v[j] = f.sub(v[j], f.mul(c, row[j]))
                if combo is not None:
                    rc = self.combos[k]
                    for g, coeff in enumerate(rc):
                        if coeff:
                            combo[g] = f.sub(combo[g], f.mul(c, coeff))
        return v

    def reduce(self, vec):
        """Canonical residue of vec modulo the current span."""
        return self._reduce(vec, None)

    def add(self, vec) -> bool:
        """Add a generator; returns True when it enlarged the span."""
        f = self.field
        z = f.zero
        combo = None
        if self.track:
            combo = [z] * self.ngens + [f.one]
            for c in self.combos:
                c.append(z)
            self.ngens += 1
        else:
            self.ngens += 1
        v = self._reduce(vec, combo)
        pivot = None
        for j in range(self.width):
            if v[j]:
                pivot = j
                break
        if pivot is None:
            return False
        lead = v[pivot]
        if lead != f.one:
            inv = f.inv(lead)
            v = [f.mul(inv, x) for x in v]
            if combo is not None:
                combo = [f.mul(inv, x) for x in combo]
        # back-eliminate the new pivot from existing rows
        for k, row in enumerate(self.rows):
            c = row[pivot]
            if c:
                for j in range(self.width):
                    if v[j]:
                        row[j] = f.sub(row[j], f.mul(c, v[j]))
                if self.track:
                    rc = self.combos[k]
                    for g in range(self.ngens):
                        if combo[g]:
                            rc[g] = f.sub(rc[g], f.mul(c, combo[g]))
        # insert keeping pivots sorted
        idx = 0
        while idx < len(self.pivots) and self.pivots[idx] < pivot:
            idx += 1
        self.rows.insert(idx, v)
        self.pivots.insert(idx, pivot)
        if self.track:
            self.combos.insert(idx, combo)
        return True

    def coords(self, vec):
        """Coordinates of vec over the added generators, or None if outside."""
        if not self.track:
            raise RuntimeError("tracker built without coordinate tracking")
        f = self.field
        z = f.zero
        combo = [z] * self.ngens
        v = self._reduce(vec, combo)
        if any(v):
            return None
        return [f.neg(c) for c in combo]

    def contains(self, vec) -> bool:
        return not any(self.reduce(vec))
