"""Dense exact linear algebra over a field.

Everything is small and dense by design; matrices are immutable row-major
tuples and all elimination is plain Gauss-Jordan with exact scalars.

A scalar is tested for zero by its truth value (`if x:`, `any(row)`), never
by `x != field.zero`: both field types make zero the only false element,
and for `Fraction` the truth test skips the type dispatch of `__eq__`.
"""
from __future__ import annotations

from dataclasses import dataclass

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


def _eliminate(field, rows, ncols):
    """In-place Gauss-Jordan on a list of row lists; returns pivot columns."""
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


def rref(m: Mat):
    """Reduced row echelon form; returns (reduced, rank, pivot_columns)."""
    rows = m.row_lists()
    pivots = _eliminate(m.field, rows, m.cols)
    rank = len(pivots)
    # canonical RREF: pivot rows first, zero rows after
    ent = tuple(x for r in rows for x in r)
    return Mat(m.field, m.rows, m.cols, ent), rank, tuple(pivots)


def rank(m: Mat) -> int:
    rows = m.row_lists()
    return len(_eliminate(m.field, rows, m.cols))


def kernel_basis(m: Mat) -> Mat:
    """Columns form a basis of the right null space of m."""
    f = m.field
    reduced, rk, pivots = rref(m)
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    z, o = f.zero, f.one
    cols = []
    for fc in free:
        vec = [z] * m.cols
        vec[fc] = o
        for k, pc in enumerate(pivots):
            # pivot row k gives x[pc] = -reduced[k][fc]
            val = reduced.at(k, fc)
            if val:
                vec[pc] = f.neg(val)
        cols.append(vec)
    ent = tuple(cols[j][i] for i in range(m.cols) for j in range(len(cols)))
    return Mat(f, m.cols, len(cols), ent)


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
    _, _, pivots = rref(m)
    f = m.field
    ent = tuple(m.at(i, j) for i in range(m.rows) for j in pivots)
    return Mat(f, m.rows, len(pivots), ent)


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
