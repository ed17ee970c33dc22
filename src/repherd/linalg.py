"""Exact linear algebra over Q and GF(p).

A `Mat` holds its entries as a row-major tuple and is immutable by
convention: no code assigns to a matrix after it is made.  Every elimination
runs on one kernel, a row space kept as `{pivot: row}`: each row is a sparse
dict `{column: int}` whose least column is its pivot.  Over Q a row of
rationals is first scaled to integers by the lcm of its denominators; row
operations multiply by integers only, and a stored row is normalized to be
primitive with a positive pivot.  Entries are read back as x / pivot in the
field's form (`_read`): the int quotient when the pivot divides x, else a
`Fraction`.  Over GF(p) each row holds ints mod p and is normalized to be
monic at its pivot.  Only the two row operations, `_clear` and `_normalize`,
depend on the field.  `_scaled` reads a dense row in one pass: it takes an
lcm over the non-int entries only, and when every entry is an int (always
over GF(p), mostly over Q) the nonzeros go in as they are.

An elimination with its whole system up front runs in two phases.  Forward
elimination (`_forward`) clears each row at its least column while that
column is a pivot and stores it there, normalized; no stored row changes,
so the stored rows are an echelon form, zero left of their pivots but not
yet at the pivots right of them.  One back-substitution at the end
(`_back_substitute`) takes the pivots in descending order, clears each row
at the higher pivots it holds and normalizes each row it changed once; then
every stored row is zero at every other pivot.  `SpanTracker` alone keeps
its row space reduced at each insertion (`_insert`), because it answers
`reduce` and `coords` between insertions.

Over Q an entry is an int when integral and a `Fraction` with denominator > 1
otherwise (see `fields`).  Since `Fraction(n) == n` and the two hash and
print alike, a `Mat` built from `Fraction(n)` entries equals, and hashes as,
the one built from ints, and both format the same.

`rref`, `kernel_basis`, `solve`, `quotient_maps` and `commuting_maps` (the
Hom systems between modules) read their results off the reduced row space of
a matrix or a system.  The normalized reduced row echelon form is unique, so
every result is the one dense Gauss-Jordan gives, entry by entry; the tests
compare the two against the dense reference in tests/reference.py.  Each
elimination does only what its caller reads:

- `rank` and `col_space` need only the pivot columns, which every echelon
  form shares, so `_pivots` stops after the forward phase;
- `complement_places`, the places of the generators of every cover, is the
  complement of `_pivots` of the columns reversed;
- `kernel_basis` and `commuting_maps` back-substitute only when some column
  is free: with none the basis is empty, and `commuting_maps` returns as
  soon as every unknown is a pivot; `solve` returns None before it
  back-substitutes when a pivot lies among the columns of b, and
  `quotient_maps` refuses dependent columns before it does;
- `quotient_maps` reduces span(basis) with its columns reversed, so each
  pivot is the last nonzero place of a reduced basis vector; the section and
  the projection are read off those rows, with no inverse computed.

A scalar is tested for zero by its truth value (`if x:`, `any(row)`), never
by `x != field.zero`: both field types make zero the only false element,
and for a `Fraction` the truth test skips the type dispatch of `__eq__`.

A module that is zero at a vertex makes every block at that vertex empty, so
each function returns at once when the shapes alone fix its answer: a
product with no inner dimension or no entries is the zero matrix of its
shape; `transpose`, `add`, `sub`, `neg` and `scale` of an empty matrix are
empty; a stack or block sum drops its empty blocks; a matrix with no entries
has no pivots, the identity as kernel basis and every place as complement;
`quotient_maps` of no vectors is the identity twice.  `solve` with no
unknowns still reads b: it is consistent only when b is zero.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import DimensionMismatch


class Mat:
    """A rows x cols matrix over field, its entries a row-major tuple."""

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field, rows, cols, entries):
        if len(entries) != rows * cols:
            raise DimensionMismatch("entry count %d does not match %dx%d" % (len(entries), rows, cols))
        self.field = field
        self.rows = rows
        self.cols = cols
        self.entries = entries

    def _key(self):
        return (self.field, self.rows, self.cols, self.entries)

    def __eq__(self, other):
        if other.__class__ is not Mat:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "Mat(field=%r, rows=%d, cols=%d, entries=%r)" % self._key()

    @staticmethod
    def zeros(field, rows, cols):
        return Mat(field, rows, cols, (field.zero,) * (rows * cols))

    @staticmethod
    def identity(field, n):
        if not n:
            return Mat(field, 0, 0, ())
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

    def is_zero(self) -> bool:
        return not any(self.entries)

    def transpose(self) -> "Mat":
        if not self.entries:
            return Mat(self.field, self.cols, self.rows, ())
        ent = tuple(self.entries[i * self.cols + j] for j in range(self.cols) for i in range(self.rows))
        return Mat(self.field, self.cols, self.rows, ent)

    def add(self, other: "Mat") -> "Mat":
        self._same_shape(other)
        if not self.entries:
            return self
        f = self.field
        return Mat(f, self.rows, self.cols, tuple(f.add(a, b) for a, b in zip(self.entries, other.entries)))

    def sub(self, other: "Mat") -> "Mat":
        self._same_shape(other)
        if not self.entries:
            return self
        f = self.field
        return Mat(f, self.rows, self.cols, tuple(f.sub(a, b) for a, b in zip(self.entries, other.entries)))

    def neg(self) -> "Mat":
        if not self.entries:
            return self
        f = self.field
        return Mat(f, self.rows, self.cols, tuple(f.neg(a) for a in self.entries))

    def scale(self, s) -> "Mat":
        if not self.entries:
            return self
        f = self.field
        return Mat(f, self.rows, self.cols, tuple(f.mul(s, a) for a in self.entries))

    def mul(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise DimensionMismatch("cannot multiply %dx%d by %dx%d" % (self.rows, self.cols, other.rows, other.cols))
        f = self.field
        z = f.zero
        n, m, k = self.rows, other.cols, self.cols
        out = [z] * (n * m)
        if not (out and k):
            return Mat(f, n, m, tuple(out))
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
    mats = [m for m in mats if m.cols]
    nc = sum(m.cols for m in mats)
    if not (nr and nc):
        return Mat(field, nr, nc, ())
    if len(mats) == 1:
        return mats[0]
    out = []
    for i in range(nr):
        for m in mats:
            out.extend(m.row(i))
    return Mat(field, nr, nc, tuple(out))


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
    mats = [m for m in mats if m.rows]
    nr = sum(m.rows for m in mats)
    if not (nr and nc):
        return Mat(field, nr, nc, ())
    if len(mats) == 1:
        return mats[0]
    ent = []
    for m in mats:
        ent.extend(m.entries)
    return Mat(field, nr, nc, tuple(ent))


def block_diag(field, mats):
    mats = list(mats)
    nr = sum(m.rows for m in mats)
    nc = sum(m.cols for m in mats)
    if not (nr and nc):
        return Mat(field, nr, nc, ())
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


# -- the elimination kernel ---------------------------------------------------
#
# `mod` is None over Q and p over GF(p); it is all the kernel knows of the field.


def _modulus(field):
    return None if field.kind == "Q" else field.p


def _scaled(xs, mod):
    """The nonzeros of a sequence of field elements as (d, [(index, d * x)]).

    Over Q d is the lcm of their denominators, so every d * x is an int; over
    GF(p) the elements are ints already and d is 1.  One pass over xs collects
    the nonzeros and takes the lcm over the non-int ones only; when there are
    none, the list is returned as collected.
    """
    if mod:
        return 1, [(k, x) for k, x in enumerate(xs) if x]
    nz, den, ints = [], 1, True
    for k, x in enumerate(xs):
        if x:
            nz.append((k, x))
            if x.__class__ is not int:
                ints = False
                den = lcm(den, x.denominator)
    if ints:
        return 1, nz
    return den, [(k, x.numerator * (den // x.denominator)) for k, x in nz]


def _read(x, d, mod):
    """The field element x / d of an entry x of a row scaled by d: over Q an
    int when d divides x, else a Fraction."""
    if mod:
        return x % mod
    q, r = divmod(x, d)
    return Fraction(x, d) if r else q


def _clear(row, c, prow, mod):
    """Make row zero at column c with the row prow, normalized at c: over Q
    row <- a*row - b*prow with a, b coprime, over GF(p) row <- row - b*prow mod p."""
    b = row[c]
    if not mod:
        g = gcd(prow[c], b)
        a, b = prow[c] // g, b // g
        if a != 1:
            for k in row:
                row[k] *= a
    for k, x in prow.items():
        v = row.get(k, 0) - b * x
        if mod:
            v %= mod
        if v:
            row[k] = v
        else:
            del row[k]


def _normalize(row, p, mod):
    """Over Q divide row by its content, signed so that the entry at p is
    positive; over GF(p) make the entry at p 1."""
    if mod:
        x = row[p]
        if x != 1:
            inv = pow(x, -1, mod)
            for k in row:
                row[k] = row[k] * inv % mod
        return
    g = gcd(*row.values())
    if row[p] < 0:
        g = -g
    if g != 1:
        for k in row:
            row[k] //= g


def _reduce(piv, row, mod):
    """Clear every pivot column of the reduced row space piv from row, in place."""
    for c in [c for c in row if c in piv]:
        _clear(row, c, piv[c], mod)


def _insert(piv, row, width, mod):
    """Add row, which it consumes, to the reduced row space piv, keeping it
    reduced; returns whether it enlarged it.  Only columns below width can be
    pivots.  Only `SpanTracker`, which answers queries between insertions,
    pays for keeping every stored row zero at each new pivot."""
    _reduce(piv, row, mod)
    if not row:
        return False
    p = min(row)
    if p >= width:
        return False
    _normalize(row, p, mod)
    for q, other in piv.items():
        if p in other:
            _clear(other, p, row, mod)
            _normalize(other, q, mod)
    piv[p] = row
    return True


def _forward(piv, row, mod):
    """Add row, which it consumes, to the echelon form piv by forward
    elimination; returns whether it enlarged it.

    The row is cleared at its least column while that column is a pivot; a
    row left with a new least column is normalized and stored under it, and
    no stored row changes.  Each stored row is then zero left of its pivot,
    but not yet at the pivots right of it.
    """
    while row:
        p = min(row)
        prow = piv.get(p)
        if prow is None:
            _normalize(row, p, mod)
            piv[p] = row
            return True
        _clear(row, p, prow, mod)
    return False


def _back_substitute(piv, mod):
    """Turn the echelon form piv into the reduced one, in place.

    The pivots are taken in descending order, so the rows at the higher
    pivots a row holds are reduced already: clearing it there brings in no
    other pivot column, and each row that changed is normalized once.
    """
    for p in sorted(piv, reverse=True):
        row = piv[p]
        held = [c for c in row if c != p and c in piv]
        if held:
            for c in held:
                _clear(row, c, piv[c], mod)
            _normalize(row, p, mod)


def _echelon(field, rows, width):
    """An echelon form {pivot: row} of dense rows of width field elements, by
    forward elimination, and the modulus."""
    mod = _modulus(field)
    piv = {}
    for r in rows:
        _forward(piv, dict(_scaled(r, mod)[1]), mod)
        if len(piv) == width:
            break
    return piv, mod


def _row_space(field, rows, width):
    """The reduced row space {pivot: row} of dense rows of width field
    elements, and the modulus: forward elimination, then one back-substitution."""
    piv, mod = _echelon(field, rows, width)
    _back_substitute(piv, mod)
    return piv, mod


def _rows(m: Mat):
    return (m.row(i) for i in range(m.rows))


def _null_space(field, piv, mod, ncols):
    """A basis of the vectors x with row . x = 0 for each row of the echelon
    form piv: one vector per free column of the reduced row echelon form, in
    column order.  piv is back-substituted in place, unless no column is free."""
    if len(piv) == ncols:
        return []
    _back_substitute(piv, mod)
    z, o = field.zero, field.one
    vecs = {}
    for fc in range(ncols):
        if fc not in piv:
            vec = vecs[fc] = [z] * ncols
            vec[fc] = o
    for p, row in piv.items():
        d = row[p]
        for c, x in row.items():
            if c != p:
                vecs[c][p] = _read(-x, d, mod)
    return list(vecs.values())


# -- matrix functions -----------------------------------------------------------


def rref(m: Mat):
    """Reduced row echelon form; returns (reduced, rank, pivot_columns)."""
    piv, mod = _row_space(m.field, _rows(m), m.cols)
    pivots = sorted(piv)
    ent = [m.field.zero] * (m.rows * m.cols)
    for k, p in enumerate(pivots):
        row, base = piv[p], k * m.cols
        d = row[p]
        for j, x in row.items():
            ent[base + j] = _read(x, d, mod)
    return Mat(m.field, m.rows, m.cols, tuple(ent)), len(pivots), tuple(pivots)


def _pivots(m: Mat):
    """The pivot columns of m, in order, by forward elimination only: every
    echelon form has the pivot columns of the reduced one."""
    if not m.entries:
        return []
    return sorted(_echelon(m.field, _rows(m), m.cols)[0])


def rank(m: Mat) -> int:
    return len(_pivots(m))


def kernel_basis(m: Mat) -> Mat:
    """Columns form a basis of the right null space of m."""
    if not m.entries:
        return Mat.identity(m.field, m.cols)
    vecs = _null_space(m.field, *_echelon(m.field, _rows(m), m.cols), m.cols)
    ent = tuple(v[i] for i in range(m.cols) for v in vecs)
    return Mat(m.field, m.cols, len(vecs), ent)


def commuting_maps(field, src_dims, dst_dims, squares):
    """A basis of the tuples (h_v) of dst_dims[v] x src_dims[v] matrices with
    h_j A = B h_i for each square (i, j, A, B).

    A is src_dims[j] x src_dims[i] and B is dst_dims[j] x dst_dims[i].  Each
    basis element is the h_v flattened row by row and joined in vertex order;
    the basis is the one `kernel_basis` gives on the system with one equation
    per square and entry (r, c), in that order.  Each equation is built as a
    sparse integer row from the nonzeros of column c of A and row r of B,
    scaled by the lcm of their denominators over Q and reduced mod p over
    GF(p), and goes straight into forward elimination; the echelon form is
    back-substituted once, at the end, and not at all when every unknown is
    a pivot and the basis is empty.
    """
    offset, total = [], 0
    for s, d in zip(src_dims, dst_dims):
        offset.append(total)
        total += s * d
    if not total:
        return []
    mod = _modulus(field)
    piv = {}
    for i, j, a, b in squares:
        si, sj, dj = src_dims[i], src_dims[j], dst_dims[j]
        if not (si and dj):
            continue
        ae = a.entries
        acols = [_scaled([ae[k * si + c] for k in range(sj)], mod) for c in range(si)]
        brows = [_scaled(b.row(r), mod) for r in range(dj)]
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
                    if mod:
                        v %= mod
                    if v:
                        row[t] = v
                    else:
                        del row[t]
                if _forward(piv, row, mod) and len(piv) == total:
                    return []
    return [tuple(v) for v in _null_space(field, piv, mod, total)]


def solve(a: Mat, b: Mat):
    """Some x with a*x = b, or None if the system is inconsistent.

    x is read off the pivot rows of [a | b]: a pivot among the columns of b
    means no solution.
    """
    if a.rows != b.rows:
        raise DimensionMismatch("solve: row mismatch")
    n, nb = a.cols, b.cols
    if not n:
        return None if any(b.entries) else Mat(a.field, 0, nb, ())
    if not (a.rows and nb):
        return Mat.zeros(a.field, n, nb)
    piv, mod = _echelon(a.field, (a.row(i) + b.row(i) for i in range(a.rows)), n + nb)
    if any(p >= n for p in piv):
        return None
    _back_substitute(piv, mod)
    out = [a.field.zero] * (n * nb)
    for p, row in piv.items():
        d = row[p]
        for c, x in row.items():
            if c >= n:
                out[p * nb + c - n] = _read(x, d, mod)
    return Mat(a.field, n, nb, tuple(out))


solve_linear = solve


def col_space(m: Mat) -> Mat:
    """A basis of the column space, as the original pivot columns of m."""
    pivots = _pivots(m)
    ent = tuple(m.at(i, j) for i in range(m.rows) for j in pivots)
    return Mat(m.field, m.rows, len(pivots), ent)


def complement_places(cols: Mat):
    """The places s, in order, that are not the last nonzero place of any vector in the span
    of the columns of cols; the e_s at these places span a complement of that span.

    The last nonzero places are the pivots of the columns reversed, which `_pivots` finds by
    forward elimination, so the columns need only span: they may repeat or depend.
    """
    d = cols.rows
    if not cols.entries:
        return list(range(d))
    rev = Mat(cols.field, cols.cols, d, tuple(x for j in range(cols.cols) for x in cols.col(j)[::-1]))
    last = {d - 1 - c for c in _pivots(rev)}
    return [s for s in range(d) if s not in last]


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

    span(basis) is reduced with its columns reversed, so that each pivot p is
    the last nonzero place of the reduced basis vector u_p, which is 1 at p
    and 0 at every other pivot.  The section is the standard vectors e_s at
    the other places s, in order, and the projection's row for s is
    e_s - sum_p u_p[s] e_p: the last d - r rows of t^{-1}, where t extends
    `basis` by those e_s to a basis of k^d (`extend_to_basis`), with no
    inverse computed.  As `inverse` checks its result, proj [basis | sect]
    is checked to be [0 | I].
    """
    d, r = basis.rows, basis.cols
    if not r:
        return Mat.identity(field, d), Mat.identity(field, d)
    piv, mod = _echelon(field, (basis.col(j)[::-1] for j in range(r)), d)
    if len(piv) != r:
        raise DimensionMismatch("quotient_maps: dependent input columns")
    _back_substitute(piv, mod)
    free = [s for s in range(d) if d - 1 - s not in piv]
    pos = {s: i for i, s in enumerate(free)}
    z, o = field.zero, field.one
    ent = [z] * ((d - r) * d)
    for s, i in pos.items():
        ent[i * d + s] = o
    for c, row in piv.items():
        p, x0 = d - 1 - c, row[c]
        for c2, x in row.items():
            if c2 != c:
                ent[pos[d - 1 - c2] * d + p] = _read(-x, x0, mod)
    proj = Mat(field, d - r, d, tuple(ent))
    sect = Mat(field, d, d - r, tuple(o if i == s else z for i in range(d) for s in free))
    want = hstack(field, [Mat.zeros(field, d - r, r), Mat.identity(field, d - r)], rows=d - r)
    if not proj.mul(hstack(field, [basis, sect], rows=d)).eq(want):
        raise DimensionMismatch("quotient_maps: the projection does not split off span(basis)")
    return proj, sect


class SpanTracker:
    """A row space grown one generator at a time, kept as the kernel's
    reduced rows {pivot: row}.

    With track=True generator k also writes its scale into column width + k,
    so every stored row carries its expression over the generators.  A query
    row writes its own scale into the next free column; once reduced, its
    columns below width are its residue and the others give its coordinates.
    """

    def __init__(self, field, width, track=False):
        self.field = field
        self.width = width
        self.track = track
        self.ngens = 0
        self._mod = _modulus(field)
        self._piv = {}

    @property
    def dim(self):
        return len(self._piv)

    def _row(self, vec, tag):
        d, nz = _scaled(vec, self._mod)
        row = dict(nz)
        row[tag] = d
        return row

    def _query(self, vec):
        """The reduced row of vec, and its scale."""
        tag = self.width + self.ngens
        row = self._row(vec, tag)
        _reduce(self._piv, row, self._mod)
        return row, row.pop(tag)

    def reduce(self, vec):
        """Canonical residue of vec modulo the current span."""
        row, s = self._query(vec)
        out = [self.field.zero] * self.width
        for c, x in row.items():
            if c < self.width:
                out[c] = _read(x, s, self._mod)
        return out

    def add(self, vec) -> bool:
        """Add a generator; returns True when it enlarged the span."""
        if self.track:
            row = self._row(vec, self.width + self.ngens)
        else:
            row = dict(_scaled(vec, self._mod)[1])
        self.ngens += 1
        return _insert(self._piv, row, self.width, self._mod)

    def coords(self, vec):
        """Coordinates of vec over the added generators, or None if outside."""
        if not self.track:
            raise RuntimeError("tracker built without coordinate tracking")
        row, s = self._query(vec)
        if row and min(row) < self.width:
            return None
        out = [self.field.zero] * self.ngens
        for c, x in row.items():
            out[c - self.width] = _read(-x, s, self._mod)
        return out

    def contains(self, vec) -> bool:
        row, _ = self._query(vec)
        return not row or min(row) >= self.width
