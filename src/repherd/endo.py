"""Finite-dimensional algebras by structure constants.

Endomorphism algebras, trace-form radicals, primitive idempotent lifting,
and global dimension of the algebra computed from projective resolutions
of the simple right modules.  The gl.dim oracle builds End(A + DA) from its
Hom blocks, which carry their radical and idempotents, and certifies both.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .dims import DimValue
from .errors import FieldTooSmall, NonSplit, VerificationFailed
from .fields import PrimeField, Rationals
from .linalg import Mat, SpanTracker, block_diag, col_space, hstack, kernel_basis, quotient_maps, rank, solve


# -- polynomials (coefficient lists, ascending degree) ------------------------


def _p_trim(f, p):
    while p and not p[-1]:
        p.pop()
    return p


def _p_add(f, a, b):
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else f.zero
        y = b[i] if i < len(b) else f.zero
        out.append(f.add(x, y))
    return _p_trim(f, out)


def _p_scale(f, s, a):
    return _p_trim(f, [f.mul(s, x) for x in a])


def _p_mul(f, a, b):
    if not a or not b:
        return []
    out = [f.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            if y:
                out[i + j] = f.add(out[i + j], f.mul(x, y))
    return _p_trim(f, out)


def _p_divmod(f, a, b):
    a = list(a)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    inv_lead = f.inv(b[-1])
    q = [f.zero] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b) and a:
        s = f.mul(a[-1], inv_lead)
        d = len(a) - len(b)
        q[d] = s
        for i, y in enumerate(b):
            a[d + i] = f.sub(a[d + i], f.mul(s, y))
        _p_trim(f, a)
    return _p_trim(f, q), a


def _p_xgcd(f, a, b):
    """Returns (g, u, v) with u*a + v*b = g, g monic."""
    r0, r1 = list(a), list(b)
    u0, u1 = [f.one], []
    v0, v1 = [], [f.one]
    while r1:
        q, r = _p_divmod(f, r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, _p_add(f, u0, _p_scale(f, f.neg(f.one), _p_mul(f, q, u1)))
        v0, v1 = v1, _p_add(f, v0, _p_scale(f, f.neg(f.one), _p_mul(f, q, v1)))
    if r0:
        lead = r0[-1]
        inv = f.inv(lead)
        r0 = _p_scale(f, inv, r0)
        u0 = _p_scale(f, inv, u0)
        v0 = _p_scale(f, inv, v0)
    return r0, u0, v0


def _p_eval_matvec(f, poly, L: Mat, v):
    """poly(L) applied to the vector v, by Horner."""
    out = (f.zero,) * len(v)
    for c in reversed(poly):
        out = L.apply(out)
        if c:
            out = tuple(f.add(x, f.mul(c, y)) for x, y in zip(out, v))
    return out


def min_poly_of_matrix(L: Mat):
    """Monic minimal polynomial of a square matrix."""
    f = L.field
    n = L.rows
    mu = [f.one]
    for s in range(n):
        if len(mu) - 1 == n:
            break
        v = tuple(f.one if i == s else f.zero for i in range(n))
        w = _p_eval_matvec(f, mu, L, v)
        if not any(w):
            continue
        tracker = SpanTracker(f, n, track=True)
        vecs = [w]
        tracker.add(w)
        cur = w
        while True:
            cur = L.apply(cur)
            coords = tracker.coords(cur)
            if coords is not None:
                ann = [f.neg(c) for c in coords] + [f.one]
                break
            tracker.add(cur)
            vecs.append(cur)
        mu = _p_mul(f, mu, ann)
    return mu


def _int_divisors(n: int, cap=10**6):
    n = abs(n)
    if n == 0:
        return [1]
    factors = {}
    d = 2
    m = n
    while d * d <= m and d <= cap:
        while m % d == 0:
            factors[d] = factors.get(d, 0) + 1
            m //= d
        d += 1 if d == 2 else 2
    if m > 1:
        if m > cap * cap:
            raise RuntimeError("integer too large to factor for root search: %d" % n)
        factors[m] = factors.get(m, 0) + 1
    divs = [1]
    for p, e in factors.items():
        divs = [d0 * p**k for d0 in divs for k in range(e + 1)]
    return sorted(divs)


def rational_roots(field, poly):
    """All roots of poly in the field, as sorted (root, multiplicity) pairs.

    Over Q this is exhaustive by the rational root theorem; over GF(p) by
    scanning the field (p must be modest).
    """
    f = field
    poly = _p_trim(f, list(poly))
    if len(poly) <= 1:
        return []
    roots = []
    # strip zero roots
    k = 0
    while not poly[0]:
        poly = poly[1:]
        k += 1
    if k:
        roots.append((f.zero, k))
    if len(poly) <= 1:
        return sorted(roots)
    candidates = []
    if isinstance(f, Rationals):
        den_lcm = 1
        for c in poly:
            den_lcm = den_lcm * c.denominator // _gcd(den_lcm, c.denominator)
        ip = [int(c * den_lcm) for c in poly]
        a0, an = ip[0], ip[-1]
        for pnum in _int_divisors(a0):
            for qden in _int_divisors(an):
                candidates.append(Fraction(pnum, qden))
                candidates.append(Fraction(-pnum, qden))
    elif isinstance(f, PrimeField):
        if f.p > 65536:
            raise RuntimeError("root scan only supported for small prime fields")
        candidates = list(range(f.p))
    else:
        raise RuntimeError("unknown field")
    seen = set()
    for lam in candidates:
        if lam in seen:
            continue
        seen.add(lam)
        if not _p_eval_scalar(f, poly, lam):
            mult = 0
            cur = poly
            while True:
                q, r = _p_divmod(f, cur, [f.neg(lam), f.one])
                if r:
                    break
                mult += 1
                cur = q
                if not cur or _p_eval_scalar(f, cur, lam):
                    break
            roots.append((lam, mult))
    return sorted(roots)


def _p_eval_scalar(f, poly, x):
    acc = f.zero
    for c in reversed(poly):
        acc = f.add(f.mul(acc, x), c)
    return acc


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


# -- abstract algebras --------------------------------------------------------


@dataclass(frozen=True)
class AbstractAlgebra:
    """A unital associative algebra given by structure constants.

    table[i][j] holds the coordinates of b_i * b_j over the basis; labels,
    when present, tie basis elements back to module endomorphisms.  radical
    and idempotents, when present, are a claimed basis of the Jacobson
    radical and a claimed complete set of primitive orthogonal idempotents;
    global_dimension certifies them before it uses them.
    """

    field: object
    dim: int
    table: tuple
    unit: tuple
    labels: tuple = None
    radical: tuple = None
    idempotents: tuple = None

    def __post_init__(self):
        # the nonzero structure constants (t, c) of each product b_i * b_j
        terms = tuple(tuple(tuple((t, c) for t, c in enumerate(e) if c) for e in row) for row in self.table)
        object.__setattr__(self, "_terms", terms)
        object.__setattr__(self, "_units", tuple(_unit_vec(self.field, self.dim, j) for j in range(self.dim)))

    def mult(self, x, y):
        f = self.field
        z = f.zero
        out = [z] * self.dim
        ys = [(j, yj) for j, yj in enumerate(y) if yj]
        for i, xi in enumerate(x):
            if not xi:
                continue
            ti = self._terms[i]
            for j, yj in ys:
                if ti[j]:
                    s = f.mul(xi, yj)
                    for t, c in ti[j]:
                        out[t] = f.add(out[t], f.mul(s, c))
        return tuple(out)

    def lmat(self, x) -> Mat:
        cols = [self.mult(x, u) for u in self._units]
        ent = tuple(cols[j][i] for i in range(self.dim) for j in range(self.dim))
        return Mat(self.field, self.dim, self.dim, ent)

    def rmat(self, x) -> Mat:
        cols = [self.mult(u, x) for u in self._units]
        ent = tuple(cols[j][i] for i in range(self.dim) for j in range(self.dim))
        return Mat(self.field, self.dim, self.dim, ent)


def _unit_vec(f, n, j):
    return tuple(f.one if i == j else f.zero for i in range(n))


def make_algebra(field, table, unit, labels=None, radical=None, idempotents=None) -> AbstractAlgebra:
    n = len(table)
    g = AbstractAlgebra(field, n, tuple(tuple(tuple(r) for r in row) for row in table), tuple(unit), labels,
                        radical, idempotents)
    _validate_algebra(g)
    return g


def _validate_algebra(g: AbstractAlgebra):
    n = g.dim
    for j in range(n):
        ej = g._units[j]
        if g.mult(g.unit, ej) != ej or g.mult(ej, g.unit) != ej:
            raise VerificationFailed("unit law fails at basis element %d" % j)
    triples = []
    if n <= 14:
        triples = [(i, j, k) for i in range(n) for j in range(n) for k in range(n)]
    else:
        head = range(min(n, 6))
        triples = [(i, j, k) for i in head for j in head for k in head]
        rng = random.Random("assoc:%d" % n)
        for _ in range(300):
            triples.append((rng.randrange(n), rng.randrange(n), rng.randrange(n)))
    for (i, j, k) in triples:
        ei, ej, ek = (g._units[t] for t in (i, j, k))
        left = g.mult(g.table[i][j], ek)
        right = g.mult(ei, g.table[j][k])
        if left != right:
            raise VerificationFailed("associativity fails on basis triple (%d,%d,%d)" % (i, j, k))


def endomorphism_algebra(m) -> AbstractAlgebra:
    """End(m) with basis hom_basis(m, m); product is composition."""
    from .modules import compose, hom_basis, identity_morphism, morphism_flat

    if m.is_zero():
        raise VerificationFailed("endomorphism algebra of the zero module")
    basis = hom_basis(m, m)
    f = m.algebra.field
    width = len(morphism_flat(basis[0]))
    tracker = SpanTracker(f, width, track=True)
    for b in basis:
        if not tracker.add(morphism_flat(b)):
            raise VerificationFailed("hom basis is not independent")
    unit = tracker.coords(morphism_flat(identity_morphism(m)))
    if unit is None:
        raise VerificationFailed("identity not in endomorphism space")
    n = len(basis)
    table = []
    for i in range(n):
        row = []
        for j in range(n):
            coords = tracker.coords(morphism_flat(compose(basis[i], basis[j])))
            if coords is None:
                raise VerificationFailed("composition left the endomorphism space")
            row.append(tuple(coords))
        table.append(tuple(row))
    return make_algebra(f, table, unit, labels=tuple(basis))


# -- radical ------------------------------------------------------------------


def algebra_radical(g: AbstractAlgebra):
    """Basis of the Jacobson radical via the trace form of left multiplications."""
    f = g.field
    if isinstance(f, PrimeField) and f.p <= g.dim:
        raise FieldTooSmall("trace-form radical needs p > dim, got p=%d dim=%d" % (f.p, g.dim))
    n = g.dim
    lmats = [g.lmat(u) for u in g._units]
    ent = []
    for i in range(n):
        Li = lmats[i]
        for j in range(n):
            Lj = lmats[j]
            acc = f.zero
            for s in range(n):
                for t in range(n):
                    a = Li.at(s, t)
                    if a:
                        b = Lj.at(t, s)
                        if b:
                            acc = f.add(acc, f.mul(a, b))
            ent.append(acc)
    gram = Mat(f, n, n, tuple(ent))
    ker = kernel_basis(gram)
    basis = [ker.col(j) for j in range(ker.cols)]
    _assert_nilpotent(g, basis)
    return basis


def _assert_nilpotent(g, basis):
    if not basis:
        return
    f = g.field
    cur = list(basis)
    for _ in range(g.dim + 1):
        tracker = SpanTracker(f, g.dim)
        nxt = []
        for x in cur:
            for r in basis:
                y = g.mult(x, r)
                if tracker.add(y):
                    nxt.append(y)
        if not nxt:
            return
        cur = nxt
    raise VerificationFailed("radical candidate is not nilpotent")


# -- primitive idempotents ----------------------------------------------------


def primitive_idempotents(g: AbstractAlgebra, rad=None):
    """Complete orthogonal primitive idempotents, lifted from g/rad.

    rad is a basis of the radical of g; the trace form finds it when none is given.
    """
    if rad is None:
        rad = algebra_radical(g)
    out = []
    _split_idempotent(g, rad, g.unit, out)
    _assert_complete_orthogonal(g, out)
    return out


def _assert_complete_orthogonal(g, idems):
    f = g.field
    total = [f.zero] * g.dim
    for e in idems:
        for i, c in enumerate(e):
            total[i] = f.add(total[i], c)
    if tuple(total) != g.unit:
        raise VerificationFailed("idempotents do not sum to the unit")
    zero = (f.zero,) * g.dim
    for i, e1 in enumerate(idems):
        for j, e2 in enumerate(idems):
            if g.mult(e1, e2) != (e1 if i == j else zero):
                raise VerificationFailed("idempotents are not orthogonal")


def certify_structure(g: AbstractAlgebra):
    """Prove that g.radical is the Jacobson radical of g and that g.idempotents
    are complete orthogonal primitive idempotents with g/rad = k x ... x k.

    A nilpotent two-sided ideal lies in the radical.  Orthogonal idempotents
    outside the ideal that sum to 1 stay independent modulo it; when there
    are as many of them as the ideal's codimension, the quotient is a product
    of copies of k, which is semisimple, so the ideal is the whole radical.
    Raises VerificationFailed when any step fails.
    """
    f = g.field
    rad, idems = g.radical, g.idempotents
    if rad is None or idems is None:
        raise VerificationFailed("the algebra carries no radical and idempotents to certify")
    # the functionals that vanish on the claimed radical cut it out exactly
    ann = kernel_basis(Mat.from_rows(f, rad)) if rad else Mat.identity(f, g.dim)
    if ann.cols != g.dim - len(rad):
        raise VerificationFailed("claimed radical basis is not independent")
    if ann.cols != len(idems):
        raise VerificationFailed(
            "claimed radical has codimension %d, but there are %d idempotents" % (ann.cols, len(idems))
        )
    funcs = [[(i, c) for i, c in enumerate(ann.col(j)) if c] for j in range(ann.cols)]

    def in_rad(x):
        for w in funcs:
            acc = f.zero
            for i, c in w:
                if x[i]:
                    acc = f.add(acc, f.mul(c, x[i]))
            if acc:
                return False
        return True

    for r in rad:
        for u in g._units:
            if not in_rad(g.mult(u, r)) or not in_rad(g.mult(r, u)):
                raise VerificationFailed("claimed radical is not a two-sided ideal")
    _assert_nilpotent(g, rad)
    if any(in_rad(e) for e in idems):
        raise VerificationFailed("an idempotent lies in the claimed radical")
    _assert_complete_orthogonal(g, idems)


def _corner_basis(g, e):
    f = g.field
    cb = []
    tracker = SpanTracker(f, g.dim)
    for t in range(g.dim):
        v = g.mult(g.mult(e, g._units[t]), e)
        if tracker.add(v):
            cb.append(v)
    return cb


def _split_idempotent(g, rad, e, out):
    f = g.field
    cb = _corner_basis(g, e)
    rad_tracker = SpanTracker(f, g.dim)
    for r in rad:
        rr = g.mult(g.mult(e, r), e)
        rad_tracker.add(rr)
    if len(cb) - rad_tracker.dim == 1:
        out.append(e)
        return
    e1 = _find_corner_splitter(g, e, cb, rad_tracker)
    e2 = tuple(f.sub(a, b) for a, b in zip(e, e1))
    for x in (e1, e2):
        if g.mult(x, x) != x:
            raise VerificationFailed("splitter is not idempotent")
    if any(g.mult(e1, e2)):
        raise VerificationFailed("splitter pieces are not orthogonal")
    _split_idempotent(g, rad, e1, out)
    _split_idempotent(g, rad, e2, out)


def _corner_coords_tracker(g, cb):
    f = g.field
    tracker = SpanTracker(f, g.dim, track=True)
    for v in cb:
        tracker.add(v)
    return tracker


def _corner_lmat(g, cb, ctr, c):
    f = g.field
    cols = []
    for b in cb:
        coords = ctr.coords(g.mult(c, b))
        if coords is None:
            raise VerificationFailed("corner is not multiplicatively closed")
        cols.append(coords)
    k = len(cb)
    ent = tuple(cols[j][i] for i in range(k) for j in range(k))
    return Mat(f, k, k, ent)


def _corner_horner(g, poly, c, e):
    f = g.field
    acc = tuple(f.zero for _ in range(g.dim))
    for coeff in reversed(poly):
        acc = g.mult(acc, c)
        if coeff:
            acc = tuple(f.add(x, f.mul(coeff, y)) for x, y in zip(acc, e))
    return acc


def _find_corner_splitter(g, e, cb, rad_tracker):
    f = g.field
    ctr = _corner_coords_tracker(g, cb)
    zero = tuple(f.zero for _ in range(g.dim))

    # quotient S = corner / corner-radical, with representatives
    sreps = []
    squot = SpanTracker(f, g.dim, track=True)
    for v in cb:
        res = rad_tracker.reduce(v)
        if any(res) and squot.coords(res) is None:
            squot.add(res)
            sreps.append(v)

    def s_coords(x):
        return squot.coords(rad_tracker.reduce(x))

    # 1) split via the center of S when it is more than scalars
    k = len(cb)
    width = g.dim * len(cb)
    rows = []
    for t in range(k):
        row_blocks = []
        for s in cb:
            comm = tuple(f.sub(a, b) for a, b in zip(g.mult(cb[t], s), g.mult(s, cb[t])))
            row_blocks.append(rad_tracker.reduce(comm))
        rows.append([x for blk in row_blocks for x in blk])
    # unknowns: coefficients over cb; constraint matrix columns = unknowns
    cons = Mat.from_rows(f, [[rows[t][r] for t in range(k)] for r in range(width)]) if k else Mat.zeros(f, 0, 0)
    zker = kernel_basis(cons)
    e_s = s_coords(e)
    for j in range(zker.cols):
        coeffs = zker.col(j)
        z = zero
        for t, c0 in enumerate(coeffs):
            if c0:
                z = tuple(f.add(a, f.mul(c0, b)) for a, b in zip(z, cb[t]))
        zs = s_coords(z)
        if zs is None:
            continue
        pair = Mat.from_rows(f, [list(e_s), list(zs)])
        if rank(pair) < 2:
            continue  # scalar modulo the radical
        # z is central modulo the radical and non-scalar: split its spectrum
        mz = _smat(f, squot, sreps, rad_tracker, g, z)
        mu = min_poly_of_matrix(mz)
        roots = rational_roots(f, mu)
        if sum(m0 for _, m0 in roots) != len(mu) - 1:
            raise NonSplit("semisimple quotient has a non-split center (min poly does not split)")
        if any(m0 != 1 for _, m0 in roots):
            raise VerificationFailed("central element of semisimple quotient is not semisimple")
        lam0 = roots[0][0]
        p = [f.one]
        denom = f.one
        for lam, _ in roots[1:]:
            p = _p_mul(f, p, [f.neg(lam), f.one])
            denom = f.mul(denom, f.sub(lam0, lam))
        p = _p_scale(f, f.inv(denom), p)
        x = _corner_horner(g, p, z, e)
        for _ in range(100):
            if g.mult(x, x) == x:
                break
            xx = g.mult(x, x)
            xxx = g.mult(xx, x)
            x = tuple(
                f.sub(f.mul(f.from_int(3), a), f.mul(f.from_int(2), b)) for a, b in zip(xx, xxx)
            )
        else:
            raise VerificationFailed("idempotent lifting did not converge")
        if x == zero or x == e:
            continue
        return x

    # 2) single matrix block: hunt for an element with a usable eigenvalue
    candidates = list(cb)
    n_small = min(len(cb), 12)
    for i in range(n_small):
        for j in range(n_small):
            candidates.append(g.mult(cb[i], cb[j]))
    for i in range(n_small):
        for j in range(i + 1, n_small):
            candidates.append(tuple(f.add(a, b) for a, b in zip(cb[i], cb[j])))
            candidates.append(tuple(f.sub(a, b) for a, b in zip(cb[i], cb[j])))
    rng = random.Random("splitter:%d:%d" % (g.dim, len(cb)))
    for _ in range(120):
        v = zero
        for t in range(len(cb)):
            c0 = f.from_int(rng.randint(-3, 3))
            if c0:
                v = tuple(f.add(a, f.mul(c0, b)) for a, b in zip(v, cb[t]))
        candidates.append(v)
    for c in candidates:
        if c == zero or c == e:
            continue
        mc = _corner_lmat(g, cb, ctr, c)
        mu = min_poly_of_matrix(mc)
        if len(mu) - 1 < 2:
            continue
        try:
            roots = rational_roots(f, mu)
        except RuntimeError:
            continue
        for lam, mult in roots:
            if mult >= len(mu) - 1:
                continue
            gpart = [f.one]
            for _ in range(mult):
                gpart = _p_mul(f, gpart, [f.neg(lam), f.one])
            hpart, rem = _p_divmod(f, mu, gpart)
            if rem:
                raise VerificationFailed("factor does not divide the minimal polynomial")
            _, u, v = _p_xgcd(f, gpart, hpart)
            proj = _p_mul(f, u, gpart)  # acts as 1 on ker h(c), 0 on ker g(c)
            x = _corner_horner(g, proj, c, e)
            if g.mult(x, x) != x:
                raise VerificationFailed("polynomial idempotent is not idempotent")
            if x != zero and x != e:
                return x
    raise NonSplit(
        "could not split a corner of dimension %d; the semisimple quotient may involve "
        "a division algebra over the base field" % len(cb)
    )


def _smat(f, squot, sreps, rad_tracker, g, z):
    cols = []
    for s in sreps:
        coords = squot.coords(rad_tracker.reduce(g.mult(z, s)))
        if coords is None:
            raise VerificationFailed("quotient action left the quotient")
        cols.append(coords)
    k = len(sreps)
    ent = tuple(cols[j][i] for i in range(k) for j in range(k))
    return Mat(f, k, k, ent)


# -- right modules over an abstract algebra -----------------------------------


@dataclass
class _GMod:
    g: AbstractAlgebra
    dim: int
    acts: tuple  # per basis element, dim x dim


def _gm_act(v: _GMod, x) -> Mat:
    f = v.g.field
    out = Mat.zeros(f, v.dim, v.dim)
    for t, c in enumerate(x):
        if c:
            out = out.add(v.acts[t].scale(c))
    return out


def _gm_regular(g: AbstractAlgebra) -> _GMod:
    acts = [g.rmat(u) for u in g._units]
    return _GMod(g, g.dim, tuple(acts))


def _gm_sub(v: _GMod, basis: Mat) -> _GMod:
    rows = _unit_column_rows(basis)
    acts = []
    for t in range(v.g.dim):
        if rows is None:
            x = solve(basis, v.acts[t].mul(basis))
        else:
            x = _restrict(v.acts[t], rows)
        if x is None:
            raise VerificationFailed("subspace not closed under the action")
        acts.append(x)
    return _GMod(v.g, basis.cols, tuple(acts))


def _unit_column_rows(basis: Mat):
    """The row of the 1 in each column when every column is a unit vector, else None."""
    f = basis.field
    rows = []
    for j in range(basis.cols):
        col = basis.col(j)
        nz = [i for i, x in enumerate(col) if x]
        if len(nz) != 1 or col[nz[0]] != f.one:
            return None
        rows.append(nz[0])
    return rows


def _restrict(a: Mat, rows):
    """a on the span of the unit vectors at rows, in that basis, or None if a leaves the span."""
    keep = set(rows)
    others = [i for i in range(a.rows) if i not in keep]
    cols = [a.entries[j::a.cols] for j in rows]
    if any(col[i] for col in cols for i in others):
        return None
    return Mat(a.field, len(rows), len(rows), tuple(col[i] for i in rows for col in cols))


def _gm_quotient(v: _GMod, wbasis: Mat):
    proj, sect = quotient_maps(v.g.field, wbasis)
    acts = tuple(proj.mul(a).mul(sect) for a in v.acts)
    return _GMod(v.g, v.dim - wbasis.cols, acts), proj


def _gm_radical_basis(v: _GMod, rad) -> Mat:
    f = v.g.field
    mats = [_gm_act(v, r) for r in rad]
    if not mats:
        return Mat.zeros(f, v.dim, 0)
    return col_space(hstack(f, mats, rows=v.dim))


def _gm_cover(g, rad, idem_blocks, v: _GMod):
    """Projective cover of v; returns (P, F) with F: P -> v an epi matrix.

    A generous generating family is built first and then stripped one
    projective copy at a time while surjectivity survives; the stable
    point is the minimal cover.
    """
    f = g.field
    w = _gm_radical_basis(v, rad)
    top, proj = _gm_quotient(v, w)
    gens = []  # (block index, generator vector in v)
    for k, (e, pk, _) in enumerate(idem_blocks):
        em = _gm_act(top, e)
        img = col_space(em)
        for j in range(img.cols):
            x = solve(proj, Mat.column(f, img.col(j)))
            if x is None:
                raise VerificationFailed("cover generator lift failed")
            gv = _gm_act(v, e).apply(x.col(0))
            gens.append((k, gv))

    def build(gen_list):
        blocks = []
        fcols = []
        for (k, gv) in gen_list:
            e, pk, basis = idem_blocks[k]
            blocks.append(pk)
            for j in range(basis.cols):
                u = basis.col(j)
                fcols.append(_gm_act(v, u).apply(gv))
        total = sum(b.dim for b in blocks)
        acts = []
        for t in range(g.dim):
            acts.append(block_diag(f, [b.acts[t] for b in blocks]))
        p = _GMod(g, total, tuple(acts))
        ent = tuple(fcols[j][i] for i in range(v.dim) for j in range(len(fcols)))
        return p, Mat(f, v.dim, total, ent)

    changed = True
    while changed:
        changed = False
        for k in range(len(gens)):
            trial = gens[:k] + gens[k + 1 :]
            _, fm = build(trial)
            if rank(fm) == v.dim:
                gens = trial
                changed = True
                break
    p, fmat = build(gens)
    if rank(fmat) != v.dim:
        raise VerificationFailed("projective cover is not surjective")
    return p, fmat


def _gm_kernel(p: _GMod, fmat: Mat) -> _GMod:
    kb = kernel_basis(fmat)
    return _gm_sub(p, kb)


def _gm_hom(gens, v: _GMod, w: _GMod):
    """Basis of Hom over the algebra, using a generating set of basis indices."""
    f = v.g.field
    if v.dim == 0 or w.dim == 0:
        return []
    total = w.dim * v.dim
    rows = []
    z = f.zero
    for t in gens:
        av, aw = v.acts[t], w.acts[t]
        for r in range(w.dim):
            for c in range(v.dim):
                row = [z] * total
                for k0 in range(v.dim):
                    val = av.at(k0, c)
                    if val:
                        row[r * v.dim + k0] = f.add(row[r * v.dim + k0], val)
                for l0 in range(w.dim):
                    val = aw.at(r, l0)
                    if val:
                        row[l0 * v.dim + c] = f.sub(row[l0 * v.dim + c], val)
                if any(row):
                    rows.append(row)
    ker = kernel_basis(Mat.from_rows(f, rows)) if rows else Mat.identity(f, total)
    out = []
    for j in range(ker.cols):
        out.append(Mat(f, w.dim, v.dim, tuple(ker.col(j))))
    return out


def _algebra_generators(g: AbstractAlgebra):
    """A small set of basis indices generating g as a unital algebra."""
    f = g.field
    span = SpanTracker(f, g.dim)
    span.add(g.unit)
    elements = [g.unit]
    gens = []
    for t in range(g.dim):
        ut = g._units[t]
        if span.contains(ut):
            continue
        gens.append(t)
        frontier = [ut]
        span.add(ut)
        elements.append(ut)
        while frontier:
            x = frontier.pop()
            new = []
            for y in list(elements):
                for prod in (g.mult(x, y), g.mult(y, x)):
                    if span.add(prod):
                        new.append(prod)
            elements.extend(new)
            frontier.extend(new)
            if span.dim == g.dim:
                break
        if span.dim == g.dim:
            break
    return gens if gens else [0]


def _gm_iso(gens, v: _GMod, w: _GMod) -> bool:
    """Certified isomorphism test; False may mean 'not found'."""
    if v.dim != w.dim:
        return False
    if v.dim == 0:
        return True
    homs = _gm_hom(gens, v, w)
    if not homs:
        return False
    from .linalg import is_invertible

    for h in homs:
        if is_invertible(h):
            return True
    f = v.g.field
    rng = random.Random("gmodiso:%d" % v.dim)
    for _ in range(24):
        acc = Mat.zeros(f, w.dim, v.dim)
        for h in homs:
            c = f.from_int(rng.randint(-3, 3))
            if c:
                acc = acc.add(h.scale(c))
        if is_invertible(acc):
            return True
    return False


def global_dimension(g: AbstractAlgebra, bound=None) -> DimValue:
    """Max projective dimension of the simple right modules."""
    if bound is None:
        bound = g.dim + 2
    if g.radical is None:
        rad = algebra_radical(g)
        idems = primitive_idempotents(g, rad)
    else:
        certify_structure(g)
        rad, idems = g.radical, g.idempotents
    reg = _gm_regular(g)
    gens = _algebra_generators(g)
    idem_blocks = []
    for e in idems:
        le = g.lmat(e)
        basis = col_space(le)
        pk = _gm_sub(reg, basis)
        idem_blocks.append((e, pk, basis))
    results = []
    for (e, pk, basis) in idem_blocks:
        w = _gm_radical_basis(pk, rad)
        simple, _ = _gm_quotient(pk, w)
        results.append(_gm_pd(g, rad, idem_blocks, gens, simple, bound))
    worst_finite = 0
    at_least = None
    for r in results:
        if r.is_infinite:
            return DimValue.infinite()
        if r.kind == "at_least":
            at_least = max(at_least or 0, r.value)
        else:
            worst_finite = max(worst_finite, r.value)
    if at_least is not None:
        return DimValue.at_least(max(at_least, worst_finite))
    return DimValue.finite(worst_finite)


def _gm_pd(g, rad, idem_blocks, gens, m: _GMod, bound) -> DimValue:
    if m.dim == 0:
        return DimValue.finite(0)
    history = [m]
    cur = m
    for i in range(1, bound + 1):
        p, fmat = _gm_cover(g, rad, idem_blocks, cur)
        k = _gm_kernel(p, fmat)
        if k.dim == 0:
            return DimValue.finite(i - 1)
        for old in history:
            if old.dim == k.dim and _gm_iso(gens, old, k):
                return DimValue.infinite()
        history.append(k)
        cur = k
    return DimValue.at_least(bound)


def gldim_end_gen_cogen(alg, bound=None) -> DimValue:
    """gl.dim End(A + DA), with one summand per isomorphism class."""
    return global_dimension(gen_cogen_algebra(alg), bound)


def gen_cogen_algebra(alg) -> AbstractAlgebra:
    """End(M_0 + ... + M_{n-1}) for the summands M_i of gen_cogen(alg), block by block.

    The basis is the union of the bases of Hom(M_j, M_i), each element tagged
    (i, j); a product (i, j) * (j, k) is a composition in Hom(M_k, M_i), and
    every other product is zero.  The basis of End(M_i) is id followed by a
    basis of the kernel of phi -> phi_v[0, 0], where M_i is P(v) or I(v): the
    basis of P(v) at v starts with the stationary path e_v, and I(v) is the
    dual of P(v) over the opposite algebra, so phi_v[0, 0] is the scalar by
    which phi acts on top P(v) or on soc I(v).  The algebra carries the
    identities as its idempotents and every other basis element as its
    radical; global_dimension certifies both.
    """
    from .modules import compose, gen_cogen, hom_basis, morphism_flat

    gc = gen_cogen(alg)
    mods = gc.modules
    f = alg.field
    blocks = {}  # (i, j) -> basis of Hom(M_j, M_i), in the order of the algebra's basis
    for i, mi in enumerate(mods):
        for j, mj in enumerate(mods):
            hb = hom_basis(mj, mi)
            if i == j:
                hb = _local_basis(mi, gc.vertices[i], hb)
            if hb:
                blocks[(i, j)] = hb
    offset, dim = {}, 0
    for key, hb in blocks.items():
        offset[key] = dim
        dim += len(hb)
    trackers = {}
    for key, hb in blocks.items():
        tracker = SpanTracker(f, len(morphism_flat(hb[0])), track=True)
        for b in hb:
            if not tracker.add(morphism_flat(b)):
                raise VerificationFailed("hom basis is not independent")
        trackers[key] = tracker
    zero = (f.zero,) * dim
    table = [[zero] * dim for _ in range(dim)]
    for (i, j), left in blocks.items():
        for k in range(len(mods)):
            right = blocks.get((j, k))
            if right is None:
                continue
            tracker = trackers.get((i, k))
            for s, b in enumerate(left):
                for t, c in enumerate(right):
                    prod = morphism_flat(compose(b, c))
                    if not any(prod):
                        continue
                    coords = tracker.coords(prod) if tracker is not None else None
                    if coords is None:
                        raise VerificationFailed("composition left the Hom block")
                    row = list(zero)
                    row[offset[(i, k)]:offset[(i, k)] + len(coords)] = coords
                    table[offset[(i, j)] + s][offset[(j, k)] + t] = tuple(row)
    ids = {offset[(i, i)] for i in range(len(mods))}
    unit = tuple(f.one if t in ids else f.zero for t in range(dim))
    return make_algebra(
        f, table, unit,
        radical=tuple(_unit_vec(f, dim, t) for t in range(dim) if t not in ids),
        idempotents=tuple(_unit_vec(f, dim, t) for t in sorted(ids)),
    )


def _local_basis(m, v, hb):
    """The basis hb of End(m) re-based as id_m, then a basis of the kernel of phi -> phi_v[0, 0]."""
    from .modules import identity_morphism, morphism_add, morphism_scale

    f = m.algebra.field
    lam = [b.mats[v].at(0, 0) for b in hb]
    piv = next((t for t, x in enumerate(lam) if x), None)
    if piv is None:
        raise VerificationFailed("identity not in endomorphism space")
    inv = f.inv(lam[piv])
    rest = [morphism_add(b, morphism_scale(f.neg(f.mul(x, inv)), hb[piv]))
            for t, (b, x) in enumerate(zip(hb, lam)) if t != piv]
    return [identity_morphism(m)] + rest
