"""Finite-dimensional algebras by structure constants.

The split step by Fitting's lemma that decomposes modules, and the global
dimension of an algebra computed from projective resolutions of its simple
right modules, graded by the idempotents it carries.  The gl.dim oracle
builds End(A + DA) from its Hom blocks, with the identities of the summands
as basis elements that it claims are its primitive idempotents and the rest
as a basis of its radical, and certifies the claim.

The trace-form radical (`algebra_radical`) and the primitive idempotents of
a Fitting split of the regular module (`primitive_idempotents`) serve no
command; the benchmark's tracer wraps them by name.  The tests' reference
route (tests/reference.py) uses them to take any algebra to its basic
corner, which carries its idempotents, and checks the oracle against it.
"""
from __future__ import annotations

import math
import random
from functools import cached_property
from fractions import Fraction

from .dims import DimValue
from .errors import FieldTooSmall, NonSplit, VerificationFailed
from .fields import PRIME_LIMIT, PrimeField, Rationals, _is_prime
from .linalg import (
    Mat, SpanTracker, _scaled, block_diag, col_space, commuting_maps, complement_places, hstack, inverse,
    is_invertible, kernel_basis, rank, solve,
)


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


def _p_gcd(f, a, b):
    """The monic gcd of a and b."""
    a, b = list(a), list(b)
    while b:
        a, b = b, _p_divmod(f, a, b)[1]
    return _p_scale(f, f.inv(a[-1]), a) if a else a


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
    """The positive divisors of n, sorted, by trial division up to cap.

    A cofactor above cap^2 with no prime factor up to cap cannot be split, and is refused.
    Whenever the cofactor shrinks, and at the start, one above cap^2 and below PRIME_LIMIT,
    where _is_prime is exact, is tested, and a prime one is refused at once rather than
    after the whole division.
    """
    n = abs(n)
    if n == 0:
        return [1]
    factors = {}
    d = 2
    m = n
    shrunk = True
    while d * d <= m and d <= cap:
        if shrunk and cap * cap < m < PRIME_LIMIT and _is_prime(m):
            break
        shrunk = m % d == 0
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

    Over Q this is exhaustive by the rational root theorem, and each
    candidate p/q is tested in ints on the integral multiple ip of poly, as
    q^n ip(p/q) = 0; over GF(p) the candidates are the roots of
    gcd(poly, x^p - x).
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
        den_lcm = math.lcm(*(c.denominator for c in poly))
        ip = [int(c * den_lcm) for c in poly]
        a0, an = ip[0], ip[-1]
        for pnum in _int_divisors(a0):
            for qden in _int_divisors(an):
                candidates.append(f.coerce(Fraction(pnum, qden)))
                candidates.append(f.coerce(Fraction(-pnum, qden)))

        def is_root(lam):
            # q^n poly(p/q) = sum_k ip_k p^k q^(n-k) / den_lcm, in ints by Horner's rule
            p, q = lam.numerator, lam.denominator
            acc, qk = 0, 1
            for c in reversed(ip):
                acc = acc * p + c * qk
                qk *= q
            return not acc
    elif isinstance(f, PrimeField):
        candidates = _gfp_roots(f, poly)

        def is_root(lam):
            return not _p_eval_scalar(f, poly, lam)
    else:
        raise RuntimeError("unknown field")
    seen = set()
    for lam in candidates:
        if lam in seen:
            continue
        seen.add(lam)
        if is_root(lam):
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


def _p_powmod(f, a, e, m):
    """a^e modulo m."""
    out, a = [f.one], _p_divmod(f, a, m)[1]
    while e:
        if e & 1:
            out = _p_divmod(f, _p_mul(f, out, a), m)[1]
        a = _p_divmod(f, _p_mul(f, a, a), m)[1]
        e >>= 1
    return out


def _gfp_roots(f, poly):
    """The distinct nonzero roots of poly in GF(p), by Cantor-Zassenhaus.

    poly must have a nonzero constant term.  gcd(poly, x^p - x) is the
    product of the x - a over the roots a; a factor h of degree above 1 is
    split by gcd(h, (x + c)^((p-1)/2) - 1), which takes the roots a with
    a + c a nonzero square, for c drawn from a fixed seed until the split is
    proper.  Over GF(2) h has degree at most 1, since 0 is not a root.
    """
    x = [f.zero, f.one]
    h = _p_gcd(f, poly, _p_add(f, _p_powmod(f, x, f.p, poly), [f.zero, f.neg(f.one)]))
    rng = random.Random("roots:%d" % f.p)
    roots, todo = [], [h]
    while todo:
        h = todo.pop()
        if len(h) == 2:
            roots.append(f.neg(h[0]))
        elif len(h) > 2:
            while True:
                c = rng.randrange(f.p)
                d = _p_gcd(f, h, _p_add(f, _p_powmod(f, [c, f.one], (f.p - 1) // 2, h), [f.neg(f.one)]))
                if 1 < len(d) < len(h):
                    break
            todo += [d, _p_divmod(f, h, d)[0]]
    return roots


def _p_eval_scalar(f, poly, x):
    acc = f.zero
    for c in reversed(poly):
        acc = f.add(f.mul(acc, x), c)
    return acc


# -- abstract algebras --------------------------------------------------------


class AbstractAlgebra:
    """A unital associative algebra given by sparse structure constants.

    terms[i] maps j to the nonzero structure constants ((t, c), ...) of
    b_i * b_j; a product with no entry is zero.  idempotents, when present,
    are the indices of the basis elements claimed to be a complete set of
    primitive orthogonal idempotents, and every other basis element is
    claimed to lie in the Jacobson radical; global_dimension certifies the
    claim before it uses it, and refuses an algebra that carries none.
    Immutable by convention; not slotted, since grading is a cached_property.
    """

    def __init__(self, field, dim, terms, unit, idempotents=None):
        self.field, self.dim, self.terms, self.unit, self.idempotents = field, dim, terms, unit, idempotents

    @cached_property
    def grading(self):
        """The Peirce block (a, c) of each basis element, certified from the structure constants.

        With idempotents e_0, ..., e_{n-1} the distinct basis elements of the
        indices in idempotents, a basis element b lies in block (a, c) when
        e_a b = b = b e_c, for exactly one a and one c; with no idempotents
        every basis element lies in block (0, 0).
        Each stored product of an element of block (a, c) by one of block
        (c', d) must chain, c = c', and lie in block (a, d).  A product of
        elements of blocks that do not chain is then zero by the structure
        constants themselves, whatever built them.  Raises VerificationFailed
        when any of this fails.
        """
        f, terms = self.field, self.terms
        if self.idempotents is None:
            tags = [(0, 0)] * self.dim
        else:
            idem = {p: a for a, p in enumerate(self.idempotents)}
            if len(idem) != len(self.idempotents) or not all(0 <= p < self.dim for p in idem):
                raise VerificationFailed("the idempotents are not distinct basis elements")
            left, right = [[] for _ in range(self.dim)], [[] for _ in range(self.dim)]
            for s, row in enumerate(terms):
                for t, tt in row.items():
                    if s in idem and tt == ((t, f.one),):
                        left[t].append(idem[s])
                    if t in idem and tt == ((s, f.one),):
                        right[s].append(idem[t])
            tags = []
            for t, (i, j) in enumerate(zip(left, right)):
                if len(i) != 1 or len(j) != 1:
                    raise VerificationFailed("basis element %d lies in no Peirce block" % t)
                tags.append((i[0], j[0]))
        for s, row in enumerate(terms):
            a, c = tags[s]
            for t, tt in row.items():
                if tags[t][0] != c or any(tags[u] != (a, tags[t][1]) for u, _ in tt):
                    raise VerificationFailed("the product of basis elements %d and %d leaves its block" % (s, t))
        return tuple(tags)


def _nonzeros(x):
    """The vector x as {index: coordinate}, its nonzero coordinates."""
    return {i: c for i, c in enumerate(x) if c}


def _dense(f, n, x):
    """The vector of length n with the nonzero coordinates x."""
    out = [f.zero] * n
    for i, c in x.items():
        out[i] = c
    return tuple(out)


def _combo(f, pairs):
    """The sum of c * p over the pairs (c, p), each p given by its terms (t, x), as its nonzeros."""
    out = {}
    for c, tt in pairs:
        for t, x in tt:
            out[t] = f.add(out[t], f.mul(c, x)) if t in out else f.mul(c, x)
    return {t: x for t, x in out.items() if x}


def _product(f, terms, x, y):
    """x * y for x and y given by their nonzeros, as its nonzeros."""
    return _combo(f, ((f.mul(xi, yj), tt) for i, xi in x.items() for j, yj in y.items()
                      if (tt := terms[i].get(j))))


def _algebra(field, terms, unit, idempotents) -> AbstractAlgebra:
    """The algebra of the sparse structure constants terms, validated."""
    g = AbstractAlgebra(field, len(terms), tuple(terms), tuple(unit), idempotents)
    _validate_algebra(g)
    return g


def _chains(tags):
    """Each triple (i, j, k) of basis elements whose blocks chain: (a, b), (b, c) and (c, d)."""
    starting = {}
    for t, (a, _) in enumerate(tags):
        starting.setdefault(a, []).append(t)
    for i, (_, b) in enumerate(tags):
        for j in starting.get(b, ()):
            for k in starting.get(tags[j][1], ()):
                yield i, j, k


def _validate_algebra(g: AbstractAlgebra):
    """Certify the grading, then prove the unit law and associativity from the structure constants.

    Associativity is checked on every basis triple whose blocks chain.  On
    any other triple both (b_i b_j) b_k and b_i (b_j b_k) are zero by the
    certified grading, so the check is a proof.
    """
    f, terms = g.field, g.terms
    tags = g.grading
    unit = _nonzeros(g.unit)
    for j in range(g.dim):
        b = {j: f.one}
        if _product(f, terms, unit, b) != b or _product(f, terms, b, unit) != b:
            raise VerificationFailed("unit law fails at basis element %d" % j)
    for i, j, k in _chains(tags):
        ij, jk = terms[i].get(j, ()), terms[j].get(k, ())
        # (b_i b_j) b_k and b_i (b_j b_k)
        if (ij or jk) and (_combo(f, ((c, terms[t].get(k, ())) for t, c in ij))
                           != _combo(f, ((c, terms[i].get(t, ())) for t, c in jk))):
            raise VerificationFailed("associativity fails on basis triple (%d,%d,%d)" % (i, j, k))


# -- radical ------------------------------------------------------------------


def algebra_radical(g: AbstractAlgebra):
    """Basis of the Jacobson radical via the trace form of left multiplications."""
    f = g.field
    if isinstance(f, PrimeField) and f.p <= g.dim:
        raise FieldTooSmall("trace-form radical needs p > dim, got p=%d dim=%d" % (f.p, g.dim))
    n = g.dim
    # tr(L_x L_y) = tr(L_xy), and tr(L_{b_t}) is the sum over s of the b_s-coordinate of b_t b_s
    trace = []
    for row in g.terms:
        acc = f.zero
        for s, tt in row.items():
            for t, c in tt:
                if t == s:
                    acc = f.add(acc, c)
        trace.append(acc)
    ent = []
    for row in g.terms:
        for j in range(n):
            acc = f.zero
            for t, c in row.get(j, ()):
                acc = f.add(acc, f.mul(c, trace[t]))
            ent.append(acc)
    gram = Mat(f, n, n, tuple(ent))
    ker = kernel_basis(gram)
    basis = [ker.col(j) for j in range(ker.cols)]
    _assert_nilpotent(g, [_nonzeros(x) for x in basis])
    return basis


def _chained(g, xs, ys):
    """(a, b, xs[a] * ys[b]) for each pair whose blocks chain and whose product is not zero.

    Vectors are given by their nonzeros, and so is each product.  The
    grading is certified first; the pairs it skips, where no block of xs[a]
    ends where a block of ys[b] starts, have a zero product by it.
    """
    f, terms, tags = g.field, g.terms, g.grading
    starting = {}
    for b, y in enumerate(ys):
        for c in {tags[j][0] for j in y}:
            starting.setdefault(c, []).append(b)
    for a, x in enumerate(xs):
        for b in sorted({b for c in {tags[i][1] for i in x} for b in starting.get(c, ())}):
            p = _product(f, terms, x, ys[b])
            if p:
                yield a, b, p


def _assert_nilpotent(g, basis):
    """Raise unless the span of basis, given by their nonzeros, is nilpotent: the span of the
    products of a basis of each power by basis, the next power, shrinks to 0.  Only the nonzero
    products of pairs whose blocks chain are formed, and only they reach a SpanTracker."""
    f, n = g.field, g.dim
    cur = basis
    for _ in range(n + 1):
        tracker = SpanTracker(f, n)
        cur = [p for _, _, p in _chained(g, cur, basis) if tracker.add(_dense(f, n, p))]
        if not cur:
            return
    raise VerificationFailed("radical candidate is not nilpotent")


# -- splitting by Fitting's lemma ---------------------------------------------


def fitting_split(f, dims, ops):
    """Split V = k^dims[0] + k^dims[1] + ... in two, or certify that End(V) is local.

    ops are endomorphisms of V that span End(V), each a tuple of one square
    matrix per block.  For an op with an eigenvalue lam in the field, read
    from its first block that has one, psi = op - lam is singular.  When psi
    is not nilpotent, Fitting's lemma gives V = ker psi^d + im psi^d, d large,
    two proper summands: the result is (kers, ims), their bases per block.
    Otherwise psi is kept as a nilpotent part.  When every op has one and the
    images of V under the nilpotent parts shrink to 0, they span a nilpotent
    ideal and End(V) = k id + that ideal is local: the result is (None, nil).
    Else a product of two nilpotent parts that is not nilpotent, being
    singular, splits V too.  One exists when every op has a nilpotent part
    and End(V)/rad is split, as End(V)/rad is then a matrix algebra of size
    at least 2, on which tr(xy) does not vanish.  When none does, NonSplit
    is raised: End(V)/rad is not split over k, or, when some op has no
    eigenvalue in k, no op showed a split.

    Over Q the work runs on integers: each op is scaled by c > 0, the lcm of
    the denominators of its entries (see linalg._scaled), and c op has the
    eigenvalue c lam, the nilpotent part c psi and the powers c^d psi^d, of
    the same ranks.  Each result is mapped back to op (see _eigenvalue and
    _fitting), so it is the one the work on op itself gives, entry by entry.
    Over GF(p) c is 1.

    One op spans End(V) only when End(V) = k id, which is local with
    radical 0: the result is (None, []) at once.
    """
    if len(ops) == 1:
        return None, []
    nil, every = [], True
    for op in ops:
        c = _scaled([x for m in op for x in m.entries], None)[0] if isinstance(f, Rationals) else 1
        if c != 1:
            op = tuple(m.scale(c) for m in op)
        lam = _eigenvalue(op, c)
        if lam is None:
            every = False
            continue
        psi = tuple(m.sub(Mat.identity(f, m.rows).scale(lam)) for m in op)
        split = _fitting(psi, c)
        if split:
            return split, None
        if any(not m.is_zero() for m in psi):
            nil.append((c, psi))
    if every and _images_vanish(f, dims, [psi for _, psi in nil]):
        return None, [psi if c == 1 else tuple(m.scale(f.inv(c)) for m in psi) for c, psi in nil]
    for ca, a in nil:
        for cb, b in nil:
            split = _fitting(tuple(x.mul(y) for x, y in zip(a, b)), ca * cb)
            if split:
                return split, None
    raise NonSplit("the endomorphism ring of a space of dimensions %s is not split local and no "
                   "element splits it over the base field" % (tuple(dims),))


def _eigenvalue(op, c=1):
    """c lam for a root lam in the field of the minimal polynomial of the first block of op / c
    that has one; else None.  c > 0 is 1 unless op is an op scaled to integers.

    A block is first tried as lam + nilpotent (see _single_eigenvalue); its
    minimal polynomial is then (x - lam)^k, whose one root the search would
    return.  Over Q that also finds lam where the search gives up on a
    coefficient too large to factor.  The search is handed the minimal
    polynomial of the block of op / c, mu(x) = c^-n mu_op(c x) for mu_op of
    degree n, so it factors the coefficients it would factor on op / c.
    """
    for m in op:
        if m.rows:
            lam = _single_eigenvalue(m)
            if lam is not None:
                return lam
            f, mu = m.field, min_poly_of_matrix(m)
            if c != 1:
                n = len(mu) - 1
                mu = [f.mul(x, Fraction(1, c ** (n - k))) for k, x in enumerate(mu)]
            try:
                roots = rational_roots(f, mu)
            except RuntimeError:  # over Q, a coefficient too large to factor
                roots = []
            if roots:
                return f.mul(c, roots[0][0])
    return None


def _single_eigenvalue(m):
    """lam when m - lam is nilpotent, read off the trace as tr(m) / d for m of size d; else None.

    None too when d is not invertible in the field, as over GF(p) with p | d.
    A nilpotent psi = m - lam has a nilpotent psi^2, of trace 0 in every
    characteristic, so a psi with tr(psi^2) != 0 is refused before any
    product is taken.
    """
    f, d = m.field, m.rows
    dk = f.from_int(d)
    if not dk:
        return None
    tr = f.zero
    for i in range(d):
        tr = f.add(tr, m.entries[i * d + i])
    lam = f.mul(tr, f.inv(dk))
    psi = m.sub(Mat.identity(f, d).scale(lam))
    x, tr2 = psi.entries, f.zero
    for i in range(d):
        for j in range(d):
            if x[i * d + j] and x[j * d + i]:
                tr2 = f.add(tr2, f.mul(x[i * d + j], x[j * d + i]))
    if tr2:
        return None
    e = 1  # psi is nilpotent exactly when psi^e = 0 for an e >= d
    while e < d and not psi.is_zero():
        psi = psi.mul(psi)
        e *= 2
    return lam if psi.is_zero() else None


def _fitting(psi, c):
    """(kers, ims) of ker phi^d + im phi^d per block, d large, for psi = c phi with c > 0;
    None when psi is nilpotent.

    psi^d = c^d phi^d has the kernel basis of phi^d, which is read off their
    common reduced row echelon form, and the pivot columns of phi^d scaled
    by c^d, which are divided by it.
    """
    powers = [_stable_power(m, c) for m in psi]
    if all(p.is_zero() for p, _ in powers):
        return None
    return ([kernel_basis(p) for p, _ in powers],
            [col_space(p) if s == 1 else col_space(p).scale(p.field.inv(s)) for p, s in powers])


def _stable_power(m, c):
    """(m^d, c^d) for a d from which on the ranks of the powers of m stay the same."""
    r = rank(m)
    while r:
        sq = m.mul(m)
        rs = rank(sq)
        if rs == r:
            break
        m, r, c = sq, rs, c * c
    return m, c


def _images_vanish(f, dims, nil):
    """Whether V, W = nil V, nil W, ... reaches 0, block by block."""
    w = [Mat.identity(f, d) for d in dims]
    size = sum(dims)
    while size:
        w = [col_space(hstack(f, [n[v].mul(x) for n in nil], rows=x.rows)) for v, x in enumerate(w)]
        if sum(x.cols for x in w) == size:
            return False
        size = sum(x.cols for x in w)
    return True


# -- primitive idempotents ----------------------------------------------------


def primitive_idempotents(g: AbstractAlgebra):
    """Complete orthogonal primitive idempotents of g, from a split of the regular module.

    The left multiplications span End(g_g), so fitting_split splits g into
    right ideals.  A piece is split again with the operators compressed to it
    along the other piece, which span its endomorphisms.  The components of
    the unit in the final, local pieces are the idempotents.
    """
    f, n = g.field, g.dim
    lmul = []
    for row in g.terms:
        ent = [f.zero] * (n * n)
        for j, tt in row.items():
            for i, c in tt:
                ent[i * n + j] = c
        lmul.append(Mat(f, n, n, tuple(ent)))
    pieces, todo = [], [(Mat.identity(f, n), lmul)]
    while todo:
        basis, ops = todo.pop()
        split, _ = fitting_split(f, (basis.cols,), [(m,) for m in ops])
        if split is None:
            pieces.append(basis)
            continue
        (ker,), (im,) = split
        qinv = inverse(hstack(f, [ker, im]))  # its rows give the coordinates along ker, then along im
        d = qinv.cols
        for lo, part in ((0, ker), (ker.cols, im)):
            proj = Mat(f, part.cols, d, qinv.entries[lo * d:(lo + part.cols) * d])
            todo.append((basis.mul(part), [proj.mul(m).mul(part) for m in ops]))
    coords = solve(hstack(f, pieces), Mat.column(f, g.unit)).col(0)
    out, lo = [], 0
    for b in pieces:
        out.append(b.apply(coords[lo:lo + b.cols]))
        lo += b.cols
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
    idems = [_nonzeros(e) for e in idems]
    products = {(a, b): p for a, b, p in _chained(g, idems, idems)}
    if products != {(a, a): e for a, e in enumerate(idems) if e}:
        raise VerificationFailed("idempotents are not orthogonal")


def certify_structure(g: AbstractAlgebra):
    """Prove that the basis elements g.idempotents are complete orthogonal primitive
    idempotents, that the other basis elements span the Jacobson radical, and so that
    g/rad = k x ... x k.

    g.grading, certified from the structure constants first, proves that the
    indices are distinct basis elements.  The span R of the other basis
    elements is a two-sided ideal when no stored product with a factor in R
    has a coordinate at an idempotent, and a nilpotent two-sided ideal lies
    in the radical.  The idempotents, orthogonal and summing to 1, span a
    complement of R, so g/R is a product of copies of k, which is
    semisimple, and R is the whole radical.

    The nilpotency test forms only the products of pairs whose Peirce blocks
    chain, and sends no zero product to a SpanTracker.  Skipping the other
    products rests on g.grading, not on how the blocks were built.
    Raises VerificationFailed when any step fails.
    """
    f, terms, idems = g.field, g.terms, g.idempotents
    if idems is None:
        raise VerificationFailed("the algebra carries no idempotents to certify")
    g.grading  # refuses indices that are not distinct basis elements before terms[p] reads them
    if _nonzeros(g.unit) != {p: f.one for p in idems}:
        raise VerificationFailed("idempotents do not sum to the unit")
    for p in idems:
        if terms[p].get(p) != ((p, f.one),) or any(q in terms[p] for q in idems if q != p):
            raise VerificationFailed("idempotents are not orthogonal")
    idem = set(idems)
    for s, row in enumerate(terms):
        for t, tt in row.items():
            if (s not in idem or t not in idem) and any(u in idem for u, _ in tt):
                raise VerificationFailed("claimed radical is not a two-sided ideal")
    _assert_nilpotent(g, [{t: f.one} for t in range(g.dim) if t not in idem])


# -- global dimension over the Peirce grading ---------------------------------


class _Graded:
    """A right module V = V_0 + ... + V_{n-1}, V_i = V e_i, and the d_j x d_i
    matrix of v -> v b for each radical basis element b of e_i g e_j.  Immutable by convention."""

    __slots__ = ("dims", "acts")

    def __init__(self, dims, acts):
        self.dims = dims  # dim V_i, per vertex i
        self.acts = acts  # one matrix per radical basis element, in _Peirce.rad order


class _Peirce:
    """The Peirce grading of an algebra whose basis is its idempotents and a radical basis.

    certify_structure proves the grading and the claimed idempotents first:
    each basis element lies in one Peirce block e_i g e_j, every product
    stays in its block, and the basis elements other than the idempotents
    span the radical.
    """

    def __init__(self, g: AbstractAlgebra):
        certify_structure(g)
        self.idem = g.idempotents
        n = len(self.idem)
        self.field, self.n = g.field, n
        self.tag = g.grading
        self.block = [[[] for _ in range(n)] for _ in range(n)]  # basis indices of e_i g e_j
        self.pos = [0] * g.dim  # position of each basis element in its block
        for t, (i, j) in enumerate(self.tag):
            self.pos[t] = len(self.block[i][j])
            self.block[i][j].append(t)
        idem = set(self.idem)
        self.rad = [t for t in range(g.dim) if t not in idem]
        self.ridx = {t: r for r, t in enumerate(self.rad)}
        self.into = [[r for r, t in enumerate(self.rad) if self.tag[t][1] == k] for k in range(n)]
        self.proj = [self._projective(g, k) for k in range(n)]

    def _projective(self, g, k) -> _Graded:
        """P_k = e_k g, with the basis of e_k g e_i at vertex i."""
        f = self.field
        dims = tuple(len(self.block[k][i]) for i in range(self.n))
        acts = []
        for b in self.rad:
            i, j = self.tag[b]
            rows, cols = dims[j], dims[i]
            if not cols:
                acts.append(Mat(f, rows, 0, ()))
                continue
            ent = [f.zero] * (rows * cols)
            for c, s in enumerate(self.block[k][i]):
                for t, x in g.terms[s].get(b, ()):
                    ent[self.pos[t] * cols + c] = x
            acts.append(Mat(f, rows, cols, tuple(ent)))
        return _Graded(dims, tuple(acts))

    def simple(self, k) -> _Graded:
        f = self.field
        dims = tuple(int(i == k) for i in range(self.n))
        return _Graded(dims, tuple(Mat.zeros(f, dims[self.tag[b][1]], dims[self.tag[b][0]]) for b in self.rad))

    def cover(self, v: _Graded):
        """The minimal projective cover of v, as its generators (k, x in V_k) and its map at each vertex.

        The generators are the e_s at the places that `complement_places` keeps for the
        spanning columns of (V rad)_k.  They lift a basis of the top V_k / (V rad)_k at each
        vertex k, so by Nakayama's lemma no copy of a projective can be left out.  At a vertex
        where v is zero the map has no rows, and no generator is acted on.
        """
        f = self.field
        z, o = f.zero, f.one
        gens = []
        for k, d in enumerate(v.dims):
            if d:
                rad_k = hstack(f, [v.acts[r] for r in self.into[k] if v.acts[r].cols], rows=d)
                gens += [(k, tuple(o if i == s else z for i in range(d))) for s in complement_places(rad_k)]
        maps = []
        for i, d in enumerate(v.dims):
            if not d:
                maps.append(Mat(f, 0, sum(len(self.block[k][i]) for k, _ in gens), ()))
                continue
            cols = []
            for k, x in gens:
                for s in self.block[k][i]:
                    cols.append(x if s == self.idem[k] else v.acts[self.ridx[s]].apply(x))
            maps.append(Mat(f, d, len(cols), tuple(col[a] for a in range(d) for col in cols)))
        return gens, maps

    def syzygy(self, v: _Graded) -> _Graded:
        """The kernel of the minimal projective cover of v."""
        f = self.field
        gens, maps = self.cover(v)
        kers = [kernel_basis(m) for m in maps]
        for i, (m, ker) in enumerate(zip(maps, kers)):
            if m.cols - ker.cols != v.dims[i]:
                raise VerificationFailed("projective cover is not onto at vertex %d" % i)
        acts = []
        for r, b in enumerate(self.rad):
            i, j = self.tag[b]
            ki, kj = kers[i], kers[j]
            if not ki.cols:
                acts.append(Mat.zeros(f, kj.cols, 0))
                continue
            blocks = [self.proj[k].acts[r] for k, _ in gens]
            if not kj.cols:
                # b maps the kernel at i into the kernel at j, which is zero: each generator's block
                # must kill its rows of ki, and there is nothing to solve for
                lo, w = 0, ki.cols
                for a in blocks:
                    if any(a.entries) and not a.mul(Mat(f, a.cols, w, ki.entries[lo * w:(lo + a.cols) * w])).is_zero():
                        raise VerificationFailed("the kernel of a projective cover is not a submodule")
                    lo += a.cols
                acts.append(Mat(f, 0, w, ()))
                continue
            x = solve(kj, block_diag(f, blocks).mul(ki))
            if x is None:
                raise VerificationFailed("the kernel of a projective cover is not a submodule")
            acts.append(x)
        return _Graded(tuple(ker.cols for ker in kers), tuple(acts))

    def hom(self, v: _Graded, w: _Graded):
        """A basis of Hom(v, w), each element a tuple of one w.dims[i] x v.dims[i] matrix per vertex.

        These are the maps (h_i) with h_j v(b) = w(b) h_i for each radical basis element b of
        e_i g e_j, where v(b) and w(b) are the matrices of the action of b.
        """
        f = self.field
        squares = [(*self.tag[b], v.acts[r], w.acts[r]) for r, b in enumerate(self.rad)]
        out = []
        for h in commuting_maps(f, v.dims, w.dims, squares):
            pos, maps = 0, []
            for dv, dw in zip(v.dims, w.dims):
                maps.append(Mat(f, dw, dv, h[pos:pos + dv * dw]))
                pos += dv * dw
            out.append(tuple(maps))
        return out

    def isomorphic(self, v: _Graded, w: _Graded) -> bool:
        """Certified isomorphism test: a map invertible at every vertex.  False may mean 'not found'."""
        if v.dims != w.dims:
            return False
        homs = self.hom(v, w)
        if not homs:
            return not any(v.dims)
        for h in homs:
            if all(is_invertible(m) for m in h):
                return True
        f = self.field
        rng = random.Random("gmodiso:%d" % sum(v.dims))
        for _ in range(24):
            acc = [Mat.zeros(f, m.rows, m.cols) for m in homs[0]]
            for h in homs:
                c = f.from_int(rng.randint(-3, 3))
                if c:
                    acc = [a.add(m.scale(c)) for a, m in zip(acc, h)]
            if all(is_invertible(m) for m in acc):
                return True
        return False

    def proj_dim(self, v: _Graded, bound) -> DimValue:
        history = [v]
        for i in range(1, bound + 1):
            k = self.syzygy(v)
            if not any(k.dims):
                return DimValue.finite(i - 1)
            if any(self.isomorphic(old, k) for old in history):
                return DimValue.infinite()
            history.append(k)
            v = k
        return DimValue.at_least(bound)


def global_dimension(g: AbstractAlgebra) -> DimValue:
    """Max projective dimension of the simple right modules, over the idempotents g carries.

    _Peirce certifies them first, and refuses an algebra that carries none.
    A resolution that neither ends nor repeats within dim g + 2 steps gives
    at least that many.  The trace-form route, which finds the radical and
    the idempotents of any algebra and passes to its basic corner, is the
    tests' independent reference (tests/reference.py).
    """
    bound = g.dim + 2
    peirce = _Peirce(g)
    worst_finite = 0
    at_least = None
    for k in range(peirce.n):
        r = peirce.proj_dim(peirce.simple(k), bound)
        if r.is_infinite:
            return DimValue.infinite()
        if r.kind == "at_least":
            at_least = max(at_least or 0, r.value)
        else:
            worst_finite = max(worst_finite, r.value)
    if at_least is not None:
        return DimValue.at_least(max(at_least, worst_finite))
    return DimValue.finite(worst_finite)


def gldim_end_gen_cogen(alg) -> DimValue:
    """gl.dim End(A + DA), with one summand per isomorphism class."""
    return global_dimension(gen_cogen_algebra(alg))


def gen_cogen_algebra(alg) -> AbstractAlgebra:
    """End(M_0 + ... + M_{n-1}) for the summands M_i of gen_cogen(alg), from its Hom table
    of the blocks Hom(M_j, M_i).

    The basis of End(M_i) is id followed by a basis of the kernel of
    phi -> phi_v[0, 0], where M_i is P(v) or I(v): the basis of P(v) at v
    starts with the stationary path e_v, and I(v) is the dual of P(v) over
    the opposite algebra, so phi_v[0, 0] is the scalar by which phi acts on
    top P(v) or on soc I(v).  global_dimension certifies the idempotents the
    algebra carries, and with them its radical.
    """
    from .modules import compose, gen_cogen, morphism_flat

    gc = gen_cogen(alg)
    mods = gc.modules
    blocks = {}  # (i, j) -> basis of Hom(M_j, M_i), in the order of the algebra's basis
    for i, mi in enumerate(mods):
        for j, hb in enumerate(gc.homs.row(i)):
            if i == j:
                hb = _local_basis(mi, gc.vertices[i], hb)
            if hb:
                blocks[(i, j)] = hb
    return _block_algebra(alg.field, len(mods), blocks, morphism_flat, compose)


def _block_algebra(f, n, blocks, flat, compose) -> AbstractAlgebra:
    """The algebra with basis the union of the lists blocks[(i, j)], for i, j < n.

    A product of an element of block (i, j) by one of block (j, k) is
    compose(b, c), read in the basis of block (i, k) and stored by its nonzero
    coordinates; every other product is zero, and nothing is stored for it.
    Elements are compared as the vectors flat(b), and blocks[(i, i)][0] is
    the identity of the i-th summand.  The algebra carries the indices of
    these identities as its idempotents; every other basis element is
    claimed to lie in its radical.
    """
    offset, dim = {}, 0
    for key, hb in blocks.items():
        offset[key] = dim
        dim += len(hb)
    trackers = {}
    for key, hb in blocks.items():
        tracker = SpanTracker(f, len(flat(hb[0])), track=True)
        for b in hb:
            if not tracker.add(flat(b)):
                raise VerificationFailed("block basis is not independent")
        trackers[key] = tracker
    terms = [{} for _ in range(dim)]
    for (i, j), left in blocks.items():
        for k in range(n):
            right = blocks.get((j, k))
            if right is None:
                continue
            tracker, lo = trackers.get((i, k)), offset.get((i, k))
            for s, b in enumerate(left):
                row = terms[offset[(i, j)] + s]
                for t, c in enumerate(right):
                    prod = flat(compose(b, c))
                    if not any(prod):
                        continue
                    coords = tracker.coords(prod) if tracker is not None else None
                    if coords is None:
                        raise VerificationFailed("a product left its block")
                    row[offset[(j, k)] + t] = tuple((lo + u, x) for u, x in enumerate(coords) if x)
    ids = tuple(offset[(i, i)] for i in range(n))
    return _algebra(f, terms, _dense(f, dim, {t: f.one for t in ids}), ids)


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
