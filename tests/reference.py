"""Independent references that no command runs, for the tests to check the package against.

- The trace-form route to gl.dim: `endomorphism_algebra` builds End(m) from
  hom_basis(m, m), with no idempotents, and `basic_corner` finds its radical
  from the trace form and its primitive idempotents from a Fitting split of
  the regular module, then passes to the basic corner, which carries them.
  `global_dimension(basic_corner(g))` is gl.dim g by a route that shares
  none of the block oracle's bookkeeping.
- `make_algebra` builds an algebra from a dense structure table, and `mult`
  multiplies dense vectors in one.
- `_gauss_jordan` is the dense elimination the sparse kernel of
  `repherd.linalg` is compared against; `from_rows` and `row_lists` build
  and read matrices as row lists.
- `cover_mats` builds the matrices of a map from a sum of projectives,
  given by the images of its tops, with one product of arrow matrices per
  basis path, the route the prefix walk of `_from_generators` replaced.
- `simple_at`, `hom_dim`, `normal_form`, `opposite_algebra` and `node_named`
  are small conveniences over the package's objects.
"""
from functools import partial

from repherd.endo import (
    AbstractAlgebra, _algebra, _block_algebra, _dense, _nonzeros, _product, algebra_radical, primitive_idempotents,
)
from repherd.errors import DimensionMismatch, RepherdError, VerificationFailed
from repherd.linalg import Mat, SpanTracker
from repherd.modules import (
    Representation, compose, hom_basis, identity_morphism, morphism_flat, path_action, projective_paths,
)


class PathTooLong(RepherdError):
    pass


# -- algebras by structure constants ------------------------------------------


def mult(g: AbstractAlgebra, x, y):
    """x * y in g, for dense vectors x and y."""
    return _dense(g.field, g.dim, _product(g.field, g.terms, _nonzeros(x), _nonzeros(y)))


def _unit_vec(f, n, j):
    return tuple(f.one if i == j else f.zero for i in range(n))


def make_algebra(field, table, unit, idempotents=None) -> AbstractAlgebra:
    """The algebra whose product b_i * b_j has the coordinates table[i][j], validated."""
    terms = [{j: tt for j, e in enumerate(row) if (tt := tuple((t, c) for t, c in enumerate(e) if c))}
             for row in table]
    return _algebra(field, terms, unit, idempotents)


def endomorphism_algebra(m):
    """(End(m), its basis): the basis is hom_basis(m, m), and the product is composition."""
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
    terms = []
    for b in basis:
        row = {}
        for j, c in enumerate(basis):
            coords = tracker.coords(morphism_flat(compose(b, c)))
            if coords is None:
                raise VerificationFailed("composition left the endomorphism space")
            tt = tuple((t, x) for t, x in enumerate(coords) if x)
            if tt:
                row[j] = tt
        terms.append(row)
    return _algebra(f, terms, unit, None), tuple(basis)


def _span_basis(f, width, vecs):
    """The vectors of vecs that enlarge the span of those before them."""
    tracker = SpanTracker(f, width)
    return [v for v in vecs if tracker.add(v)]


def _corner_basis(g, a, b):
    """A basis of a g b."""
    return _span_basis(g.field, g.dim, (mult(g, mult(g, a, _unit_vec(g.field, g.dim, t)), b) for t in range(g.dim)))


def basic_corner(g: AbstractAlgebra) -> AbstractAlgebra:
    """e g e for e a sum of one primitive idempotent of g per isomorphism class.

    The corner is Morita equivalent to g, so has the same global dimension.
    The radical comes from the trace form, the idempotents from splitting the
    regular module by Fitting's lemma.  Primitive idempotents e_k and e_l
    are isomorphic (e_k g = e_l g as right modules) exactly when their simple
    tops are, that is when e_k g e_l, which maps onto the Hom space between
    the tops, is not inside the radical.  The corner is built in a Peirce
    basis: each e_k, then a basis of e_k rad e_k and of each e_k g e_l.
    """
    f = g.field
    rad = algebra_radical(g)
    idems = primitive_idempotents(g)
    rad_span = SpanTracker(f, g.dim)
    for r in rad:
        rad_span.add(r)
    reps = []
    for e in idems:
        if not any(not rad_span.contains(mult(g, mult(g, r, _unit_vec(f, g.dim, t)), e))
                   for r in reps for t in range(g.dim)):
            reps.append(e)
    blocks = {}
    for i, a in enumerate(reps):
        for j, b in enumerate(reps):
            if i == j:
                hb = [a] + _span_basis(f, g.dim, (mult(g, mult(g, a, r), a) for r in rad))
            else:
                hb = _corner_basis(g, a, b)
            if hb:
                blocks[(i, j)] = hb
    return _block_algebra(f, len(reps), blocks, tuple, partial(mult, g))


# -- matrices -----------------------------------------------------------------


def from_rows(field, rows):
    rows = [list(r) for r in rows]
    nr = len(rows)
    nc = len(rows[0]) if rows else 0
    for r in rows:
        if len(r) != nc:
            raise DimensionMismatch("ragged rows")
    ent = tuple(field.coerce(x) for r in rows for x in r)
    return Mat(field, nr, nc, ent)


def row_lists(m: Mat):
    return [list(m.row(i)) for i in range(m.rows)]


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


# -- algebras, modules and catalogs -------------------------------------------


def normal_form(alg, combo):
    """Coordinates of a linear combination of paths (each within the bound)."""
    f = alg.field
    acc = [f.zero] * alg.dim
    for scalar, p in combo:
        if p.length > alg.length_bound:
            raise PathTooLong("path of length %d exceeds bound %d" % (p.length, alg.length_bound))
        s = f.coerce(scalar)
        if not s:
            continue
        for i, c in enumerate(alg.reduce_path(p)):
            if c:
                acc[i] = f.add(acc[i], f.mul(s, c))
    return tuple(acc)


def opposite_algebra(alg):
    return alg.opposite


def simple_at(alg, v):
    q = alg.quiver
    vi = q.vindex[str(v)] if not isinstance(v, int) else v
    dims = [1 if u == vi else 0 for u in range(q.n_vertices)]
    mats = [
        Mat.zeros(alg.field, dims[q.arrow_tgt[a]], dims[q.arrow_src[a]])
        for a in range(q.n_arrows)
    ]
    return Representation(alg, dims, mats, check=False)


def cover_mats(m, gens):
    """The matrices, one per vertex, of the map from the sum of the P(v_k) to m that sends the
    top of the k-th summand to w_k, for gens = [(v_k, w_k)]: each basis path p of P(v_k) goes
    to path_action(m, p) applied to w_k."""
    alg = m.algebra
    mats = []
    for c, d in enumerate(m.dims):
        cols = [path_action(m, p).apply(w) for v, w in gens for p in projective_paths(alg, v)[1][c]]
        mats.append(Mat(alg.field, d, len(cols), tuple(col[i] for i in range(d) for col in cols)))
    return tuple(mats)


def hom_dim(m, n) -> int:
    return len(hom_basis(m, n))


def node_named(cat, name):
    for node in cat.nodes:
        if node.name == name:
            return node
    raise KeyError(name)
