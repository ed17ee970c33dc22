"""Quiver representations (right modules), morphisms, and decompositions."""
from __future__ import annotations

from dataclasses import dataclass

from .endo import fitting_split
from .errors import (
    DimensionMismatch,
    InvalidRepresentation,
    NonSplit,
    NonSplitEndomorphismRing,
    VerificationFailed,
)
from .linalg import (
    Mat,
    SpanTracker,
    block_diag,
    col_space,
    commuting_maps,
    complement_places,
    hstack,
    is_invertible,
    kernel_basis,
    quotient_maps,
    rank,
    solve,
    vstack,
)


class Representation:
    """A right module: vector space dims per vertex plus arrow matrices.

    Arrow matrices act on column vectors, shape dim(target) x dim(source).
    Relations of the algebra are verified to evaluate to zero.  Instances
    are immutable after construction, apart from the certificate below,
    which is set once it is found.

    `local_parts` is the certificate that End(m) is local, or None when none
    has been found: nilpotent endomorphisms that span rad End(m), as tuples
    of one matrix per vertex.  They are the parts that `fitting_split` kept
    for the basis hom_basis(m, m), or the transposes of a module's parts
    carried over to its dual by `dual_module`; `endomorphism_radical` reads
    a basis off their span.  A piece that `indecomposable_summands` matched
    to a module its caller holds is that module, with that module's
    certificate.  The modules of add(A + DA) that `gen_cogen` builds carry
    none.
    """

    def __init__(self, algebra, dims, mats, summands=None, check=True):
        self.algebra = algebra
        self.dims = tuple(int(d) for d in dims)
        q = algebra.quiver
        if len(self.dims) != q.n_vertices:
            raise InvalidRepresentation("dimension vector has wrong length")
        mats = tuple(mats)
        if len(mats) != q.n_arrows:
            raise InvalidRepresentation("need one matrix per arrow")
        for a, m in enumerate(mats):
            if m.rows != self.dims[q.arrow_tgt[a]] or m.cols != self.dims[q.arrow_src[a]]:
                raise InvalidRepresentation(
                    "matrix for arrow %s has shape %dx%d, expected %dx%d"
                    % (q.arrow_names[a], m.rows, m.cols, self.dims[q.arrow_tgt[a]], self.dims[q.arrow_src[a]])
                )
        self.mats = mats
        self.summands = summands
        self.local_parts = None
        if check:
            self._check_relations()

    def _check_relations(self):
        """Each relation, evaluated on the module, must be zero.

        A term whose path passes through a vertex where the module is zero, its
        start and end included, is zero on it; the other terms are summed.  So a
        relation from or to such a vertex takes no product at all.
        """
        q = self.algebra.quiver
        dims = self.dims
        for k, rel in enumerate(self.algebra.relations):
            acc = None
            for s, p in rel:
                if dims[p.start] and all(dims[q.arrow_tgt[a]] for a in p.arrows):
                    term = path_action(self, p).scale(s)
                    acc = term if acc is None else acc.add(term)
            if acc is not None and not acc.is_zero():
                paths = ", ".join(".".join(q.arrow_names[a] for a in p.arrows) for _, p in rel)
                raise InvalidRepresentation("relation %d (%s) does not vanish on the representation" % (k, paths))

    @property
    def total_dim(self):
        return sum(self.dims)

    def is_zero(self):
        return self.total_dim == 0

    def __repr__(self):
        return "Representation(dims=%s)" % (self.dims,)


def path_action(rep: Representation, p) -> Mat:
    """Matrix of the path acting on rep (first arrow applied first); the zero
    matrix, with no product taken, when the path passes through a vertex where
    rep is zero."""
    dims = rep.dims
    if not p.arrows:
        return Mat.identity(rep.algebra.field, dims[p.start])
    q = rep.algebra.quiver
    if not (dims[p.start] and all(dims[q.arrow_tgt[a]] for a in p.arrows)):
        return Mat.zeros(rep.algebra.field, dims[q.arrow_tgt[p.arrows[-1]]], dims[p.start])
    m = rep.mats[p.arrows[0]]
    for a in p.arrows[1:]:
        m = rep.mats[a].mul(m)
    return m


class ModuleMorphism:
    """A map source -> target: mats[v] is the dim target_v x dim source_v matrix at vertex v.

    Immutable by convention, like `Mat`; `check` verifies that it commutes with the arrows.
    """

    __slots__ = ("source", "target", "mats")

    def __init__(self, source, target, mats):
        sdims, tdims = source.dims, target.dims
        for v in range(len(sdims)):
            m = mats[v]
            if m.rows != tdims[v] or m.cols != sdims[v]:
                raise DimensionMismatch("morphism matrix shape mismatch at vertex %d" % v)
        self.source = source
        self.target = target
        self.mats = mats

    def __eq__(self, other):
        if other.__class__ is not ModuleMorphism:
            return NotImplemented
        return (self.source, self.target, self.mats) == (other.source, other.target, other.mats)

    def __hash__(self):
        return hash((self.source, self.target, self.mats))

    def check(self):
        """self, once checked to commute with each arrow i -> j; an arrow where the source is
        zero at i or the target is zero at j gives a square of empty matrices and is skipped."""
        q = self.source.algebra.quiver
        sdims, tdims = self.source.dims, self.target.dims
        for a in range(q.n_arrows):
            i, j = q.arrow_src[a], q.arrow_tgt[a]
            if not (sdims[i] and tdims[j]):
                continue
            lhs = self.mats[j].mul(self.source.mats[a])
            rhs = self.target.mats[a].mul(self.mats[i])
            if not lhs.eq(rhs):
                raise InvalidRepresentation("morphism does not commute with arrow %s" % q.arrow_names[a])
        return self

    def is_zero(self):
        return all(m.is_zero() for m in self.mats)

    def __repr__(self):
        return "ModuleMorphism(%s -> %s)" % (self.source.dims, self.target.dims)


def zero_rep(alg) -> Representation:
    q = alg.quiver
    dims = (0,) * q.n_vertices
    mats = [Mat.zeros(alg.field, 0, 0) for _ in range(q.n_arrows)]
    return Representation(alg, dims, mats, check=False)


def identity_morphism(m: Representation) -> ModuleMorphism:
    f = m.algebra.field
    return ModuleMorphism(m, m, tuple(Mat.identity(f, d) for d in m.dims))


def zero_morphism(src: Representation, dst: Representation) -> ModuleMorphism:
    f = src.algebra.field
    return ModuleMorphism(src, dst, tuple(Mat.zeros(f, dst.dims[v], src.dims[v]) for v in range(len(src.dims))))


def compose(g: ModuleMorphism, f: ModuleMorphism) -> ModuleMorphism:
    """g after f."""
    if f.target is not g.source and f.target.dims != g.source.dims:
        raise DimensionMismatch("composition mismatch")
    return ModuleMorphism(f.source, g.target, tuple(g.mats[v].mul(f.mats[v]) for v in range(len(f.mats))))


def morphism_add(f: ModuleMorphism, g: ModuleMorphism) -> ModuleMorphism:
    return ModuleMorphism(f.source, f.target, tuple(a.add(b) for a, b in zip(f.mats, g.mats)))


def morphism_scale(s, f: ModuleMorphism) -> ModuleMorphism:
    return ModuleMorphism(f.source, f.target, tuple(m.scale(s) for m in f.mats))


def morphism_combo(fld, basis, coeffs, source, target) -> ModuleMorphism:
    out = zero_morphism(source, target)
    for c, b in zip(coeffs, basis):
        if c:
            out = morphism_add(out, morphism_scale(c, b))
    return out


def morphism_flat(f: ModuleMorphism):
    vec = []
    for m in f.mats:
        vec.extend(m.entries)
    return tuple(vec)


def morphism_from_flat(source, target, vec) -> ModuleMorphism:
    fld = source.algebra.field
    mats = []
    pos = 0
    for v in range(len(source.dims)):
        n = target.dims[v] * source.dims[v]
        mats.append(Mat(fld, target.dims[v], source.dims[v], tuple(vec[pos : pos + n]) if n else ()))
        pos += n
    return ModuleMorphism(source, target, tuple(mats))


def morphism_is_invertible(f: ModuleMorphism) -> bool:
    return all(is_invertible(m) for m in f.mats)


# -- canonical modules -------------------------------------------------------


def projective_paths(alg, v):
    """P(v) together with its per-vertex lists of basis paths, built once per algebra."""
    q = alg.quiver
    vi = q.vindex[str(v)] if not isinstance(v, int) else v
    if vi not in alg._projectives:
        alg._projectives[vi] = _build_projective(alg, vi)
    return alg._projectives[vi]


def _build_projective(alg, vi):
    q = alg.quiver
    f = alg.field
    local = [[] for _ in range(q.n_vertices)]  # per end vertex: global basis idx
    for i in alg.basis_from[vi]:
        local[alg.basis[i].end(q)].append(i)
    dims = [len(L) for L in local]
    pos = {}
    for c, L in enumerate(local):
        for k, i in enumerate(L):
            pos[i] = (c, k)
    mats = []
    for a in range(q.n_arrows):
        i, j = q.arrow_src[a], q.arrow_tgt[a]
        cols = []
        for bidx in local[i]:
            coords = alg.path_times_arrow(bidx, a)
            col = [f.zero] * dims[j]
            for gidx, cval in enumerate(coords):
                if cval:
                    cvert, ck = pos[gidx]
                    if cvert != j:
                        raise InvalidRepresentation("path product left the expected vertex")
                    col[ck] = cval
            cols.append(col)
        ent = tuple(cols[c][r] for r in range(dims[j]) for c in range(len(cols)))
        mats.append(Mat(f, dims[j], dims[i], ent))
    rep = Representation(alg, dims, mats)
    plists = tuple(tuple(alg.basis[i] for i in L) for L in local)
    return rep, plists


def projective_at(alg, v) -> Representation:
    """P(v) = paths starting at v, with the right action of arrows."""
    return projective_paths(alg, v)[0]


def injective_at(alg, v) -> Representation:
    """I(v), the dual of the opposite-algebra projective at v."""
    q = alg.quiver
    vi = q.vindex[str(v)] if not isinstance(v, int) else v
    pop = projective_at(alg.opposite, vi)
    mats = [pop.mats[a].transpose() for a in range(q.n_arrows)]
    return Representation(alg, pop.dims, mats)


class HomTable:
    """Hom from a fixed list of modules, each solved once: into(m) is [hom_basis(X, m)
    for each X], solved the first time m is asked for, and row(i) is into(modules[i]).

    The rows are kept by the object m itself, which the table keeps alive, so a module
    made later never reads the rows of one that is gone.  Callers never change them.
    """

    __slots__ = ("modules", "_rows")

    def __init__(self, modules):
        self.modules = modules
        self._rows = {}

    def into(self, m):
        row = self._rows.get(m)
        if row is None:
            row = self._rows[m] = [hom_basis(x, m) for x in self.modules]
        return row

    def row(self, i):
        return self.into(self.modules[i])


@dataclass(frozen=True)
class GenCogen:
    """The indecomposable summands of A + DA.

    `modules` lists the projectives in vertex order, then each injective not
    isomorphic to an earlier entry; `names` labels them P(v) and I(v), and
    `vertices` holds the index of each v.  The order fixes the basis of
    End(A + DA) that the oracle works in.  `inj_entries[v]` indexes the entry
    that is I(v), or the P(w) isomorphic to it.  `duals` holds the dual of each
    entry over the opposite algebra, the duals of the projectives first.
    `homs` and `dual_homs` are the Hom tables from `modules` and from `duals`.
    """

    projectives: tuple   # P(v) for every vertex v
    injectives: tuple    # I(v) for every vertex v
    modules: tuple
    names: tuple
    vertices: tuple
    inj_entries: tuple
    duals: tuple
    homs: HomTable
    dual_homs: HomTable


def gen_cogen(alg) -> GenCogen:
    """add(A + DA) of the algebra, built once and kept on the algebra object."""
    if alg._gen_cogen is None:
        verts = alg.quiver.vertices
        projs = tuple(projective_at(alg, v) for v in range(len(verts)))
        injs = tuple(injective_at(alg, v) for v in range(len(verts)))
        modules = list(projs)
        names = ["P(%s)" % v for v in verts]
        vertices = list(range(len(verts)))
        entries = []
        for k, (v, iv) in enumerate(zip(verts, injs)):
            e = iso_class_index(iv, modules)
            if e is None:
                e = len(modules)
                modules.append(iv)
                names.append("I(%s)" % v)
                vertices.append(k)
            entries.append(e)
        modules = tuple(modules)
        duals = tuple(dual_module(x) for x in modules)
        alg._gen_cogen = GenCogen(
            projs, injs, modules, tuple(names), tuple(vertices), tuple(entries),
            duals, HomTable(modules), HomTable(duals),
        )
    return alg._gen_cogen


def dual_module(m: Representation) -> Representation:
    """The dual as a module over the opposite algebra.

    Duality takes f in End(m) to its transpose in End(Dm) and so maps
    rad End(m) onto rad End(Dm): a certificate that End(m) is local carries
    over transposed.
    """
    op = m.algebra.opposite
    mats = [m.mats[a].transpose() for a in range(len(m.mats))]
    dm = Representation(op, m.dims, mats, check=False)
    if m.local_parts is not None:
        dm.local_parts = [tuple(x.transpose() for x in part) for part in m.local_parts]
    return dm


def dual_morphism(f: ModuleMorphism) -> ModuleMorphism:
    return ModuleMorphism(dual_module(f.target), dual_module(f.source), tuple(m.transpose() for m in f.mats))


# -- hom spaces ---------------------------------------------------------------


def hom_basis(m: Representation, n: Representation):
    """A basis of Hom(m, n): the maps (f_v) with f_j m_a = n_a f_i for each arrow a: i -> j."""
    if m.algebra is not n.algebra:
        raise DimensionMismatch("modules over different algebras")
    q = m.algebra.quiver
    squares = [(q.arrow_src[a], q.arrow_tgt[a], m.mats[a], n.mats[a]) for a in range(q.n_arrows)]
    return [morphism_from_flat(m, n, vec) for vec in commuting_maps(m.algebra.field, m.dims, n.dims, squares)]


# -- constructions ------------------------------------------------------------


def subrep_from_bases(m: Representation, bases):
    """Subrepresentation spanned by the given per-vertex column bases.

    Along an arrow i -> j with the subspace zero at i there is nothing to map;
    where it is zero at j, `solve` still checks that the image there is zero.
    """
    f = m.algebra.field
    q = m.algebra.quiver
    dims = [b.cols for b in bases]
    mats = []
    for a in range(q.n_arrows):
        i, j = q.arrow_src[a], q.arrow_tgt[a]
        if not dims[i]:
            mats.append(Mat(f, dims[j], 0, ()))
            continue
        x = solve(bases[j], m.mats[a].mul(bases[i]))
        if x is None:
            raise InvalidRepresentation("subspace is not invariant under arrow %s" % q.arrow_names[a])
        mats.append(x)
    sub = Representation(m.algebra, dims, mats)
    incl = ModuleMorphism(sub, m, tuple(bases))
    return sub, incl


def kernel_of(f: ModuleMorphism):
    bases = [kernel_basis(m) for m in f.mats]
    return subrep_from_bases(f.source, bases)


def cokernel_of(f: ModuleMorphism):
    rep, proj, _ = cokernel_with_section(f)
    return rep, proj


def cokernel_with_section(f: ModuleMorphism):
    """Cokernel plus a linear section of the projection (not a morphism)."""
    q = f.source.algebra.quiver
    n = f.target
    maps = [quotient_maps(n.algebra.field, col_space(m)) for m in f.mats]
    projs = tuple(p for p, _ in maps)
    sections = tuple(s for _, s in maps)
    mats = []
    for a in range(q.n_arrows):
        i, j = q.arrow_src[a], q.arrow_tgt[a]
        mats.append(projs[j].mul(n.mats[a]).mul(sections[i]))
    cok = Representation(f.source.algebra, [p.rows for p in projs], mats)
    proj = ModuleMorphism(n, cok, projs).check()
    return cok, proj, sections


def direct_sum(alg, reps):
    """Block-diagonal direct sum; remembers the summand list."""
    reps = list(reps)
    for r in reps:
        if r.algebra is not alg:
            raise DimensionMismatch("direct sum over mixed algebras")
    q = alg.quiver
    if not reps:
        return zero_rep(alg)
    dims = [sum(r.dims[v] for r in reps) for v in range(q.n_vertices)]
    mats = [block_diag(alg.field, [r.mats[a] for r in reps]) for a in range(q.n_arrows)]
    return Representation(alg, dims, mats, summands=tuple(reps))


def _incoming(m: Representation, v):
    """The maps of m along the arrows into v, side by side in arrow order (no columns when no
    arrow ends at v).  Its column space is rad m at v."""
    q = m.algebra.quiver
    ins = [m.mats[a] for a in range(q.n_arrows) if q.arrow_tgt[a] == v]
    return hstack(m.algebra.field, ins, rows=m.dims[v])


def top_places(m: Representation):
    """(v, s) for each place s of m at each vertex v that is not the last nonzero place of a
    vector in rad m.  The e_s at these places lift a basis of the top m / rad m."""
    return [(v, s) for v in range(len(m.dims)) for s in complement_places(_incoming(m, v))]


def radical_of(m: Representation):
    """Sum of images of all arrow maps, as a subrepresentation."""
    return subrep_from_bases(m, [col_space(_incoming(m, v)) for v in range(len(m.dims))])


def socle_of(m: Representation):
    """Joint kernel of all arrow maps, as a subrepresentation."""
    fld = m.algebra.field
    q = m.algebra.quiver
    bases = []
    for v in range(q.n_vertices):
        outgoing = [m.mats[a] for a in range(q.n_arrows) if q.arrow_src[a] == v]
        if outgoing:
            bases.append(kernel_basis(vstack(fld, outgoing, cols=m.dims[v])))
        else:
            bases.append(Mat.identity(fld, m.dims[v]))
    return subrep_from_bases(m, bases)


def top_dims(m: Representation):
    """dim (m / rad m) at each vertex: dim m_v less the rank of the arrows into v."""
    return [d - rank(_incoming(m, v)) for v, d in enumerate(m.dims)]


def cokernel_top_dims(f: ModuleMorphism):
    """The top of coker f, with no cokernel built: for f : X -> m it is m / (rad m + im f), of
    dimension dim m_v less the rank of f_v beside the arrows into v."""
    m = f.target
    fld = m.algebra.field
    return [d - rank(hstack(fld, [f.mats[v], _incoming(m, v)], rows=d)) for v, d in enumerate(m.dims)]


# -- decomposition ------------------------------------------------------------


def _split_endomorphisms(m: Representation):
    """fitting_split on m with the basis hom_basis(m, m) of End(m)."""
    try:
        return fitting_split(m.algebra.field, m.dims, [b.mats for b in hom_basis(m, m)])
    except NonSplit as exc:
        raise NonSplitEndomorphismRing(
            "the summand of dimension vector %s has an endomorphism ring that is not split local, and no "
            "endomorphism splits it over %r" % (m.dims, m.algebra.field)) from exc


def indecomposable_summands(m: Representation, known=()):
    """The indecomposable pieces of m, sorted by dimension vector.

    m is split in two by Fitting's lemma until every piece has a local
    endomorphism ring, which the piece keeps as its `local_parts`; pieces
    with equal dimension vectors keep the order of the splits.

    known lists indecomposables that the caller holds.  Each piece is first
    looked up among them, and a piece isomorphic to known[i] is indecomposable:
    known[i] itself takes its place, with no End solve and no split, and
    `known_index` finds i again.  A piece that matches none of them was
    compared with all of them.
    """
    pieces, todo = [], [] if m.is_zero() else [m]
    while todo:
        x = todo.pop()
        i = iso_class_index(x, known)
        if i is not None:
            pieces.append(known[i])
            continue
        split, nil = _split_endomorphisms(x)
        if split is None:
            x.local_parts = nil
            pieces.append(x)
        else:
            todo += [subrep_from_bases(x, bases)[0] for bases in reversed(split)]
    return sorted(pieces, key=lambda p: p.dims)


def known_index(piece, known):
    """The index of the entry of known that is piece itself, or None: where
    indecomposable_summands(m, known) put a known module in place of a piece."""
    for i, k in enumerate(known):
        if k is piece:
            return i
    return None


def endomorphism_radical(z: Representation):
    """A basis of rad End(z) for indecomposable z, from the nilpotent parts that certify End(z) local.

    A certificate that z carries is read; otherwise End(z) is split afresh,
    as for the modules of add(A + DA), which carry none.  For a brick, the
    basis of End(z) has one element, and fitting_split certifies it on sight.
    """
    nil = z.local_parts
    if nil is None:
        split, nil = _split_endomorphisms(z)
        if split is not None:
            raise VerificationFailed("the endomorphism ring of a module taken as indecomposable splits")
    tracker = SpanTracker(z.algebra.field, sum(d * d for d in z.dims))
    return [r for r in (ModuleMorphism(z, z, n) for n in nil) if tracker.add(morphism_flat(r))]


@dataclass
class Decomposition:
    pieces: list          # list of (Representation, multiplicity)


def decompose(m: Representation) -> Decomposition:
    reps, mults = [], []
    for p in indecomposable_summands(m):
        k = iso_class_index(p, reps)
        if k is None:
            reps.append(p)
            mults.append(1)
        else:
            mults[k] += 1
    return Decomposition(list(zip(reps, mults)))


def indec_isomorphism(x: Representation, y: Representation):
    """For modules with local endomorphism rings, a map f : x -> y that is an
    isomorphism, or None if there is none: the first element of hom_basis(x, y)
    that is invertible at every vertex.

    When x and y are isomorphic by some phi, the maps x -> y that are not
    isomorphisms form the proper subspace phi . rad End(x), which no basis of
    Hom(x, y) lies in.
    """
    if x.dims != y.dims:
        return None
    if x is y:
        return identity_morphism(x)
    if x.total_dim == 0:
        return zero_morphism(x, y)
    for f in hom_basis(x, y):
        if morphism_is_invertible(f):
            return f
    return None


def indec_isomorphic(x: Representation, y: Representation) -> bool:
    """Isomorphism test for modules with local endomorphism rings."""
    return indec_isomorphism(x, y) is not None


def iso_class_index(rep: Representation, cands):
    """The first index i with rep isomorphic to cands[i], for indecomposable rep; else None.

    Dimension vectors are compared here so that only candidates that can
    match count as isomorphism tests.
    """
    for i, c in enumerate(cands):
        if rep.dims == c.dims and indec_isomorphic(rep, c):
            return i
    return None


def is_isomorphic(m: Representation, n: Representation) -> bool:
    if m.algebra is not n.algebra:
        raise DimensionMismatch("modules over different algebras")
    if m.dims != n.dims:
        return False
    if m.total_dim == 0:
        return True
    return same_summands(indecomposable_summands(m), indecomposable_summands(n))


def same_summands(left, right) -> bool:
    """Whether two lists of indecomposables agree up to isomorphism and order."""
    right = list(right)
    if len(left) != len(right):
        return False
    for p in left:
        k = iso_class_index(p, right)
        if k is None:
            return False
        right.pop(k)
    return True
