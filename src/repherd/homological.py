"""Covers, syzygies, translates, extensions, and minimal approximations."""
from __future__ import annotations

from .algebra import Path
from .dims import DimValue
from .errors import VerificationFailed, ZProjective
from .linalg import Mat, SpanTracker, col_space, hstack, kernel_basis, rank, solve, vstack
from .modules import (
    HomTable,
    ModuleMorphism,
    Representation,
    cokernel_of,
    cokernel_with_section,
    compose,
    direct_sum,
    dual_module,
    dual_morphism,
    endomorphism_radical,
    gen_cogen,
    hom_basis,
    indecomposable_summands,
    iso_class_index,
    known_index,
    morphism_combo,
    morphism_flat,
    projective_at,
    projective_paths,
    quotient_with_section,
    same_summands,
    subrep_from_bases,
    top_dims,
    top_places,
    zero_morphism,
    zero_rep,
)


class ShortExactSequence:
    """0 -> X -> E -> Z -> 0 given by the two middle morphisms.  Immutable by convention."""

    __slots__ = ("left", "right")

    def __init__(self, left: ModuleMorphism, right: ModuleMorphism):
        self.left = left    # X -> E, mono
        self.right = right  # E -> Z, epi

    @property
    def middle(self):
        return self.left.target

    def verify(self):
        x, e, z = self.left.source, self.middle, self.right.source
        if self.right.source is not e:
            raise VerificationFailed("sequence maps do not share the middle term")
        for v in range(len(e.dims)):
            if e.dims[v] != x.dims[v] + self.right.target.dims[v]:
                raise VerificationFailed("middle term dimensions are off")
            if rank(self.left.mats[v]) != x.dims[v]:
                raise VerificationFailed("left map is not mono")
            if rank(self.right.mats[v]) != self.right.target.dims[v]:
                raise VerificationFailed("right map is not epi")
            if not self.right.mats[v].mul(self.left.mats[v]).is_zero():
                raise VerificationFailed("composite is nonzero")
        return self


class SyzygyRecord:
    """What a right minimal map onto a module X says of its kernel, with no morphism.

    source_dims is the dimension vector of the map's source, kernel a module isomorphic to its
    kernel, tops the vertices of the top of the kernel, sorted and with multiplicity, and
    projective whether the kernel is projective.  Knitting and syzygy_record write it for the
    projective cover P0(X), whose kernel is Omega X; the kernel test's general path also
    writes one for a minimal add(A + DA)-approximation of X.  Each field is invariant under
    isomorphism of X, so a record made for one module holds for any module isomorphic to it.
    Immutable by convention.
    """

    __slots__ = ("source_dims", "tops", "projective", "kernel")

    def __init__(self, source_dims, tops, projective, kernel):
        self.source_dims = source_dims
        self.tops = tops
        self.projective = projective
        self.kernel = kernel


# -- covers and envelopes ------------------------------------------------------


def _projective_sum(alg, verts):
    """The sum of the P(v) for the vertex tuple verts, built once per algebra and tuple."""
    if verts not in alg._projective_sums:
        alg._projective_sums[verts] = direct_sum(alg, [projective_at(alg, v) for v in verts])
    return alg._projective_sums[verts]


def _from_generators(m: Representation, gens) -> ModuleMorphism:
    """The map from the sum of the P(v_k) to m that sends the top e_{v_k} of the k-th summand
    to w_k, for gens = [(v_k, w_k)] with w_k a vector of m at v_k.

    A basis path p of P(v_k) goes to w_k acted on by p: its last arrow applied to the image
    of its prefix.  The images are kept by arrow tuple, and a path walks down to the longest
    prefix already met, which assumes nothing of the order of the paths or of their
    prefixes.  Any choice of the w_k gives a morphism, and `check` verifies that it
    commutes with the arrows.
    """
    alg = m.algebra
    src = _projective_sum(alg, tuple(v for v, _ in gens))
    cols = [[] for _ in m.dims]
    for v, w in gens:
        seen = {(): w}
        for c, plist in enumerate(projective_paths(alg, v)[1]):
            for pth in plist:
                arr = pth.arrows
                j = len(arr)
                while arr[:j] not in seen:
                    j -= 1
                img = seen[arr[:j]]
                for k in range(j, len(arr)):
                    img = seen[arr[:k + 1]] = m.mats[arr[k]].apply(img)
                cols[c].append(img)
    mats = [Mat(alg.field, d, len(cs), tuple(col[i] for i in range(d) for col in cs)) for d, cs in zip(m.dims, cols)]
    return ModuleMorphism(src, m, tuple(mats)).check()


def _cover_data(m: Representation):
    """Projective cover as (morphism, list of summand vertices, kernel basis at each vertex).

    The generators are the e_s at the places `top_places` keeps, which lift a basis of the
    top.  One elimination per vertex gives the kernel there, and rank-nullity on it
    certifies that the cover is onto.
    """
    fld = m.algebra.field
    z, o = fld.zero, fld.one
    gens = [(v, tuple(o if i == s else z for i in range(m.dims[v]))) for v, s in top_places(m)]
    f = _from_generators(m, gens)
    bases = [kernel_basis(a) for a in f.mats]
    if any(a.cols - b.cols != d for a, b, d in zip(f.mats, bases, m.dims)):
        raise VerificationFailed("projective cover is not surjective")
    return f, [v for v, _ in gens], bases


def projective_cover(m: Representation) -> ModuleMorphism:
    """The epi P0(m) -> m lifting a basis of the top."""
    return _cover_data(m)[0]


def cover_with_kernel(m: Representation):
    """(the projective cover of m, its kernel, the kernel's inclusion), from one elimination."""
    f, _, bases = _cover_data(m)
    return (f,) + subrep_from_bases(f.source, bases)


def cover_dims(alg, top):
    """The dimension vector of the projective cover of a module over alg whose top has dimensions
    top: the sum of the P(v)^{top_v} (Auslander–Reiten–Smalø, ch. I), counted and not built.
    Only the vertices in the top are read, each P(v) from projective_at's cache."""
    dims = [0] * len(top)
    for v, t in enumerate(top):
        if t:
            for u, d in enumerate(projective_at(alg, v).dims):
                dims[u] += t * d
    return dims


def kernel_record(source_dims, k):
    """The SyzygyRecord of a right minimal map onto a module from a module of dimensions
    source_dims, with kernel k.  The top of k is read once; the projective cover of k maps onto k, so k is
    projective exactly when that cover has the dimensions of k, and none is built."""
    top = top_dims(k)
    tops = tuple(v for v, t in enumerate(top) for _ in range(t))
    return SyzygyRecord(source_dims, tops, cover_dims(k.algebra, top) == list(k.dims), k)


def syzygy_record(m: Representation, cover=None) -> SyzygyRecord:
    """The SyzygyRecord of m, from one projective cover and its kernel: `cover`, _cover_data(m)
    when given, which _transpose_with_cover(m, cover) can then reuse."""
    if cover is None:
        f, ker, _ = cover_with_kernel(m)
    else:
        f, ker = cover[0], subrep_from_bases(cover[0].source, cover[2])[0]
    return kernel_record(f.source.dims, ker)


def injective_envelope(m: Representation) -> ModuleMorphism:
    """The mono m -> I0(m), computed through the dual cover."""
    dm = dual_module(m)
    pi = projective_cover(dm)
    env = dual_morphism(pi)  # dual(dm) -> dual(P0)
    return ModuleMorphism(m, env.target, env.mats).check()


def syzygy(m: Representation, k: int = 1) -> Representation:
    cur = m
    for _ in range(k):
        cur = cover_with_kernel(cur)[1]
    return cur


def cosyzygy(m: Representation, k: int = 1) -> Representation:
    cur = m
    for _ in range(k):
        cur = cokernel_of(injective_envelope(cur))[0]
    return cur


def proj_dim(m: Representation, bound: int | None = None) -> DimValue:
    """Projective dimension, with a syzygy isomorphic to an earlier one certifying infinity.

    A syzygy is decomposed only when its dimension vector repeats one seen
    before, and each at most once: its summands are kept for later syzygies.
    """
    if bound is None:
        bound = 2 * m.algebra.dim
    if m.is_zero():
        return DimValue.finite(0)
    syz = [m]
    pieces = {}

    def summands(k):
        if k not in pieces:
            pieces[k] = indecomposable_summands(syz[k])
        return pieces[k]

    for i in range(1, bound + 1):
        cur = cover_with_kernel(syz[-1])[1]
        if cur.is_zero():
            return DimValue.finite(i - 1)
        syz.append(cur)
        if any(same_summands(summands(k), summands(i)) for k in range(i) if syz[k].dims == cur.dims):
            return DimValue.infinite()
    return DimValue.at_least(bound)


def inj_dim(m: Representation, bound: int | None = None) -> DimValue:
    if m.is_zero():
        return DimValue.finite(0)
    return proj_dim(dual_module(m), bound)


# -- transpose and translates ---------------------------------------------------


def transpose(m: Representation) -> Representation:
    """Tr m over the opposite algebra, from a minimal projective presentation."""
    if m.is_zero():
        return zero_rep(m.algebra.opposite)
    return _transpose_with_cover(m)[0]


def _transpose_with_cover(m: Representation, cover=None):
    """(Tr m, the projective cover of m, the inclusion of its kernel, the SyzygyRecord of m, the
    SyzygyRecord of Tr m over the opposite algebra), from `cover`, _cover_data(m), when given.

    With g : P1 -> P0 the minimal presentation, P1 the sum of the P(a_l) and P0 that of the
    P(b_k), Tr m is the cokernel of g* : sum_k P^op(b_k) -> sum_l P^op(a_l).  g sends the top
    of P(a_l) to a combination of paths from b_k to a_l in each P(b_k), and g* sends the top
    of P^op(b_k) to the same combination of the reversed paths in each P^op(a_l).

    Both records come from what the presentation already holds, and each keeps its Omega.
    That of m reads Omega m = K off the first cover, its top off the second, and
    Omega^2 m = 0 off the second cover's kernel.  g* is a minimal presentation of Tr m when m
    has no projective summand (Auslander-Reiten-Smalø IV.1): its image is Omega Tr m, of
    dimension dim P1* - dim Tr m, which is projective exactly when g* is mono, that is when it
    has the dimension of P0*, and whose top is that of P0*.  The record of Tr m keeps P0* as
    Omega Tr m when g* is mono, and otherwise the span of the columns of g*, whose spaces are
    reduced once for it and for Tr m.  P1* -> Tr m is
    a projective cover when no top of a P^op(b_k) goes to a combination with a stationary
    path in it, which is checked here.
    """
    alg = m.algebra
    op = alg.opposite
    fld = alg.field
    cover0, verts0, bases0 = cover or _cover_data(m)
    k0, incl = subrep_from_bases(cover0.source, bases0)
    nv = len(m.dims)
    if k0.is_zero():
        zero = zero_rep(op)
        return (zero, cover0, incl, SyzygyRecord(cover0.source.dims, (), True, k0),
                SyzygyRecord(zero.dims, (), True, zero))
    cover1, verts1, bases1 = _cover_data(k0)
    g = compose(incl, cover1)  # P1 -> P0
    names = alg.quiver.vertices
    paths0 = [projective_paths(alg, b)[1] for b in verts0]
    tgt = _projective_sum(op, tuple(verts1))
    images = [[fld.zero] * tgt.dims[b] for b in verts0]
    col = [0] * nv  # where summand l of P1 starts at each vertex
    row = [0] * nv  # where summand l of the sum of the P^op(a_l) starts
    for a in verts1:
        p1, plists1 = projective_paths(alg, a)
        oplists = projective_paths(op, a)[1]
        if plists1[a][0].arrows or oplists[a][0].arrows:
            raise VerificationFailed("the first basis path of P(%s) at %s is not stationary" % (names[a], names[a]))
        r0 = 0  # where summand k of P0 starts at a
        for k, b in enumerate(verts0):
            pos = {op.basis_index[pth.key()]: i for i, pth in enumerate(oplists[b])}
            for i, pth in enumerate(paths0[k][a]):
                coeff = g.mats[a].at(r0 + i, col[a])
                if not coeff:
                    continue
                for t, x in enumerate(op.reduce_path(Path(a, pth.arrows[::-1]))):
                    if not x:
                        continue
                    if t not in pos:
                        raise VerificationFailed("a reversed path lands outside P^op(%s) at %s" % (names[a], names[b]))
                    j = row[b] + pos[t]
                    images[k][j] = fld.add(images[k][j], fld.mul(coeff, x))
            if b == a and images[k][row[a]]:
                raise VerificationFailed(
                    "g* sends the top of P^op(%s) to a stationary path: P1* -> Tr is not a cover" % names[b])
            r0 += len(paths0[k][a])
        for v in range(nv):
            col[v] += p1.dims[v]
            row[v] += len(oplists[v])
    gstar = _from_generators(tgt, [(b, tuple(w)) for b, w in zip(verts0, images)])
    images = [col_space(a) for a in gstar.mats]
    tr = quotient_with_section(tgt, images)[0]
    mono = [b.cols for b in images] == list(gstar.source.dims)
    omega = gstar.source if mono else subrep_from_bases(tgt, images)[0]
    return (tr, cover0, incl, SyzygyRecord(cover0.source.dims, tuple(verts1), not any(b.cols for b in bases1), k0),
            SyzygyRecord(tgt.dims, tuple(verts0), mono, omega))


def ar_translate(m: Representation) -> Representation:
    """tau = D Tr; projectives go to zero."""
    return dual_module(transpose(m))


def ar_translate_inv(m: Representation) -> Representation:
    """tau^{-1} = Tr D; injectives go to zero."""
    return transpose(dual_module(m))


# -- extensions -----------------------------------------------------------------


def _ext_classes(incl: ModuleMorphism, n: Representation):
    """Hom(K, n) modulo the maps that factor through incl : K -> P0.

    Returns the maps h in hom_basis(K, n) whose classes form a basis of the
    quotient, a span of the maps that factor, and a tracker of the classes'
    residues, whose coords give a residue's expression over those classes.
    """
    fld = n.algebra.field
    hk = hom_basis(incl.source, n)
    if not hk:
        return [], None, None
    width = len(morphism_flat(hk[0]))
    factor = SpanTracker(fld, width)
    for gmor in hom_basis(incl.target, n):
        factor.add(morphism_flat(compose(gmor, incl)))
    reps = []
    quot = SpanTracker(fld, width, track=True)
    for h in hk:
        res = factor.reduce(morphism_flat(h))
        if not quot.contains(res):
            quot.add(res)
            reps.append(h)
    return reps, factor, quot


def ext1_dim(m: Representation, n: Representation) -> int:
    """dim Ext^1(m, n) = Hom(Omega m, n) modulo maps factoring through P0(m)."""
    return len(_ext_classes(cover_with_kernel(m)[2], n)[0])


def _restrict_to_kernel(incl: ModuleMorphism, phi0: ModuleMorphism) -> ModuleMorphism:
    """psi: K -> K with incl . psi = phi0 . incl."""
    k0 = incl.source
    mats = []
    for v in range(len(k0.dims)):
        rhs = phi0.mats[v].mul(incl.mats[v])
        x = solve(incl.mats[v], rhs)
        if x is None:
            raise VerificationFailed("kernel is not preserved by the lift")
        mats.append(x)
    return ModuleMorphism(k0, k0, tuple(mats)).check()


def almost_split_sequence(z: Representation, *, presentation=None) -> ShortExactSequence:
    """The sequence 0 -> tau z -> E -> z -> 0 for indecomposable non-projective z.

    A caller that has already transposed z passes `_transpose_with_cover(z)`
    as `presentation`, and the sequence is built from it.
    """
    alg = z.algebra
    fld = alg.field
    nv = alg.quiver.n_vertices
    if iso_class_index(z, gen_cogen(alg).projectives) is not None:
        raise ZProjective("almost split sequence requested for a projective module")
    tr, cover, incl = (presentation or _transpose_with_cover(z))[:3]
    tz = dual_module(tr)
    if tz.is_zero():
        raise VerificationFailed("translate of a non-projective module vanished")
    k0 = incl.source
    reps, factor, quot = _ext_classes(incl, tz)
    if not reps:
        raise VerificationFailed("Ext^1(z, tau z) vanished")

    rad = endomorphism_radical(z)
    if rad:
        action_rows = []
        for phi in rad:
            phi0 = solve_factor_right(cover, compose(phi, cover))
            if phi0 is None:
                raise VerificationFailed("endomorphism does not lift through the cover")
            psi = _restrict_to_kernel(incl, phi0)
            cols = []
            for h in reps:
                res = factor.reduce(morphism_flat(compose(h, psi)))
                coords = quot.coords(res)
                if coords is None:
                    raise VerificationFailed("radical action left the extension space")
                cols.append(coords)
            k = len(reps)
            ent = tuple(cols[j][i] for i in range(k) for j in range(k))
            action_rows.append(Mat(fld, k, k, ent))
        soc = kernel_basis(vstack(fld, action_rows, cols=len(reps)))
        if soc.cols == 0:
            raise VerificationFailed("socle of the extension space is empty")
        coeffs = soc.col(0)
    else:
        coeffs = tuple(fld.one if i == 0 else fld.zero for i in range(len(reps)))
    hstar = morphism_combo(fld, reps, coeffs, k0, tz)

    # pushout: E = (tz + P0) / (hstar, -incl)(K)
    p0 = cover.source
    umats = []
    for v in range(nv):
        umats.append(vstack(fld, [hstar.mats[v], incl.mats[v].neg()], cols=k0.dims[v]))
    big = direct_sum(alg, [tz, p0])
    u = ModuleMorphism(k0, big, tuple(umats)).check()
    e_rep, proj, sections = cokernel_with_section(u)
    # the maps (0 | pi) : tz + P0 -> z and the inclusions of tz into tz + P0, at each vertex
    zero_pi = [hstack(fld, [Mat.zeros(fld, z.dims[v], tz.dims[v]), cover.mats[v]], rows=z.dims[v]) for v in range(nv)]
    incs = [vstack(fld, [Mat.identity(fld, d), Mat.zeros(fld, p0.dims[v], d)], cols=d) for v, d in enumerate(tz.dims)]
    amats = [proj.mats[v].mul(incs[v]) for v in range(nv)]
    a = ModuleMorphism(tz, e_rep, tuple(amats)).check()
    b = ModuleMorphism(e_rep, z, tuple(zero_pi[v].mul(sections[v]) for v in range(nv))).check()
    for v in range(nv):
        if not b.mats[v].mul(proj.mats[v]).eq(zero_pi[v]):
            raise VerificationFailed("right map does not factor the quotient")
    return ShortExactSequence(a, b).verify()


def solve_factor_right(f: ModuleMorphism, h: ModuleMorphism):
    """g with f . g = h, where h : X -> target(f); None if impossible."""
    x = h.source
    fld = x.algebra.field
    basis = hom_basis(x, f.source)
    target = morphism_flat(h)
    if not basis:
        return None if any(target) else zero_morphism(x, f.source)
    cols = [morphism_flat(compose(f, b)) for b in basis]
    a = Mat(fld, len(target), len(basis), tuple(cols[j][i] for i in range(len(target)) for j in range(len(basis))))
    sol = solve(a, Mat.column(fld, target))
    if sol is None:
        return None
    return morphism_combo(fld, basis, sol.col(0), x, f.source)


# -- trace and approximations ---------------------------------------------------


def evaluation(xs, m: Representation) -> ModuleMorphism:
    """The evaluation sum_j X_j^{Hom(X_j, m)} -> m, one component per basis map X_j -> m.

    Its image is the trace of add(xs) in m.
    """
    if not xs:
        raise ValueError("trace needs a nonempty module list")
    return _assemble_columns(m.algebra, m, [(x, h) for x in xs for h in hom_basis(x, m)])


def trace_dims(xs, m: Representation):
    """The dimension vector of the trace of add(xs) in m: the ranks of the evaluation."""
    return image_dims([h for x in xs for h in hom_basis(x, m)], m)


def image_dims(maps, m: Representation):
    """The dimension vector of the sum of the images of maps into m: at each vertex, the rank
    of their matrices side by side, which are those of the evaluation from their sources."""
    fld = m.algebra.field
    return [rank(hstack(fld, [h.mats[v] for h in maps], rows=d)) for v, d in enumerate(m.dims)]


def in_gen(xs, m: Representation) -> bool:
    return trace_dims(xs, m) == list(m.dims)


def in_cogen(xs, m: Representation) -> bool:
    """m lies in Cogen(xs) exactly when Dm lies in Gen(D xs) over the opposite algebra."""
    return in_gen([dual_module(x) for x in xs], dual_module(m))


def _assemble_columns(alg, m, comps):
    """Morphism sum of sources -> m given component morphisms into m."""
    fld = alg.field
    parts = [x for (x, _) in comps]
    src = direct_sum(alg, parts)
    mats = []
    for v in range(len(m.dims)):
        mats.append(hstack(fld, [h.mats[v] for (_, h) in comps], rows=m.dims[v]))
    return ModuleMorphism(src, m, tuple(mats)).check()


def _spans(fld, vecs, dim) -> bool:
    """Whether vectors that lie in a space of dimension dim span all of it."""
    if len(vecs) < dim:
        return False
    return not dim or rank(Mat(fld, len(vecs), len(vecs[0]), tuple(x for v in vecs for x in v))) == dim


def minimal_right_approx(m: Representation, xs, _homs=None) -> ModuleMorphism:
    """Minimal right approximation of m by add of the given module list.

    The universal map has one component per basis morphism h : X_i -> m.  A
    set of components is a right approximation when, for every X_j, the
    composites h . b with b in Hom(X_j, X_i) span Hom(X_j, m).  Dropping a
    component only shrinks these spans, so a component that cannot be dropped
    never becomes droppable, and one pass in order drops exactly what a greedy
    search restarted after each removal drops.

    Hom(X_i, m) and the Hom(X_j, X_i) are read from a `HomTable`, which solves
    only the entries of xs.  `_homs` is an internal argument: a table whose
    modules include each of xs, the very objects, shared by callers that
    approximate by the same modules again; without it a fresh table is built.
    """
    if _homs is None:
        _homs = HomTable(xs)
    at = [known_index(x, _homs.modules) for x in xs]
    if None in at:
        raise ValueError("the Hom table does not hold every module of the list")
    alg = m.algebra
    fld = alg.field
    to_m = [_homs.entry(m, a) for a in at]
    comps = []
    blocks = []  # blocks[k][j]: the flattened h . b, b in Hom(X_j, X_i), for component k = (X_i, h)
    for x, hs in zip(xs, to_m):
        if not hs:
            continue
        into_x = [_homs.entry(x, a) for a in at]
        for h in hs:
            comps.append((x, h))
            blocks.append([[morphism_flat(compose(h, b)) for b in hb] for hb in into_x])

    def approximates(keep, js):
        return all(_spans(fld, [vec for k in keep for vec in blocks[k][j]], len(to_m[j])) for j in js)

    keep = list(range(len(comps)))
    if not approximates(keep, range(len(xs))):
        raise VerificationFailed("universal map is not an approximation")
    for k in range(len(comps)):
        trial = [t for t in keep if t != k]
        # only the spans that component k feeds can shrink
        if approximates(trial, [j for j in range(len(xs)) if blocks[k][j]]):
            keep = trial
    return _assemble_columns(alg, m, [comps[k] for k in keep])


def minimal_left_approx(m: Representation, xs) -> ModuleMorphism:
    """Minimal left approximation of m by add of the given module list.

    The dual of the minimal right approximation of Dm by the duals of xs.
    """
    g = dual_morphism(minimal_right_approx(dual_module(m), [dual_module(x) for x in xs]))
    return ModuleMorphism(m, g.target, g.mats)
