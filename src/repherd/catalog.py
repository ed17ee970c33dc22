"""Enumeration of indecomposables, the AR quiver, and coarse partitions."""
from __future__ import annotations

from functools import cached_property

from .dims import DimValue
from .errors import BudgetExceeded, IncompleteCatalog, RepherdError, VerificationFailed
from .homological import (
    _cover_data,
    _transpose_with_cover,
    almost_split_sequence,
    cover_dims,
    image_dims,
    syzygy_record,
)
from .modules import (
    cokernel_of,
    dual_module,
    gen_cogen,
    indec_isomorphic,
    indecomposable_summands,
    iso_class_index,
    known_index,
    radical_of,
    socle_of,
    top_dims,
)

_SUPERSCRIPT = {"-": "⁻", "0": "⁰", "1": "¹", "2": "²", "3": "³",
                "4": "⁴", "5": "⁵", "6": "⁶", "7": "⁷", "8": "⁸", "9": "⁹"}


def _sup(n: int) -> str:
    return "".join(_SUPERSCRIPT[c] for c in str(n))


class Budget:
    # the defaults, which the command line reads from the class
    max_modules = 64
    max_total_dim = 128

    def __init__(self, max_modules=max_modules, max_total_dim=max_total_dim):
        self.max_modules, self.max_total_dim = max_modules, max_total_dim


class CatalogNode:
    def __init__(self, rep, name="", proj_vertex=None, inj_vertex=None, simple_vertex=None, tau=None,
                 tau_inv=None, arrows=None, split=None, record=None, dual_record=None):
        self.rep, self.name = rep, name
        self.proj_vertex, self.inj_vertex, self.simple_vertex = proj_vertex, inj_vertex, simple_vertex
        self.tau = tau           # index of tau(this) when non-projective
        self.tau_inv = tau_inv   # index of tau^{-1}(this) when non-injective
        # The AR arrows into this node, {source index: multiplicity}: the summands of
        # rad P, or of the middle term of the almost-split sequence ending here, read
        # off the arrows out of both of its ends, and the seeds not yet knitted, when
        # they add up (see _mesh_middle), else off the arrows into its left end
        # translated by tau^{-1}, or out of this node translated by tau
        # (_translated_middle).  None until the node is knitted.
        self.arrows = arrows
        # At a seed, a node flagged P(v), or flagged I(v) and not projective: (the
        # summands of rad P, or of I/soc I, n), split against the first n nodes.  Made
        # once, when a mesh read or the seed's own step first asks for it (_seed_split).
        self.split = split
        # The SyzygyRecord of rep, and of dual over A^op, from the transpose at either end of the
        # node's tau pair: a transpose of X records X and Tr X, and D Tr X = tau X.  So the tau
        # step writes this node's record and its translate's dual_record, and the tau^{-1} step
        # this node's dual_record and its translate's record.  Where the budget stopped knitting
        # first, _fill_tau_tables writes the record from one cover, and the translate's
        # dual_record when it links the pair.  Each record keeps Omega as a module.  None at a
        # projective (injective) node; dual_record is also None at a node whose tau^{-1} a
        # knitting stopped by the budget never reached.
        self.record, self.dual_record = record, dual_record

    @property
    def in_add_gen_cogen(self):
        return self.proj_vertex is not None or self.inj_vertex is not None

    @cached_property
    def dual(self):
        """D of the module over A^op, built once; for a summand of add(A + DA), gen_cogen's own."""
        gc = gen_cogen(self.rep.algebra)
        k = known_index(self.rep, gc.modules)
        return dual_module(self.rep) if k is None else gc.duals[k]


class IndecomposableCatalog:
    def __init__(self, algebra, nodes, complete):
        self.algebra = algebra
        self.nodes = nodes
        self.complete = complete
        self._facts = None

    def __len__(self):
        return len(self.nodes)

    def find(self, rep):
        return iso_class_index(rep, [node.rep for node in self.nodes])


def enumerate_indecomposables(alg, budget: Budget | None = None, strict: bool = False) -> IndecomposableCatalog:
    """Closure of the projectives and injectives under AR-neighbor moves.

    Stops and marks the catalog incomplete when the budget would be
    exceeded; with strict=True that raises BudgetExceeded instead.
    """
    if budget is None:
        budget = Budget()
    gc = gen_cogen(alg)
    cat = IndecomposableCatalog(alg, [], True)
    nodes = cat.nodes
    queue = []
    kept_inv, kept_tau = {}, {}  # node index: a transpose a read made for its tau^{-1} (tau) step
    rad, top = {}, {}  # knitted P (I) index: its arrows from rad P (to I/soc I)
    total_dim = 0
    complete = True

    def try_add(rep, start=0):
        """Index of rep's node among the nodes from start on, adding and queueing a new one;
        None over budget."""
        nonlocal total_dim, complete
        idx = iso_class_index(rep, [node.rep for node in nodes[start:]])
        if idx is not None:
            return start + idx
        if len(nodes) + 1 > budget.max_modules or total_dim + rep.total_dim > budget.max_total_dim:
            complete = False
            return None
        node = CatalogNode(rep)
        if rep.total_dim == 1:
            node.simple_vertex = rep.dims.index(1)
        nodes.append(node)
        queue.append(len(nodes) - 1)
        total_dim += rep.total_dim
        return len(nodes) - 1

    def node_of(piece, known):
        """Node index of a summand that indecomposable_summands(rep, known) returned, adding a
        new one; None over budget.  A summand that matched none of the known nodes is
        compared only with the nodes added since."""
        idx = known_index(piece, known)
        return try_add(piece, len(known)) if idx is None else idx

    def commit(pieces, n):
        """{node index: multiplicity} of pieces split against the first n nodes, adding new
        ones; None once over budget."""
        known = [node.rep for node in nodes[:n]]
        counts = {}
        for piece in pieces:
            idx = node_of(piece, known)
            if idx is None:
                return None
            counts[idx] = counts.get(idx, 0) + 1
        return counts

    def add_translate(rep):
        """Node index of a translate of an indecomposable, or None over budget."""
        known = [node.rep for node in nodes]
        return node_of(_translate_piece(rep, known), known)

    def in_arrows(s, t, z, presentation):
        """The in-arrows of node t, at the right end of the almost-split sequence that starts at
        node s; None once over budget.  They are read off the arrows out of s and out of t when
        those add up, and otherwise off the in-arrows of s translated by tau^{-1}, or off the
        out-arrows of t translated by tau, when that end has them all and they add up; the
        pieces of such a read are committed as a split of the middle term made here would
        commit them.  Only when all three reads decline is the sequence ending at z (t's
        module, or D of s's over A^op) built from its transpose `presentation`, and its middle
        term split."""
        arrows = _mesh_middle(nodes, s, t)
        if arrows is not None:
            return arrows
        # the arrows out of t: the middle term of the sequence starting at t, or I/soc I
        link = nodes[t].tau_inv
        out = top.get(t) if link is None else nodes[link].arrows
        for at, seeds, kept, by_tau in ((nodes[s].arrows, rad, kept_inv, False), (out, top, kept_tau, True)):
            pieces = None if at is None else _translated_middle(nodes, s, t, at, seeds, kept, by_tau)
            if pieces is not None:
                return commit(pieces, len(nodes))
        middle = almost_split_sequence(z, presentation=presentation).middle
        return commit(*_split(nodes, middle if z.algebra is alg else dual_module(middle)))

    # Seeding flags the nodes of P(v) and I(v).  Once it is complete, every
    # projective and injective class is a node, so no later node is either.
    # When the budget stops it, knitting never runs.
    for attr, reps in (("proj_vertex", gc.projectives), ("inj_vertex", gc.injectives)):
        for v, rep in enumerate(reps):
            idx = try_add(rep)
            if idx is not None:
                setattr(nodes[idx], attr, v)

    # Knitting.  A node's neighbours, in the order that fixes node names:
    # rad P, I/soc I, then tau and the middle of the sequence ending at the
    # node, then tau^{-1} and the middle of the sequence ending there.  A
    # node with a tau link got both of its tau-side neighbours as the
    # tau^{-1} side of its translate, and dually, so each tau step runs once
    # and transposes once; the skipped steps could only re-find nodes, which
    # keeps the order.  The summands of rad P, or of the middle term, are the
    # node's in-arrows.  A middle term whose summands the arrows out of its
    # two ends, with the seeds not yet knitted, already account for is read
    # off them: those summands are all nodes.  Otherwise it is read off the
    # in-arrows of its left end translated by tau^{-1}, or else off the
    # out-arrows of its right end translated by tau, when that end has them
    # all and they add up, and its pieces are committed as a split of the
    # built middle term would commit them: a new node holds Tr D W or D Tr Z,
    # isomorphic to that split's piece, so order, names and arrows are the
    # same either way.  A translate such a read makes is kept for W's own
    # tau^{-1} step, or Z's tau step, which then transposes no more.  The
    # sequence is built only when the three reads decline.  A seed's rad P or
    # I/soc I is split once, maybe by an earlier read, and its pieces are
    # committed here, in queue order: a piece that matched none of the nodes
    # known at the split is compared with the nodes added since, so each gets
    # the index a split made here would give.
    pos = 0
    while pos < len(queue) and complete:
        idx = queue[pos]
        pos += 1
        node = nodes[idx]
        if node.proj_vertex is not None:
            node.arrows = rad[idx] = commit(*_seed_split(nodes, idx))
            if node.arrows is None:
                break
        if node.inj_vertex is not None:
            split = _seed_split(nodes, idx) if node.proj_vertex is None else _split(nodes, _socle_quotient(node.rep))
            top[idx] = commit(*split)
            if top[idx] is None:
                break
        if node.proj_vertex is None and node.tau is None:
            presentation = kept_tau.pop(idx, None) or _transpose_with_cover(node.rep)
            node.record = presentation[3]
            j = add_translate(dual_module(presentation[0]))
            if j is None:
                break
            node.tau = j
            nodes[j].tau_inv = idx
            nodes[j].dual_record = presentation[4]
            node.arrows = in_arrows(j, idx, node.rep, presentation)
            if node.arrows is None:
                break
        if node.inj_vertex is None and node.tau_inv is None:
            # D of the sequence over A^op that ends at D(node): tau^{-1} = Tr D
            dual = node.dual
            presentation = kept_inv.pop(idx, None) or _transpose_with_cover(dual)
            node.dual_record = presentation[3]
            j = add_translate(presentation[0])
            if j is None:
                break
            node.tau_inv = j
            nodes[j].tau = idx
            nodes[j].record = presentation[4]
            nodes[j].arrows = in_arrows(idx, j, dual, presentation)
            if nodes[j].arrows is None:
                break

    cat.complete = complete
    if not complete and strict:
        raise BudgetExceeded("enumeration exceeded the budget", partial=cat)

    _fill_tau_tables(cat, kept_tau)
    _assign_names(cat)
    return cat


def arrow_dims(nodes, arrows, n_vertices):
    """The dimension vector of the sum of nodes[i]^mult over arrows {i: mult}."""
    return [sum(m * nodes[i].rep.dims[v] for i, m in arrows.items()) for v in range(n_vertices)]


def _mesh_middle(nodes, s, t):
    """The middle term of the almost-split sequence 0 -> nodes[s] -> E -> nodes[t] -> 0, as
    {node index: multiplicity}, read off the arrows recorded out of both of its ends and the
    seeds not yet knitted; None when their dimension vectors do not add up to
    dim nodes[s] + dim nodes[t].  No node is added.

    Every node has End/rad = k, so the arrows out of tau Y are the arrows into Y, mult for
    mult (Auslander-Reiten-Smalø, ch. V): each recorded arrow s -> Y of multiplicity m makes
    Y^m a summand of E, and so does each recorded t -> W, at a node W with a tau link, for
    Y = tau W: that arrow came from the sequence ending at W.  When the two name one
    Y with different multiplicities, the recorded arrows are not meshes and VerificationFailed
    is raised.  When they fall short, the seeds are read as _read_seeds reads them, with I(v)
    read at t.  When the summands add up to dim E, Krull-Schmidt leaves room for no other.
    """
    middle = {}
    for k, node in enumerate(nodes):
        if node.arrows:
            for y, m in ((k, node.arrows.get(s)), (node.tau, node.arrows.get(t))):
                if y is not None and m is not None and middle.setdefault(y, m) != m:
                    raise VerificationFailed("the arrows out of both ends of an almost split sequence disagree")
    want = [a + b for a, b in zip(nodes[s].rep.dims, nodes[t].rep.dims)]
    missing = [w - d for w, d in zip(want, arrow_dims(nodes, middle, len(want)))]
    return None if any(_read_seeds(nodes, middle, missing, s, t)) else middle


def _read_seeds(nodes, middle, missing, s, t):
    """Read into middle, {node index: multiplicity}, the seeds with no arrows yet that fit in
    missing, what the summands read so far leave of the dimension vector of the middle term E
    of 0 -> nodes[s] -> E -> nodes[t] -> 0, and return what is then missing.

    rad P -> P is the sink map of P and I -> I/soc I the source map of I (Assem-Simson-
    Skowroński IV.3), so P(v)^m is a summand of E for the m pieces of rad P(v) that are node s,
    and, when t is not None, I(v)^m for the m pieces of I(v)/soc I(v) that are node t.  Each
    is read off the seed's kept split.  A split that raises here is not kept, and that seed is
    skipped.
    """
    for k, node in enumerate(nodes):
        if not any(missing):
            break
        end = s if node.proj_vertex is not None else t if node.inj_vertex is not None else None
        if end is None or node.arrows is not None or k in middle or any(d > m for d, m in zip(node.rep.dims, missing)):
            continue
        try:
            pieces, _ = _seed_split(nodes, k)
        except RepherdError:
            continue
        m = sum(indec_isomorphic(p, nodes[end].rep) for p in pieces)
        if m:
            middle[k] = m
            missing = [a - m * d for a, d in zip(missing, node.rep.dims)]
    return missing


def _translated_middle(nodes, s, t, arrows, seeds, kept, by_tau):
    """The summands of the middle term E of the almost-split sequence
    0 -> nodes[s] -> E -> nodes[t] -> 0 read off the arrows at one end, translated: the arrows
    into s by tau^{-1}, or with by_tau the arrows out of t by tau.  They come as modules sorted
    by dimension vector; None when their dimension vectors do not add up to dim E, when two that
    are not isomorphic share one, or when a RepherdError is raised.  No node is added.

    The irreducible maps out of s go to (tau^{-1} W)^m for each arrow W -> s of multiplicity m
    with W not injective, and to P^m for each projective P with s a summand of rad P m times;
    dually, those into t come from (tau Z)^m for each arrow t -> Z of multiplicity m with Z not
    projective, and from I^m for each injective I with t a summand of I/soc I m times
    (Auslander-Reiten-Smalø, ch. V; Assem-Simson-Skowroński IV.3-4).  arrows is
    {W or Z: m}, all the arrows at that end, and seeds {index of a knitted P or I: its arrows
    at the seed}, those of rad P or of I/soc I.  The translate is node W.tau_inv, or Z.tau,
    when that link is set; otherwise it is Tr D W, or D Tr Z, certified one piece as
    add_translate does, from a transpose that kept[W or Z] holds for that node's own step.
    The seeds not yet knitted are read by _read_seeds, P(v) at s or I(v) at t: an injective in
    E is some tau^{-1} W and a projective some tau Z.  With no two pieces of one dimension
    vector, the pieces come in the order of a split of E.  A read that raises drops from kept
    every transpose it made or used, so that the node's own step transposes again.
    """
    end = t if by_tau else s
    known = [node.rep for node in nodes]
    middle = {k: out[end] for k, out in seeds.items() if end in out}
    new, used = [], []
    try:
        for w, m in arrows.items():
            node = nodes[w]
            if (node.proj_vertex if by_tau else node.inj_vertex) is not None:
                continue
            link = node.tau if by_tau else node.tau_inv
            if link is not None:
                middle[link] = m
                continue
            used.append(w)
            if w not in kept:
                kept[w] = _transpose_with_cover(node.rep if by_tau else node.dual)
            translate = kept[w][0]
            piece = _translate_piece(dual_module(translate) if by_tau else translate, known)
            k = known_index(piece, known)
            if k is None:
                new.append((piece, m))
            else:
                middle[k] = m
        want = [a + b for a, b in zip(nodes[s].rep.dims, nodes[t].rep.dims)]
        missing = [a - d - sum(m * x.dims[v] for x, m in new)
                   for v, (a, d) in enumerate(zip(want, arrow_dims(nodes, middle, len(want))))]
        if any(_read_seeds(nodes, middle, missing, None if by_tau else s, t if by_tau else None)):
            return None
    except RepherdError:
        for w in used:
            kept.pop(w, None)
        return None
    pieces = [(nodes[k].rep, m) for k, m in middle.items()] + new
    if len({x.dims for x, _ in pieces}) < len(pieces):
        return None
    return sorted((x for x, m in pieces for _ in range(m)), key=lambda x: x.dims)


def _translate_piece(rep, known):
    """The one piece of indecomposable_summands(rep, known), for rep a translate of an
    indecomposable; VerificationFailed when it vanished or has more pieces."""
    if rep.is_zero():
        raise VerificationFailed("translate of a non-projective or non-injective module vanished")
    pieces = indecomposable_summands(rep, known)
    if len(pieces) != 1:
        raise VerificationFailed("a translate of an indecomposable module is not indecomposable")
    return pieces[0]


def _socle_quotient(rep):
    """I/soc I, for I = rep."""
    return cokernel_of(socle_of(rep)[1])[0]


def _split(nodes, part):
    """(the summands of part, split against the modules of the nodes, the number of nodes)."""
    known = [node.rep for node in nodes]
    return indecomposable_summands(part, known), len(known)


def _seed_split(nodes, k):
    """The split of seed node k's rad P, or of its I/soc I when it is not projective, made
    against the nodes known at the first call and kept on the node."""
    node = nodes[k]
    if node.split is None:
        node.split = _split(nodes, radical_of(node.rep)[0] if node.proj_vertex is not None
                            else _socle_quotient(node.rep))
    return node.split


def _fill_tau_tables(cat: IndecomposableCatalog, kept):
    """Link tau for the nodes that a knitting stopped by the budget never reached, and write the
    records of each one and of its translate as the tau step does.

    Each such node X not projective gets its record, from the transpose that kept[X] holds when
    a read made one for X's tau step, else from one cover when the tau step did not write it,
    and the bounds of _tau_dims_bounds on dim tau X.  tau X is never injective, and a node
    whose tau^{-1} is linked is the translate of that node only.  So X is transposed, from the
    record's cover when there is one, and its translate looked up, only when a node that is
    neither fits in those bounds; any other lookup would find nothing.  A kept transpose is
    used and not made again.

    Knitting links every node of a complete catalog both ways.
    """
    if cat.complete:
        return
    nodes = cat.nodes
    for i, node in enumerate(nodes):
        if node.proj_vertex is not None or node.tau is not None:
            continue
        presentation, cover = kept.get(i), None
        if presentation is not None:
            node.record = presentation[3]
        elif node.record is None:
            cover = _cover_data(node.rep)
            node.record = syzygy_record(node.rep, cover)
        lo, hi = _tau_dims_bounds(node.rep, node.record)
        if not any(y.inj_vertex is None and y.tau_inv is None
                   and all(a <= d <= b for a, d, b in zip(lo, y.rep.dims, hi)) for y in nodes):
            continue
        presentation = presentation or _transpose_with_cover(node.rep, cover)
        node.tau = cat.find(dual_module(presentation[0]))
        if node.tau is not None:
            nodes[node.tau].tau_inv = i
            nodes[node.tau].dual_record = presentation[4]


def _tau_dims_bounds(rep, record):
    """(lo, hi) with lo <= dim tau rep <= hi at each vertex, from rep's SyzygyRecord.  A minimal
    presentation P1 -> P0 -> rep -> 0 gives the exact sequence
    0 -> tau rep -> nu P1 -> nu P0 -> nu rep -> 0 with nu P(v) = I(v) (Auslander-Reiten-Smalø
    IV.1), so hi = dim nu P1 and lo = hi - dim nu P0.  P1 is read off the tops of Omega rep in
    the record and P0 off the top of rep; over the opposite algebra the P(v) have the dimensions
    of the I(v)."""
    op = rep.algebra.opposite
    hi = cover_dims(op, [record.tops.count(v) for v in range(len(rep.dims))])
    return [a - b for a, b in zip(hi, cover_dims(op, top_dims(rep)))], hi


def _assign_names(cat: IndecomposableCatalog):
    verts = cat.algebra.quiver.vertices
    for i, node in enumerate(cat.nodes):
        if node.proj_vertex is not None:
            node.name = "P(%s)" % verts[node.proj_vertex]
        elif node.inj_vertex is not None:
            node.name = "I(%s)" % verts[node.inj_vertex]
        elif node.simple_vertex is not None:
            node.name = "S(%s)" % verts[node.simple_vertex]
    for i, node in enumerate(cat.nodes):
        if node.name:
            continue
        # reaching a projective P after k tau steps names tau^{-k} P; an injective I after k
        # tau^{-1} steps names tau^k I
        for link, end, letter, sign in (("tau", "proj_vertex", "P", -1), ("tau_inv", "inj_vertex", "I", 1)):
            hit = _walk_to(cat, i, link, end)
            if hit is not None:
                node.name = "τ%s%s(%s)" % (_sup(sign * hit[0]), letter, verts[hit[1]])
                break
        else:
            node.name = "M%d%s" % (i, node.rep.dims)


def _walk_to(cat: IndecomposableCatalog, i: int, link: str, end: str):
    """(k, v) for the first node k steps from node i along the `link` attribute whose `end`
    vertex v is set; None if the walk stops or cycles first."""
    seen = set()
    cur = i
    while cur is not None and cur not in seen:
        seen.add(cur)
        v = getattr(cat.nodes[cur], end)
        if v is not None:
            return len(seen) - 1, v
        cur = getattr(cat.nodes[cur], link)
    return None


def ar_quiver(cat: IndecomposableCatalog):
    """The AR quiver of a complete catalog: its arrows and its tau table.

    The arrows are (i, j, mult) for i -> j, sorted, with mult = dim rad(i, j)/rad^2(i, j).
    They are the in-arrows that knitting recorded at each node j: the summands of rad P
    when j is a projective P, and otherwise those of the middle term of the almost-split
    sequence ending at j.  Every node has End/rad = k, so the number of times a summand
    occurs is the multiplicity of its arrow.  The tau table is {i: index of tau(i)}.
    """
    if not cat.complete:
        raise IncompleteCatalog("AR quiver needs a complete catalog")
    arrows = sorted((i, j, mult) for j, node in enumerate(cat.nodes) for i, mult in node.arrows.items())
    tau_table = {i: node.tau for i, node in enumerate(cat.nodes) if node.tau is not None}
    return arrows, tau_table


def resolution_dims(base, kernels):
    """[d_i] for kernels[i], the node indices of the summands of a kernel at node i: 0 on the set
    base, otherwise 1 + the largest d_j over kernels[i] (1 when it is empty), and infinite when a
    chain of summands meets a node still open on it.  Each d_j is found once; no module is built."""
    dims = [DimValue.finite(0) if i in base else None for i in range(len(kernels))]

    def visit(i):
        dims[i] = DimValue.infinite()  # what a chain that comes back to i reads
        yield from (j for j in kernels[i] if dims[j] is None)
        if all(dims[j].is_finite for j in kernels[i]):
            dims[i] = DimValue.finite(1 + max((dims[j].value for j in kernels[i]), default=0))

    stack = [(root for root in range(len(kernels)) if dims[root] is None)]
    while stack:
        j = next(stack[-1], None)
        if j is None:
            stack.pop()
        else:
            stack.append(visit(j))
    return dims


def _kept_summands(node, record, at_base, known):
    """The indices in known of the summands of the Omega that node's record keeps; [] at a base
    node and where the record says Omega is projective."""
    if at_base or record is not None and record.projective:
        return []
    if record is None:
        raise VerificationFailed("%s has no syzygy record in a complete catalog" % node.name)
    found = [known_index(p, known) for p in indecomposable_summands(record.kernel, known)]
    if None in found:
        raise VerificationFailed("a summand of the syzygy of %s is no node of the complete catalog" % node.name)
    return found


def node_facts(cat: IndecomposableCatalog):
    """Per-node facts reused by the checks: pd, id, memberships, and omega and co_omega, the node
    indices of the summands of the Omega X and the Omega D X over A^op that the node's records
    keep, split against the nodes and their duals.  pd and id are their resolution_dims."""
    if cat._facts is not None:
        return cat._facts
    if not cat.complete:
        raise IncompleteCatalog("node facts need a complete catalog")
    gc = gen_cogen(cat.algebra)
    reps, duals = [node.rep for node in cat.nodes], [node.dual for node in cat.nodes]
    omega = [_kept_summands(node, node.record, node.proj_vertex is not None, reps) for node in cat.nodes]
    co_omega = [_kept_summands(node, node.dual_record, node.inj_vertex is not None, duals) for node in cat.nodes]
    pd = resolution_dims({i for i, node in enumerate(cat.nodes) if node.proj_vertex is not None}, omega)
    id_ = resolution_dims({i for i, node in enumerate(cat.nodes) if node.inj_vertex is not None}, co_omega)
    # the trace of DA in x is the image of the maps into x from the entries that are the I(v);
    # the duals of the projectives are the injectives over A^op, and dim rej_A(x) = dim x -
    # dim tr_{D A}(Dx).  Both traces read only these entries of the Hom tables' rows for x
    # and for Dx: trace is dim tr_{DA}(x), and cotrace is dim x - dim rej_A(x).
    n = len(gc.projectives)
    facts = []
    for k, (x, dx) in enumerate(zip(reps, duals)):
        trace = sum(image_dims([h for e in gc.inj_entries for h in gc.homs.entry(x, e)], x))
        cotrace = sum(image_dims([h for i in range(n) for h in gc.dual_homs.entry(dx, i)], dx))
        facts.append(
            {
                "pd": pd[k], "omega": omega[k],
                "id": id_[k], "co_omega": co_omega[k],
                "gen_da": trace == x.total_dim,
                "cogen_a": cotrace == x.total_dim,
                "supp_da": trace > 0,
                "supp_a": cotrace > 0,
            }
        )
    cat._facts = facts
    return facts


def left_right_parts(cat: IndecomposableCatalog):
    """(left, right): the nodes whose predecessors all have pd <= 1, and whose successors all have id <= 1.

    A predecessor of X is a node with a chain of nonzero maps to X, X included.  A complete
    catalog is all of ind A, so rad^infinity = 0 (Harada-Sai): every nonzero map between
    distinct indecomposables is a sum of composites of irreducible maps, and the
    predecessors of X are the nodes with a path to X along the AR arrows.
    """
    if not cat.complete:
        raise IncompleteCatalog("partitions need a complete catalog")
    n = len(cat.nodes)
    facts = node_facts(cat)
    out = [[] for _ in range(n)]
    for j, node in enumerate(cat.nodes):
        for i in node.arrows:
            out[i].append(j)
    below = _reach([i for i in range(n) if facts[i]["pd"].le(1) is not True], out)
    above = _reach([i for i in range(n) if facts[i]["id"].le(1) is not True], [node.arrows for node in cat.nodes])
    return [i for i in range(n) if i not in below], [i for i in range(n) if i not in above]


def _reach(starts, step):
    """The nodes reached from starts, starts included, along step[i]."""
    seen = set(starts)
    stack = list(starts)
    while stack:
        for j in step[stack.pop()]:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return seen
