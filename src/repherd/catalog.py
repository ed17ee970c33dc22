"""Enumeration of indecomposables, the AR quiver, and coarse partitions."""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import BudgetExceeded, IncompleteCatalog, VerificationFailed
from .homological import (
    _transpose_with_cover,
    almost_split_sequence,
    ar_translate,
    image_dims,
    inj_dim,
    proj_dim,
)
from .modules import (
    cokernel_of,
    dual_module,
    gen_cogen,
    indecomposable_summands,
    iso_class_index,
    known_index,
    radical_of,
    socle_of,
)

_SUPERSCRIPT = {"-": "⁻", "0": "⁰", "1": "¹", "2": "²", "3": "³",
                "4": "⁴", "5": "⁵", "6": "⁶", "7": "⁷", "8": "⁸", "9": "⁹"}


def _sup(n: int) -> str:
    return "".join(_SUPERSCRIPT[c] for c in str(n))


@dataclass
class Budget:
    max_modules: int = 64
    max_total_dim: int = 128


@dataclass
class CatalogNode:
    rep: object
    name: str = ""
    proj_vertex: int | None = None
    inj_vertex: int | None = None
    simple_vertex: int | None = None
    tau: int | None = None       # index of tau(this) when non-projective
    tau_inv: int | None = None   # index of tau^{-1}(this) when non-injective
    # The AR arrows into this node, {source index: multiplicity}: the summands of
    # rad P, or of the middle term of the almost-split sequence ending here, read
    # off the arrows out of tau of this node when they add up (see _mesh_middle).
    # None until the node is knitted.
    arrows: dict | None = None

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

    def add_summands(rep):
        """{node index: multiplicity} of rep's summands, adding new ones; None once over budget."""
        known = [node.rep for node in nodes]
        counts = {}
        for piece in indecomposable_summands(rep, known):
            idx = node_of(piece, known)
            if idx is None:
                return None
            counts[idx] = counts.get(idx, 0) + 1
        return counts

    def add_translate(rep):
        """Node index of a translate of an indecomposable, or None over budget."""
        if rep.is_zero():
            raise VerificationFailed("translate of a non-projective or non-injective module vanished")
        known = [node.rep for node in nodes]
        pieces = indecomposable_summands(rep, known)
        if len(pieces) != 1:
            raise VerificationFailed("a translate of an indecomposable module is not indecomposable")
        return node_of(pieces[0], known)

    def in_arrows(s, t, z, presentation):
        """The in-arrows of node t, at the right end of the almost-split sequence that starts at
        node s; None once over budget.  They are read off the arrows out of s when those add
        up; otherwise the sequence ending at z (t's module, or D of s's over A^op) is built
        from its transpose `presentation` and its middle term is split."""
        arrows = _mesh_middle(nodes, s, nodes[t].rep)
        if arrows is None:
            middle = almost_split_sequence(z, presentation=presentation).middle
            arrows = add_summands(middle if z.algebra is alg else dual_module(middle))
        return arrows

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
    # left end already account for is read off them, and the sequence is
    # built only when they fall short: the summands it would add are all
    # nodes, so order, names and arrows are the same either way.
    pos = 0
    while pos < len(queue) and complete:
        idx = queue[pos]
        pos += 1
        node = nodes[idx]
        if node.proj_vertex is not None:
            rad, _ = radical_of(node.rep)
            node.arrows = add_summands(rad)
            if node.arrows is None:
                break
        if node.inj_vertex is not None:
            soc, incl = socle_of(node.rep)
            quot, _ = cokernel_of(incl)
            if add_summands(quot) is None:
                break
        if node.proj_vertex is None and node.tau is None:
            presentation = _transpose_with_cover(node.rep)
            j = add_translate(dual_module(presentation[0]))
            if j is None:
                break
            node.tau = j
            nodes[j].tau_inv = idx
            node.arrows = in_arrows(j, idx, node.rep, presentation)
            if node.arrows is None:
                break
        if node.inj_vertex is None and node.tau_inv is None:
            # D of the sequence over A^op that ends at D(node): tau^{-1} = Tr D
            dual = node.dual
            presentation = _transpose_with_cover(dual)
            j = add_translate(presentation[0])
            if j is None:
                break
            node.tau_inv = j
            nodes[j].tau = idx
            nodes[j].arrows = in_arrows(idx, j, dual, presentation)
            if nodes[j].arrows is None:
                break

    cat.complete = complete
    if not complete and strict:
        raise BudgetExceeded("enumeration exceeded the budget", partial=cat)

    _fill_tau_tables(cat)
    _assign_names(cat)
    return cat


def arrow_dims(nodes, arrows, n_vertices):
    """The dimension vector of the sum of nodes[i]^mult over arrows {i: mult}."""
    return [sum(m * nodes[i].rep.dims[v] for i, m in arrows.items()) for v in range(n_vertices)]


def _mesh_middle(nodes, s, right):
    """The middle term of the almost-split sequence 0 -> nodes[s] -> E -> right -> 0, as
    {node index: multiplicity}, read off the arrows recorded out of s; None when their
    dimension vectors do not add up to dim nodes[s] + dim right.

    Every node has End/rad = k, so the arrows out of tau Y are the arrows into Y, mult for
    mult (Auslander-Reiten-Smalø, ch. V): each recorded arrow s -> Y of multiplicity m makes
    Y^m a summand of E.  When they add up to dim E, Krull-Schmidt leaves room for no other.
    """
    middle = {k: node.arrows[s] for k, node in enumerate(nodes) if node.arrows and s in node.arrows}
    want = [a + b for a, b in zip(nodes[s].rep.dims, right.dims)]
    return middle if arrow_dims(nodes, middle, len(want)) == want else None


def _fill_tau_tables(cat: IndecomposableCatalog):
    """Read tau off ar_translate for the nodes that a knitting stopped by the budget never reached.

    Knitting links every node of a complete catalog both ways.
    """
    if cat.complete:
        return
    for i, node in enumerate(cat.nodes):
        if node.proj_vertex is None and node.tau is None:
            node.tau = cat.find(ar_translate(node.rep))
            if node.tau is not None:
                cat.nodes[node.tau].tau_inv = i


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


def node_facts(cat: IndecomposableCatalog):
    """Per-node facts reused by the checks: pd, id, memberships."""
    if cat._facts is not None:
        return cat._facts
    gc = gen_cogen(cat.algebra)
    # the trace of DA in x is the image of the maps into x from the entries that are the I(v);
    # the duals of the projectives are the injectives over A^op, and dim rej_A(x) = dim x -
    # dim tr_{D A}(Dx).  Both traces read the rows the Hom tables keep for x and for Dx.
    n = len(gc.projectives)
    facts = []
    for node in cat.nodes:
        x, dx = node.rep, node.dual
        into_x, into_dx = gc.homs.into(x), gc.dual_homs.into(dx)
        trace = sum(image_dims([h for e in gc.inj_entries for h in into_x[e]], x))  # of DA in x
        cotrace = sum(image_dims([h for hs in into_dx[:n] for h in hs], dx))       # dim x - dim rej_A(x)
        facts.append(
            {
                "pd": proj_dim(x),
                "id": inj_dim(x),
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
