"""Enumeration of indecomposables, the AR quiver, and coarse partitions."""
from __future__ import annotations

from dataclasses import dataclass

from .errors import BudgetExceeded, IncompleteCatalog, VerificationFailed
from .homological import (
    almost_split_sequence,
    ar_translate,
    ar_translate_inv,
    inj_dim,
    proj_dim,
    reject_of,
    trace_of,
)
from .linalg import SpanTracker
from .modules import (
    cokernel_of,
    compose,
    dual_module,
    endomorphism_radical,
    gen_cogen,
    hom_basis,
    indecomposable_summands,
    iso_class_index,
    morphism_flat,
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

    @property
    def in_add_gen_cogen(self):
        return self.proj_vertex is not None or self.inj_vertex is not None


class IndecomposableCatalog:
    def __init__(self, algebra, nodes, complete):
        self.algebra = algebra
        self.nodes = nodes
        self.complete = complete
        self._hom_cache = {}
        self._facts = None

    def __len__(self):
        return len(self.nodes)

    def find(self, rep):
        return iso_class_index(rep, [node.rep for node in self.nodes])

    def hom_basis(self, i, j):
        key = (i, j)
        if key not in self._hom_cache:
            self._hom_cache[key] = hom_basis(self.nodes[i].rep, self.nodes[j].rep)
        return self._hom_cache[key]

    def hom_dim(self, i, j):
        return len(self.hom_basis(i, j))

    def node_named(self, name):
        for node in self.nodes:
            if node.name == name:
                return node
        raise KeyError(name)


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

    def try_add(rep):
        """Index of rep's node, adding, flagging and queueing a new one; None over budget."""
        nonlocal total_dim, complete
        idx = cat.find(rep)
        if idx is not None:
            return idx
        if len(nodes) + 1 > budget.max_modules or total_dim + rep.total_dim > budget.max_total_dim:
            complete = False
            return None
        node = CatalogNode(rep)
        node.proj_vertex = iso_class_index(rep, gc.projectives)
        node.inj_vertex = iso_class_index(rep, gc.injectives)
        if rep.total_dim == 1:
            node.simple_vertex = rep.dims.index(1)
        nodes.append(node)
        queue.append(len(nodes) - 1)
        total_dim += rep.total_dim
        return len(nodes) - 1

    def add_summands(rep):
        """Add rep's new indecomposable summands; False once over budget."""
        return all(try_add(piece) is not None for piece in indecomposable_summands(rep))

    def add_translate(rep):
        """Node index of a translate of an indecomposable, or None over budget."""
        pieces = indecomposable_summands(rep)
        if len(pieces) != 1:
            raise VerificationFailed("a translate of an indecomposable module is not indecomposable")
        return try_add(pieces[0])

    for rep in gc.projectives + gc.injectives:
        try_add(rep)

    # Knitting.  A node's neighbours, in the order that fixes node names:
    # rad P, I/soc I, then tau and the middle of the sequence ending at the
    # node, then tau^{-1} and the middle of the sequence ending there.  A
    # node with a tau link got both of its tau-side neighbours as the
    # tau^{-1} side of its translate, and dually, so each sequence is built
    # once; the skipped steps could only re-find nodes, which keeps the order.
    pos = 0
    while pos < len(queue) and complete:
        idx = queue[pos]
        pos += 1
        node = nodes[idx]
        if node.proj_vertex is not None:
            rad, _ = radical_of(node.rep)
            if not add_summands(rad):
                break
        if node.inj_vertex is not None:
            soc, incl = socle_of(node.rep)
            quot, _ = cokernel_of(incl)
            if not add_summands(quot):
                break
        if node.proj_vertex is None and node.tau is None:
            seq = almost_split_sequence(node.rep)
            j = add_translate(seq.left.source)
            if j is None:
                break
            node.tau = j
            nodes[j].tau_inv = idx
            if not add_summands(seq.middle):
                break
        if node.inj_vertex is None and node.tau_inv is None:
            # D of the sequence over A^op that ends at D(node): tau^{-1} = D tau D
            seq = almost_split_sequence(dual_module(node.rep))
            j = add_translate(dual_module(seq.left.source))
            if j is None:
                break
            node.tau_inv = j
            if nodes[j].tau is None:
                nodes[j].tau = idx
            if not add_summands(dual_module(seq.middle)):
                break

    cat.complete = complete
    if not complete and strict:
        raise BudgetExceeded("enumeration exceeded the budget", partial=cat)

    _fill_tau_tables(cat)
    _assign_names(cat)
    return cat


def _fill_tau_tables(cat: IndecomposableCatalog):
    for i, node in enumerate(cat.nodes):
        if node.proj_vertex is None and node.tau is None:
            tz = ar_translate(node.rep)
            idx = cat.find(tz)
            if idx is None and cat.complete:
                raise IncompleteCatalog("translate missing from a complete catalog")
            node.tau = idx
    for i, node in enumerate(cat.nodes):
        if node.tau is not None:
            cat.nodes[node.tau].tau_inv = i
    if cat.complete:
        for i, node in enumerate(cat.nodes):
            if node.inj_vertex is None and node.tau_inv is None:
                ti = ar_translate_inv(node.rep)
                idx = cat.find(ti)
                if idx is None:
                    raise IncompleteCatalog("inverse translate missing from a complete catalog")
                node.tau_inv = idx
                if cat.nodes[idx].tau is None:
                    cat.nodes[idx].tau = i


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
        # walk tau repeatedly; reaching a projective P after k steps names tau^{-k} P
        k = 0
        cur = i
        seen = set()
        while cur is not None and cur not in seen:
            seen.add(cur)
            if cat.nodes[cur].proj_vertex is not None:
                node.name = "τ%sP(%s)" % (_sup(-k), verts[cat.nodes[cur].proj_vertex])
                break
            nxt = cat.nodes[cur].tau
            cur = nxt
            k += 1
        if node.name:
            continue
        k = 0
        cur = i
        seen = set()
        while cur is not None and cur not in seen:
            seen.add(cur)
            if cat.nodes[cur].inj_vertex is not None:
                node.name = "τ%sI(%s)" % (_sup(k), verts[cat.nodes[cur].inj_vertex])
                break
            cur = cat.nodes[cur].tau_inv
            k += 1
        if not node.name:
            node.name = "M%d%s" % (i, node.rep.dims)


def ar_quiver(cat: IndecomposableCatalog):
    """Arrows with multiplicities dim rad(X,Y)/rad^2(X,Y), plus the tau table."""
    if not cat.complete:
        raise IncompleteCatalog("AR quiver needs a complete catalog")
    n = len(cat.nodes)
    fld = cat.algebra.field
    rad_bases = {}
    for i in range(n):
        for j in range(n):
            rad_bases[(i, j)] = endomorphism_radical(cat.nodes[i].rep) if i == j else cat.hom_basis(i, j)
    arrows = []
    for i in range(n):
        for j in range(n):
            base = rad_bases[(i, j)]
            if not base:
                continue
            width = len(morphism_flat(base[0]))
            sq = SpanTracker(fld, width)
            for w in range(n):
                for f1 in rad_bases[(i, w)]:
                    for f2 in rad_bases[(w, j)]:
                        sq.add(morphism_flat(compose(f2, f1)))
            total = SpanTracker(fld, width)
            for b in base:
                total.add(morphism_flat(b))
            mult = total.dim - sq.dim
            if mult > 0:
                arrows.append((i, j, mult))
    tau_table = {i: node.tau for i, node in enumerate(cat.nodes) if node.tau is not None}
    return arrows, tau_table


@dataclass
class PartitionReport:
    left_part: list
    right_part: list
    pd_le_1: list
    id_le_1: list
    gen_cogen: list          # nodes in add(A + DA)
    in_gen_da: list
    in_cogen_a: list
    supp_hom_da: list        # Hom(DA, X) != 0
    supp_hom_a: list         # Hom(X, A) != 0
    pd_table: dict
    id_table: dict


def node_facts(cat: IndecomposableCatalog):
    """Per-node facts reused by the checks: pd, id, memberships."""
    if cat._facts is not None:
        return cat._facts
    gc = gen_cogen(cat.algebra)
    facts = []
    for node in cat.nodes:
        x = node.rep
        trace = trace_of(gc.injectives, x)[0].total_dim    # of DA in x
        reject = reject_of(gc.projectives, x)[0].total_dim  # of A in x
        facts.append(
            {
                "pd": proj_dim(x),
                "id": inj_dim(x),
                "gen_da": trace == x.total_dim,
                "cogen_a": reject == 0,
                "supp_da": trace > 0,
                "supp_a": reject < x.total_dim,
            }
        )
    cat._facts = facts
    return facts


def left_right_parts(cat: IndecomposableCatalog) -> PartitionReport:
    if not cat.complete:
        raise IncompleteCatalog("partitions need a complete catalog")
    n = len(cat.nodes)
    facts = node_facts(cat)
    adj = [[False] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j and cat.hom_dim(i, j) > 0:
                adj[i][j] = True
    reach = [row[:] for row in adj]
    for i in range(n):
        reach[i][i] = True
    for w in range(n):
        for i in range(n):
            if reach[i][w]:
                ri, rw = reach[i], reach[w]
                for j in range(n):
                    if rw[j]:
                        ri[j] = True
    pd1 = [facts[i]["pd"].le(1) is True for i in range(n)]
    id1 = [facts[i]["id"].le(1) is True for i in range(n)]
    left = []
    right = []
    for i in range(n):
        preds = [j for j in range(n) if reach[j][i]]
        if all(pd1[j] for j in preds):
            left.append(i)
        succs = [j for j in range(n) if reach[i][j]]
        if all(id1[j] for j in succs):
            right.append(i)
    return PartitionReport(
        left_part=left,
        right_part=right,
        pd_le_1=[i for i in range(n) if pd1[i]],
        id_le_1=[i for i in range(n) if id1[i]],
        gen_cogen=[i for i in range(n) if cat.nodes[i].in_add_gen_cogen],
        in_gen_da=[i for i in range(n) if facts[i]["gen_da"]],
        in_cogen_a=[i for i in range(n) if facts[i]["cogen_a"]],
        supp_hom_da=[i for i in range(n) if facts[i]["supp_da"]],
        supp_hom_a=[i for i in range(n) if facts[i]["supp_a"]],
        pd_table={cat.nodes[i].name: facts[i]["pd"] for i in range(n)},
        id_table={cat.nodes[i].name: facts[i]["id"] for i in range(n)},
    )
