"""Bound quiver algebras kQ/I with a canonical path basis.

The basis is computed degree by degree: at each path length the span of
paths is cut down by the degree component of the two-sided ideal generated
by the relations, and surviving basis paths are picked greedily in
lexicographic order on (length, arrow-name sequence).
"""
from __future__ import annotations

from .errors import MalformedRelation, NotAdmissible, ParseError
from .linalg import SpanTracker


class Quiver:
    def __init__(self, vertices, arrows):
        """vertices: list of vertex names; arrows: list of (name, source, target)."""
        self.vertices = tuple(str(v) for v in vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise ParseError("duplicate vertex names")
        self.vindex = {v: i for i, v in enumerate(self.vertices)}
        names = []
        src = []
        tgt = []
        for (name, s, t) in arrows:
            if s not in self.vindex or t not in self.vindex:
                raise ParseError("arrow %r has undeclared endpoint" % (name,))
            names.append(str(name))
            src.append(self.vindex[s])
            tgt.append(self.vindex[t])
        if len(set(names)) != len(names):
            raise ParseError("duplicate arrow names")
        self.arrow_names = tuple(names)
        self.arrow_src = tuple(src)
        self.arrow_tgt = tuple(tgt)
        self.aindex = {n: i for i, n in enumerate(names)}
        # arrows listed per source vertex, in name order (basis determinism)
        order = sorted(range(len(names)), key=lambda a: names[a])
        self.arrows_by_name = tuple(order)
        self.out_arrows = tuple(
            tuple(a for a in order if self.arrow_src[a] == v) for v in range(len(self.vertices))
        )
        self.in_arrows = tuple(
            tuple(a for a in order if self.arrow_tgt[a] == v) for v in range(len(self.vertices))
        )

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_arrows(self):
        return len(self.arrow_names)

    def opposite(self) -> "Quiver":
        arrows = [
            (self.arrow_names[a], self.vertices[self.arrow_tgt[a]], self.vertices[self.arrow_src[a]])
            for a in range(self.n_arrows)
        ]
        return Quiver(self.vertices, arrows)


class Path:
    """A path from vertex start along the arrow indices arrows; a value, immutable by convention."""

    __slots__ = ("start", "arrows")

    def __init__(self, start, arrows):
        self.start, self.arrows = start, arrows

    def __eq__(self, other):
        return self.key() == other.key() if other.__class__ is Path else NotImplemented

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return "Path(start=%r, arrows=%r)" % (self.start, self.arrows)

    @property
    def length(self):
        return len(self.arrows)

    def end(self, quiver: Quiver) -> int:
        return quiver.arrow_tgt[self.arrows[-1]] if self.arrows else self.start

    def key(self):
        return (self.start, self.arrows)


def make_path(quiver: Quiver, arrow_names, start=None) -> Path:
    """Build a path from arrow names; stationary paths need an explicit start."""
    idxs = []
    for n in arrow_names:
        if n not in quiver.aindex:
            raise ParseError("unknown arrow %r" % (n,))
        idxs.append(quiver.aindex[n])
    if not idxs:
        if start is None:
            raise ParseError("stationary path needs a start vertex")
        return Path(quiver.vindex[str(start)], ())
    for a, b in zip(idxs, idxs[1:]):
        if quiver.arrow_tgt[a] != quiver.arrow_src[b]:
            raise MalformedRelation("arrows %r do not compose" % (list(arrow_names),))
    return Path(quiver.arrow_src[idxs[0]], tuple(idxs))


class BoundQuiverAlgebra:
    """kQ/I with the canonical normal-form basis and reduction table.

    Immutable after construction; all operations are pure.
    """

    def __init__(self, quiver, field, relations, length_bound, _basis, _table, _zero_from):
        self.quiver = quiver
        self.field = field
        self.relations = relations          # tuple of tuples (scalar, Path)
        self.length_bound = length_bound
        self.basis = _basis                 # tuple of Path, lex order
        self.table = _table                 # path key -> coord tuple over basis, lengths < zero_from
        self.zero_from = _zero_from         # every path at least this long is 0
        self.dim = len(_basis)
        self.basis_index = {p.key(): i for i, p in enumerate(_basis)}
        n = quiver.n_vertices
        self.basis_from = tuple(
            tuple(i for i, p in enumerate(_basis) if p.start == v) for v in range(n)
        )
        self._opposite = None
        self._gen_cogen = None              # filled by modules.gen_cogen
        self._projectives = {}              # vertex -> (P(v), paths), filled by modules.projective_paths
        self._projective_sums = {}          # vertex tuple -> sum of the P(v), filled by homological._projective_sum

    # -- reduction ---------------------------------------------------------

    def reduce_path(self, p: Path):
        """Coordinates of a path over the basis; paths beyond the bound are 0."""
        if p.length >= self.zero_from:
            return (self.field.zero,) * self.dim
        return self.table[p.key()]

    def path_times_arrow(self, basis_idx: int, arrow: int):
        p = self.basis[basis_idx]
        if p.end(self.quiver) != self.quiver.arrow_src[arrow]:
            raise MalformedRelation("arrow does not extend path")
        return self.reduce_path(Path(p.start, p.arrows + (arrow,)))

    # -- opposite ----------------------------------------------------------

    @property
    def opposite(self) -> "BoundQuiverAlgebra":
        if self._opposite is None:
            op = build_algebra(
                self.quiver.opposite(),
                [
                    [(c, Path(p.end(self.quiver), tuple(reversed(p.arrows)))) for (c, p) in rel]
                    for rel in self.relations
                ],
                self.field,
                self.length_bound,
            )
            self._opposite = op
            op._opposite = self
        return self._opposite


def _validate_relations(quiver, field, relations, length_bound):
    rels = []
    for rel in relations:
        terms = []
        for (scalar, p) in rel:
            s = field.coerce(scalar)
            if not s:
                continue
            if not isinstance(p, Path):
                raise MalformedRelation("relation term is not a path")
            # recheck composability against this quiver
            for a, b in zip(p.arrows, p.arrows[1:]):
                if quiver.arrow_tgt[a] != quiver.arrow_src[b]:
                    raise MalformedRelation("relation path does not compose")
            terms.append((s, p))
        if not terms:
            raise MalformedRelation("relation has no nonzero terms")
        lengths = {p.length for (_, p) in terms}
        if len(lengths) != 1:
            raise MalformedRelation("relation mixes path lengths %s" % sorted(lengths))
        (length,) = lengths
        if length < 2:
            raise MalformedRelation("relation paths must have length >= 2")
        starts = {p.start for (_, p) in terms}
        ends = {p.end(quiver) for (_, p) in terms}
        if len(starts) != 1 or len(ends) != 1:
            raise MalformedRelation("relation paths are not parallel")
        rels.append(tuple(terms))
    return tuple(rels)


def build_algebra(quiver: Quiver, relations, field, length_bound: int) -> BoundQuiverAlgebra:
    """Construct kQ/I, checking admissibility at the length bound."""
    if length_bound < 2:
        raise MalformedRelation("length_bound must be >= 2")
    rels = _validate_relations(quiver, field, relations, length_bound)

    # paths per length, in lex order on (length, arrow-name sequence), and
    # per length the paths ending at each vertex; built one degree at a time
    paths_by_len = []
    paths_ending_at = []

    basis = []
    table = {}
    f = field
    for ell in range(0, length_bound + 1):
        if ell == 0:
            plist = [Path(v, ()) for v in range(quiver.n_vertices)]
        else:
            plist = [
                Path(p.start, p.arrows + (a,))
                for p in paths_by_len[ell - 1]
                for a in quiver.out_arrows[p.end(quiver)]
            ]
        paths_by_len.append(plist)
        ending = {}
        for p in plist:
            ending.setdefault(p.end(quiver), []).append(p)
        paths_ending_at.append(ending)
        index_of = {p.key(): i for i, p in enumerate(plist)}
        width = len(plist)
        ideal = SpanTracker(f, width)
        for rel in rels:
            d = rel[0][1].length
            if d > ell:
                continue
            rstart = rel[0][1].start
            rend = rel[0][1].end(quiver)
            for la in range(0, ell - d + 1):
                lb = ell - d - la
                lefts = paths_ending_at[la].get(rstart, [])
                for a in lefts:
                    for b in paths_by_len[lb]:
                        if b.start != rend:
                            continue
                        vec = [f.zero] * width
                        for (s, rp) in rel:
                            w = Path(a.start, a.arrows + rp.arrows + b.arrows)
                            j = index_of[w.key()]
                            vec[j] = f.add(vec[j], s)
                        ideal.add(vec)
        # each path's entry, written once: (global index, coeff) pairs over the basis, one
        # pair for a basis path, the reduced combination otherwise, () for a path in the ideal
        rep = SpanTracker(f, width, track=True)
        new_basis = []
        base = len(basis)
        for i, p in enumerate(plist):
            unit = [f.zero] * width
            unit[i] = f.one
            residue = ideal.reduce(unit)
            coords = rep.coords(residue) if any(residue) else ()
            if coords is None:
                rep.add(residue)
                table[p.key()] = ((base + len(new_basis), f.one),)
                new_basis.append(p)
            else:
                # coords are over the degree's basis paths in creation order
                table[p.key()] = tuple((base + j, c) for j, c in enumerate(coords) if c)
        if ell == length_bound and new_basis:
            raise NotAdmissible(
                "path of length %d does not reduce to zero (e.g. %s)"
                % (length_bound, "".join(quiver.arrow_names[a] for a in new_basis[0].arrows))
            )
        basis.extend(new_basis)
        if not new_basis:
            # every path of this length lies in the ideal, so every longer
            # one does too: the algebra ends here, below the length bound
            break

    dense = {}
    for key, pairs in table.items():
        vec = [f.zero] * len(basis)
        for j, c in pairs:
            vec[j] = c
        dense[key] = tuple(vec)
    return BoundQuiverAlgebra(quiver, field, rels, length_bound, tuple(basis), dense, ell)
