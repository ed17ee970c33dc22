"""Seeded generators for the algebra and module JSON files the benchmark feeds to repherd.

Every generator takes a ``random.Random`` and returns plain JSON-ready dicts;
nothing here imports repherd, so the program under test never builds its own
inputs.
"""
from __future__ import annotations

import json
import os

# Dynkin trees as undirected edge lists on vertices 1..n.
DYNKIN_EDGES = {
    "A": lambda n: [(i, i + 1) for i in range(1, n)],
    "D": lambda n: [(1, 3), (2, 3)] + [(i, i + 1) for i in range(3, n)],
    "E": lambda n: [(i, i + 1) for i in range(1, n - 1)] + [(3, n)],
}


def positive_roots(kind: str, n: int) -> int:
    """Number of positive roots, which Gabriel's theorem makes the catalog size."""
    if kind == "A":
        return n * (n + 1) // 2
    if kind == "D":
        return n * (n - 1)
    if kind == "E":
        return {6: 36, 7: 63, 8: 120}[n]
    raise ValueError(kind)


def _longest_path(n_vertices, arrows):
    succ = {v: [] for v in range(1, n_vertices + 1)}
    for s, t in arrows:
        succ[s].append(t)
    memo = {}

    def depth(v):
        if v not in memo:
            memo[v] = max((1 + depth(t) for t in succ[v]), default=0)
        return memo[v]

    return max(depth(v) for v in succ)


def _labelled(rng, n_vertices, arrows, relations_by_index, length_bound, field):
    """Write the quiver with seeded vertex names and a seeded vertex and arrow order.

    ``arrows`` are (source, target) pairs on 1..n; ``relations_by_index`` lists
    paths as sequences of arrow indices.
    """
    order = list(range(1, n_vertices + 1))
    rng.shuffle(order)
    names = {v: "v%d" % (k + 1) for k, v in enumerate(order)}
    arrow_names = ["x%d" % (k + 1) for k in range(len(arrows))]
    arrow_order = list(range(len(arrows)))
    rng.shuffle(arrow_order)
    return {
        "field": "Q" if field == "Q" else {"GFp": field},
        "vertices": ["v%d" % (k + 1) for k in range(n_vertices)],
        "arrows": [
            {"name": arrow_names[a], "from": names[arrows[a][0]], "to": names[arrows[a][1]]}
            for a in arrow_order
        ],
        "relations": [
            [{"coeff": "1", "path": [arrow_names[a] for a in path]}] for path in relations_by_index
        ],
        "length_bound": length_bound,
    }


def _two_colouring(n_vertices, edges):
    """Colour 0 or 1 of each vertex of a tree on 1..n, by the parity of its distance from vertex 1."""
    neighbours = {v: [] for v in range(1, n_vertices + 1)}
    for a, b in edges:
        neighbours[a].append(b)
        neighbours[b].append(a)
    colour, stack = {1: 0}, [1]
    while stack:
        v = stack.pop()
        for w in neighbours[v]:
            if w not in colour:
                colour[w] = 1 - colour[v]
                stack.append(w)
    return colour


def dynkin_algebra(rng, kind: str, n: int, field):
    """Path algebra of a Dynkin tree with a seeded orientation (hereditary).

    The orientation is one of the two bipartite ones, where every vertex is a
    sink or a source; the seed picks which colour class are the sources.
    These have the smallest path algebra, and the time of a check grows with
    its dimension (on A_6 over GF(101), from 1.1 s at dimension 11 to 3.5 s
    at 21), so an unconstrained draw would make the seed, not the program,
    set the time.
    """
    edges = DYNKIN_EDGES[kind](n)
    colour = _two_colouring(n, edges)
    sources = rng.randrange(2)
    arrows = [(a, b) if colour[a] == sources else (b, a) for a, b in edges]
    return _labelled(rng, n, arrows, [], _longest_path(n, arrows) + 1, field)


def euclidean_algebra(rng, arrows, field):
    """Path algebra of a fixed acyclic quiver on 1..n, seeded only in its labels."""
    n = max(max(a) for a in arrows)
    return _labelled(rng, n, arrows, [], _longest_path(n, arrows) + 1, field)


def nakayama_algebra(rng, n: int, r: int, field):
    """Linear Nakayama algebra A_n / rad^r: paths a_i ... a_{i+r-1} are zero."""
    arrows = [(i, i + 1) for i in range(1, n)]
    relations = [list(range(i, i + r)) for i in range(0, n - r)]
    return _labelled(rng, n, arrows, relations, r, field)


# -- Kronecker modules in closed form ------------------------------------------
#
# The Kronecker quiver has vertices 1, 2 and arrows a, b: 1 -> 2.  A module is
# (dim at 1, dim at 2, A, B) with A, B matrices of shape dim2 x dim1.


def _identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def kron_preprojective(n):
    """Dimension vector (n, n+1): A = [I; 0], B = [0; I]."""
    a = [[int(i == j) for j in range(n)] for i in range(n + 1)]
    b = [[int(i == j + 1) for j in range(n)] for i in range(n + 1)]
    return n, n + 1, a, b


def kron_preinjective(n):
    """Dimension vector (n+1, n): A = [I | 0], B = [0 | I]."""
    a = [[int(j == i) for j in range(n + 1)] for i in range(n)]
    b = [[int(j == i + 1) for j in range(n + 1)] for i in range(n)]
    return n + 1, n, a, b


def kron_regular(n, lam):
    """Dimension vector (n, n): A = I, B = J_n(lam), a Jordan block."""
    b = [[lam if i == j else int(j == i + 1) for j in range(n)] for i in range(n)]
    return n, n, _identity(n), b


def kron_in_add_gen_cogen(kind: str, n: int) -> bool:
    """P(1), P(2) are preprojective n = 1, 0; I(1), I(2) are preinjective n = 0, 1."""
    return kind in ("preprojective", "preinjective") and n <= 1


def _matmul(x, y):
    return [[sum(x[i][k] * y[k][j] for k in range(len(y))) for j in range(len(y[0]))] for i in range(len(x))]


def unimodular(rng, n):
    """A random integer matrix of determinant +-1, with its integer inverse.

    It is a permuted product of a unit lower and a unit upper triangular
    matrix with entries in [-2, 2], so its entries stay small.
    """
    if n == 0:
        return [], []
    lower = [[1 if i == j else (rng.randint(-2, 2) if j < i else 0) for j in range(n)] for i in range(n)]
    upper = [[1 if i == j else (rng.randint(-2, 2) if j > i else 0) for j in range(n)] for i in range(n)]
    perm = list(range(n))
    rng.shuffle(perm)
    pmat = [[int(perm[i] == j) for j in range(n)] for i in range(n)]
    mat = _matmul(pmat, _matmul(lower, upper))
    inv = _matmul(_matmul(_tri_inverse(upper, upper=True), _tri_inverse(lower, upper=False)), _transpose(pmat))
    return mat, inv


def _transpose(m):
    return [list(r) for r in zip(*m)]


def _tri_inverse(t, upper):
    """Inverse of a unit triangular integer matrix, by substitution."""
    n = len(t)
    inv = _identity(n)
    idx = range(n - 1, -1, -1) if upper else range(n)
    for col in range(n):
        x = [0] * n
        for i in idx:
            rng_k = range(i + 1, n) if upper else range(0, i)
            x[i] = int(i == col) - sum(t[i][k] * x[k] for k in rng_k)
        for i in range(n):
            inv[i][col] = x[i]
    return inv


def kron_module(summands, rng):
    """Direct sum of closed-form Kronecker modules, in a random basis at each vertex.

    ``summands`` holds (kind, n, lam) triples; ``rng`` draws the two changes
    of basis.
    """
    blocks = []
    for kind, n, lam in summands:
        if kind == "preprojective":
            blocks.append(kron_preprojective(n))
        elif kind == "preinjective":
            blocks.append(kron_preinjective(n))
        else:
            blocks.append(kron_regular(n, lam))
    d1 = sum(b[0] for b in blocks)
    d2 = sum(b[1] for b in blocks)
    s1, s1_inv = unimodular(rng, d1)
    s2, _ = unimodular(rng, d2)
    maps = {}
    for name, pos in (("a", 2), ("b", 3)):
        mat = _block_diag(blocks, pos)
        maps[name] = [[str(x) for x in row] for row in _matmul(_matmul(s2, mat), s1_inv)] if d1 and d2 else []
    return {"dims": {"1": d1, "2": d2}, "maps": maps}


def _block_diag(blocks, pos):
    """Block-diagonal matrix of one arrow; each block's shape comes from its dims."""
    rows = sum(b[1] for b in blocks)
    cols = sum(b[0] for b in blocks)
    out = [[0] * cols for _ in range(rows)]
    r0 = c0 = 0
    for b in blocks:
        for i, row in enumerate(b[pos]):
            for j, x in enumerate(row):
                out[r0 + i][c0 + j] = x
        r0 += b[1]
        c0 += b[0]
    return out


KRONECKER = {
    "field": "Q",
    "vertices": ["1", "2"],
    "arrows": [{"name": "a", "from": "1", "to": "2"}, {"name": "b", "from": "1", "to": "2"}],
    "relations": [],
    "length_bound": 2,
}

# Euclidean (tame, representation-infinite) quivers: Kronecker, the
# four-subspace quiver, and acyclic orientations of the 3- and 4-cycles.
EUCLIDEAN = {
    "kronecker": [(1, 2), (1, 2)],
    "d4_tilde": [(1, 5), (2, 5), (3, 5), (4, 5)],
    "a3_tilde": [(1, 2), (3, 2), (3, 4), (1, 4)],
    "a2_tilde": [(1, 2), (2, 3), (1, 3)],
}


def write_json(directory, name, obj):
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
    return path
