import json
import random
import time

import pytest

from repherd.algebra import Path, Quiver, build_algebra, make_path
from repherd.cli import main
from repherd.errors import MalformedRelation, NotAdmissible
from repherd.fields import QQ
from repherd.io import algebra_from_dict

from tests.reference import normal_form, opposite_algebra, PathTooLong
from tests.conftest import fixture_path


def test_a2_basis(a2):
    assert a2.dim == 3
    keys = {(p.start, p.arrows) for p in a2.basis}
    assert keys == {(0, ()), (1, ()), (0, (0,))}


def test_loop2_basis_and_reduction(loop2):
    assert loop2.dim == 4
    q = loop2.quiver
    alpha = q.aindex["alpha"]
    beta = q.aindex["beta"]
    z = (QQ.zero,) * 4
    assert normal_form(loop2, [(1, Path(0, (alpha, beta)))]) == z
    assert normal_form(loop2, [(1, Path(0, (alpha, alpha)))]) == z
    e1 = normal_form(loop2, [(1, Path(0, ()))])
    assert sum(1 for x in e1 if x != 0) == 1


def test_normal_form_too_long(loop2):
    q = loop2.quiver
    alpha = q.aindex["alpha"]
    with pytest.raises(PathTooLong):
        normal_form(loop2, [(1, Path(0, (alpha,) * 4))])


def count_monomial_paths(vertices, arrows, forbidden, max_len):
    """Oracle: words in the quiver avoiding forbidden factors (monomial case)."""
    out = len(vertices)
    frontier = [(v, v, ()) for v in vertices]
    for _ in range(max_len):
        nxt = []
        for (s, e, word) in frontier:
            for (name, src, tgt) in arrows:
                if src != e:
                    continue
                w = word + (name,)
                if any(
                    w[i : i + len(f)] == tuple(f) for f in forbidden for i in range(len(w) - len(f) + 1)
                ):
                    continue
                nxt.append((s, tgt, w))
        out += len(nxt)
        frontier = nxt
    return out


def test_tilted5_dimension_against_path_oracle(tilted5):
    arrows = [("alpha", "5", "4"), ("beta", "4", "3"), ("gamma", "3", "2"), ("delta", "2", "1")]
    expect = count_monomial_paths(
        ["1", "2", "3", "4", "5"], arrows, [("alpha", "beta", "gamma", "delta")], 4
    )
    assert tilted5.dim == expect == 14


def test_loop2_dimension_against_path_oracle(loop2):
    arrows = [("alpha", "1", "1"), ("beta", "1", "2")]
    expect = count_monomial_paths(["1", "2"], arrows, [("alpha", "alpha"), ("alpha", "beta")], 3)
    assert loop2.dim == expect == 4


def test_not_admissible_loop_without_relations():
    q = Quiver(["1"], [("alpha", "1", "1")])
    with pytest.raises(NotAdmissible):
        build_algebra(q, [], QQ, 3)


def test_malformed_relations():
    q = Quiver(["1", "2"], [("a", "1", "2"), ("b", "2", "1")])
    with pytest.raises(MalformedRelation):
        build_algebra(q, [[(1, make_path(q, ["a"]))]], QQ, 3)  # length 1
    with pytest.raises(MalformedRelation):
        # non-parallel terms
        build_algebra(
            q,
            [[(1, make_path(q, ["a", "b"])), (1, make_path(q, ["b", "a"]))]],
            QQ,
            3,
        )
    with pytest.raises(MalformedRelation):
        # mixed lengths
        build_algebra(
            q,
            [[(1, make_path(q, ["a", "b"])), (1, make_path(q, ["a", "b", "a", "b"]))]],
            QQ,
            5,
        )
    with pytest.raises(MalformedRelation):
        build_algebra(q, [[(0, make_path(q, ["a", "b"]))]], QQ, 3)  # all-zero relation


def test_opposite_a2(a2):
    op = opposite_algebra(a2)
    assert op.dim == 3
    assert op.quiver.arrow_src[0] == a2.quiver.arrow_tgt[0]
    assert opposite_algebra(op) is a2


def test_opposite_loop2_fresh_double(loop2):
    op = opposite_algebra(loop2)
    assert op.dim == 4
    # reversed relation paths: alpha^2 and beta-then-alpha
    data_quiver = op.quiver.opposite()
    rels = [
        [(c, Path(p.end(op.quiver), tuple(reversed(p.arrows)))) for (c, p) in rel]
        for rel in op.relations
    ]
    opop = build_algebra(data_quiver, rels, loop2.field, op.length_bound)
    by_len = lambda alg: sorted(p.length for p in alg.basis)
    assert by_len(opop) == by_len(loop2)


def test_sq_non_monomial_relation(sq):
    # commuting square: dim 9, the two length-2 paths are identified
    assert sq.dim == 9
    q = sq.quiver
    ab = Path(q.vindex["1"], (q.aindex["alpha"], q.aindex["beta"]))
    gd = Path(q.vindex["1"], (q.aindex["gamma"], q.aindex["delta"]))
    assert sq.reduce_path(ab) == sq.reduce_path(gd)
    assert any(x != 0 for x in sq.reduce_path(ab))


@pytest.mark.parametrize("name", ["loop2", "sq"])
def test_reduction_multiplicative_on_random_path_pairs(name, request):
    alg = request.getfixturevalue(name)
    q = alg.quiver
    rng = random.Random("mult:%s" % name)
    # all paths of length <= bound, by brute-force walk
    all_paths = [Path(v, ()) for v in range(q.n_vertices)]
    frontier = list(all_paths)
    for _ in range(alg.length_bound):
        nxt = []
        for p in frontier:
            for a in range(q.n_arrows):
                if q.arrow_src[a] == p.end(q):
                    nxt.append(Path(p.start, p.arrows + (a,)))
        all_paths.extend(nxt)
        frontier = nxt
    fld = alg.field
    checked = 0
    while checked < 1000:
        p = rng.choice(all_paths)
        qq = rng.choice(all_paths)
        if p.end(q) != qq.start:
            continue
        checked += 1
        joint = Path(p.start, p.arrows + qq.arrows)
        lhs = alg.reduce_path(joint)
        # reduce(p) * reduce(q) expanded over basis pairs
        cp = alg.reduce_path(p)
        cq = alg.reduce_path(qq)
        acc = [fld.zero] * alg.dim
        for i, ci in enumerate(cp):
            if ci == fld.zero:
                continue
            for j, cj in enumerate(cq):
                if cj == fld.zero:
                    continue
                bi, bj = alg.basis[i], alg.basis[j]
                if bi.end(q) != bj.start:
                    continue
                prod = alg.reduce_path(Path(bi.start, bi.arrows + bj.arrows))
                s = fld.mul(ci, cj)
                for t, cv in enumerate(prod):
                    if cv != fld.zero:
                        acc[t] = fld.add(acc[t], fld.mul(s, cv))
        assert tuple(acc) == tuple(lhs)
    assert checked == 1000


def test_admissibility_every_bound_length_path_vanishes(loop2, tilted5):
    for alg in (loop2, tilted5):
        q = alg.quiver
        frontier = [Path(v, ()) for v in range(q.n_vertices)]
        for _ in range(alg.length_bound):
            nxt = []
            for p in frontier:
                for a in range(q.n_arrows):
                    if q.arrow_src[a] == p.end(q):
                        nxt.append(Path(p.start, p.arrows + (a,)))
            frontier = nxt
        for p in frontier:
            assert all(x == alg.field.zero for x in alg.reduce_path(p))


def _loop2_data(length_bound):
    with open(fixture_path("loop2.json"), encoding="utf-8") as fh:
        data = json.load(fh)
    data["length_bound"] = length_bound
    return data


def test_large_length_bound_stops_at_the_first_vanishing_degree(loop2):
    start = time.perf_counter()
    big = algebra_from_dict(_loop2_data(2000))
    assert time.perf_counter() - start < 5.0
    assert big.basis == loop2.basis and big.table == loop2.table
    alpha = loop2.quiver.aindex["alpha"]
    z = (QQ.zero,) * loop2.dim
    for n in (2, 3, 1999, 2000, 2001):
        assert big.reduce_path(Path(0, (alpha,) * n)) == z
    assert normal_form(big, [(1, Path(0, (alpha,) * 2000))]) == z
    with pytest.raises(PathTooLong):
        normal_form(big, [(1, Path(0, (alpha,) * 2001))])


def test_not_admissible_exactly_when_bound_length_paths_survive():
    q = Quiver(["1"], [("alpha", "1", "1")])
    cube = [[(1, make_path(q, ["alpha"] * 3))]]
    with pytest.raises(NotAdmissible):
        build_algebra(q, cube, QQ, 2)  # alpha^2 survives
    for bound in (3, 4, 500):
        alg = build_algebra(q, cube, QQ, bound)
        assert alg.dim == 3
        assert alg.reduce_path(Path(0, (0,) * 2)) != (QQ.zero,) * 3
    with pytest.raises(NotAdmissible):
        build_algebra(q, [], QQ, 300)


def test_not_admissible_file_is_refused(tmp_path, capsys):
    data = _loop2_data(500)
    data["relations"] = [[{"coeff": "1", "path": ["alpha", "beta"]}]]  # alpha^n never vanishes
    path = tmp_path / "loop_free.json"
    path.write_text(json.dumps(data))
    assert main(["info", str(path)]) == 4
    assert "NotAdmissible" in capsys.readouterr().err
