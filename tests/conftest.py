import os
import sys
from fractions import Fraction

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repherd import io as rio
from repherd.fields import PrimeField, QQ

FIXTURES = os.path.join(ROOT, "fixtures")


def fixture_path(name):
    return os.path.join(FIXTURES, name)


def in_form(field, x):
    """Whether x is a scalar of field in its stored form: over Q an int when
    integral and a Fraction with denominator > 1 otherwise, over GF(p) an
    int in 0..p-1."""
    if field == QQ:
        return type(x) is int or (type(x) is Fraction and x.denominator > 1)
    return type(x) is int and 0 <= x < field.p


_cache = {}


def load_fixture_algebra(name, field=None):
    key = (name, repr(field))
    if key not in _cache:
        _cache[key] = rio.load_algebra(fixture_path(name + ".json"), field=field)
    return _cache[key]


@pytest.fixture(scope="session")
def a2():
    return load_fixture_algebra("a2")


@pytest.fixture(scope="session")
def a3():
    return load_fixture_algebra("a3")


@pytest.fixture(scope="session")
def loop2():
    return load_fixture_algebra("loop2")


@pytest.fixture(scope="session")
def tilted4():
    return load_fixture_algebra("tilted4")


@pytest.fixture(scope="session")
def tilted5():
    return load_fixture_algebra("tilted5")


@pytest.fixture(scope="session")
def kron():
    return load_fixture_algebra("kron")


@pytest.fixture(scope="session")
def d4():
    return load_fixture_algebra("d4")


@pytest.fixture(scope="session")
def sq():
    return load_fixture_algebra("sq")


@pytest.fixture(scope="session")
def h5():
    return load_fixture_algebra("h5")


@pytest.fixture(scope="session")
def a4_rad2():
    return load_fixture_algebra("a4_rad2")


@pytest.fixture(scope="session")
def gf101():
    return PrimeField(101)


_catalogs = {}
_mains = {}


def catalog_of(alg, budget=None):
    """Session-memoized catalog (per algebra object and budget)."""
    from repherd.catalog import enumerate_indecomposables

    key = (id(alg), None if budget is None else (budget.max_modules, budget.max_total_dim))
    if key not in _catalogs:
        _catalogs[key] = enumerate_indecomposables(alg, budget)
    return _catalogs[key]


def main_report_of(alg):
    """Session-memoized main check report."""
    from repherd.checks import check_representation_hereditary

    if id(alg) not in _mains:
        _mains[id(alg)] = check_representation_hereditary(alg, catalog=catalog_of(alg))
    return _mains[id(alg)]


def verify_almost_split(seq, catalog):
    """Check that seq, ending at z, is almost split: every radical morphism from a catalog node
    into z lifts through the right-hand map.  From z itself these are rad End(z), and from a
    node isomorphic to z they are rad End(z) composed with the isomorphism."""
    from repherd.errors import VerificationFailed
    from repherd.homological import solve_factor_right
    from repherd.modules import compose, endomorphism_radical, hom_basis, indec_isomorphism

    z = seq.right.target
    rad = endomorphism_radical(z)
    for node in catalog.nodes:
        x = node.rep
        if x is z:
            tests = rad
        elif (iso := indec_isomorphism(x, z)) is not None:
            tests = [compose(r, iso) for r in rad]
        else:
            tests = hom_basis(x, z)
        for h in tests:
            if solve_factor_right(seq.right, h) is None:
                raise VerificationFailed("a radical morphism does not lift through the sequence")


def rebased(m, rng):
    """m in a random basis: x -> P_v x at each vertex, P_v triangular with rational entries.

    Over GF(p) the entries are read mod p, so p must not divide 2, 3, 5 or 7.
    """
    from repherd.linalg import Mat, inverse
    from repherd.modules import Representation

    f = m.algebra.field
    ps = []
    for d in m.dims:
        ent = [f.zero] * (d * d)
        for r in range(d):
            ent[r * d + r] = f.coerce(Fraction(rng.choice([1, 2, -3]), rng.choice([1, 5, 7])))
            for c in range(r + 1, d):
                ent[r * d + c] = f.coerce(Fraction(rng.randint(-4, 4), rng.choice([1, 3])))
        ps.append(Mat(f, d, d, tuple(ent)))
    q = m.algebra.quiver
    mats = [ps[q.arrow_tgt[a]].mul(x).mul(inverse(ps[q.arrow_src[a]])) for a, x in enumerate(m.mats)]
    return Representation(m.algebra, m.dims, mats)


# test-local exact eliminator, independent of the package's rref
def plain_rank(rows):
    rows = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = None
        for i in range(rank, len(rows)):
            if rows[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pr = rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][c] != 0:
                f = rows[i][c] / pr[c]
                rows[i] = [a - f * b for a, b in zip(rows[i], pr)]
        rank += 1
    return rank
