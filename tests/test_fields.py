"""Prime fields: the primality test is exact up to its stated limit, and fast; roots are found in any of them."""
import json
import random
import time

import pytest

from repherd.cli import main
from repherd.endo import rational_roots
from repherd.errors import ParseError
from repherd.fields import PRIME_LIMIT, PrimeField, _is_prime, field_from_spec

from tests.conftest import fixture_path


def _trial_division(n):
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def test_miller_rabin_matches_trial_division_below_10000():
    assert [n for n in range(10**4) if _is_prime(n)] == [n for n in range(10**4) if _trial_division(n)]


@pytest.mark.parametrize(
    "n",
    [
        561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185,  # Carmichael numbers
        2047, 3215031751,  # strong pseudoprimes to base 2, and to the bases 2, 3, 5, 7
        3825123056546413051,  # a strong pseudoprime to every prime base up to 23
        (2**31 - 1) * (2**61 - 1),  # a product of two primes that are tested below
    ],
)
def test_miller_rabin_rejects_pseudoprimes(n):
    assert not _is_prime(n)


@pytest.mark.parametrize("p", [2**31 - 1, 2**61 - 1, 2**64 - 59])
def test_large_primes_are_fields(p):
    fld = PrimeField(p)
    assert fld.mul(fld.inv(3), 3) == fld.one


def test_primes_beyond_the_limit_are_refused_by_name():
    assert 2**89 - 1 > PRIME_LIMIT  # a Mersenne prime the test cannot certify
    with pytest.raises(ParseError, match=str(PRIME_LIMIT)):
        field_from_spec({"GFp": 2**89 - 1})


def test_info_over_a_61_bit_prime_is_quick(tmp_path, capsys):
    with open(fixture_path("kron.json"), encoding="utf-8") as fh:
        data = json.load(fh)
    data["field"] = {"GFp": 2**61 - 1}
    path = tmp_path / "kron_m61.json"
    path.write_text(json.dumps(data))
    start = time.perf_counter()
    assert main(["info", str(path)]) == 0
    assert time.perf_counter() - start < 5.0
    assert json.loads(capsys.readouterr().out)["field"] == {"GFp": 2**61 - 1}


def _scanned_roots(fld, poly):
    """(a, multiplicity) for every a in GF(p) that is a root, by evaluating the polynomial and its quotients."""
    out = []
    for a in range(fld.p):
        mult, cur = 0, list(poly)
        while len(cur) > 1:
            # synthetic division by x - a
            q, acc = [], 0
            for c in reversed(cur):
                acc = (acc * a + c) % fld.p
                q.append(acc)
            if q[-1]:
                break
            cur = list(reversed(q[:-1]))
            mult += 1
        if mult:
            out.append((a, mult))
    return out


@pytest.mark.parametrize("p", [2, 3, 5, 7, 101, 257])
def test_roots_match_a_scan_of_the_field(p):
    fld = PrimeField(p)
    rng = random.Random("roots-vs-scan:%d" % p)
    for _ in range(150):
        poly = [rng.randrange(p) for _ in range(rng.randint(1, 8))] + [rng.randrange(1, p)]
        for _ in range(rng.randint(0, 3)):  # plant a root, maybe a repeated one
            a = rng.randrange(p)
            poly = [(lo - a * hi) % p for lo, hi in zip([0] + poly, poly + [0])]
        assert rational_roots(fld, poly) == _scanned_roots(fld, poly)


def test_roots_over_a_31_bit_prime():
    p = 2**31 - 1
    fld = PrimeField(p)
    poly = [1]
    for a, m in [(0, 1), (1, 2), (12345, 1), (p - 1, 3), (2**30, 1)]:
        for _ in range(m):
            poly = [(lo - a * hi) % p for lo, hi in zip([0] + poly, poly + [0])]
    poly = [(lo + hi) % p for lo, hi in zip([0] + [0] + poly, poly + [0, 0])]  # times x^2 + 1, no root mod p
    assert rational_roots(fld, poly) == [(0, 1), (1, 2), (12345, 1), (2**30, 1), (p - 1, 3)]


@pytest.mark.parametrize("name, p, code", [("d4", 65537, 0), ("kron", 2**31 - 1, 3)])
def test_check_over_a_large_prime_gives_the_verdict_over_q(tmp_path, capsys, name, p, code):
    with open(fixture_path(name + ".json"), encoding="utf-8") as fh:
        data = json.load(fh)
    assert main(["check", fixture_path(name + ".json")]) == code
    data["field"] = {"GFp": p}
    path = tmp_path / ("%s_%d.json" % (name, p))
    path.write_text(json.dumps(data))
    start = time.perf_counter()
    assert main(["check", str(path)]) == code
    assert time.perf_counter() - start < 20.0
