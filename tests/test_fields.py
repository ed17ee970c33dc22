"""Prime fields: the primality test is exact up to its stated limit, and fast."""
import json
import time

import pytest

from repherd.cli import main
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
