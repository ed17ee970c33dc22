"""Exact scalar arithmetic over the rationals and prime fields.

A rational scalar is an `int` when it is integral and a `fractions.Fraction`
with denominator > 1 otherwise, so the integers that make up most entries
are multiplied, added and tested for zero by int code rather than by the
Python-level `Fraction` methods.  `Fraction(n) == n`, the two hash alike and
print alike under `str`, so a `Mat` or cache key holding either form of the
same value compares, hashes and formats the same.  Prime-field scalars are
plain ints normalized to the range 0..p-1.  No floating point anywhere.
"""
from __future__ import annotations

from fractions import Fraction

from .errors import ParseError


# Miller-Rabin with the primes up to 41 as bases is exact for every n below
# PRIME_LIMIT (Sorenson and Webster, Math. Comp. 86, 2017); larger p are refused.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_LIMIT = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test, exact for n < PRIME_LIMIT."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _q(x):
    """x in the stored form of Q: an int when integral, else a Fraction."""
    return x.numerator if x.denominator == 1 else x


class Rationals:
    """The field of rational numbers, each an int or a non-integral Fraction."""

    kind = "Q"
    zero = 0
    one = 1

    def add(self, a, b):
        return _q(a + b)

    def sub(self, a, b):
        return _q(a - b)

    def mul(self, a, b):
        return _q(a * b)

    def neg(self, a):
        return -a

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return _q(Fraction(1, a))

    def from_int(self, n: int):
        return n

    def coerce(self, x):
        if isinstance(x, Fraction):
            return _q(x)
        if isinstance(x, int):
            return x
        if isinstance(x, str):
            return self.parse(x)
        raise ParseError("cannot coerce %r into Q" % (x,))

    def parse(self, text):
        if isinstance(text, int):
            return text
        if isinstance(text, float):
            raise ParseError("floating point coefficients are not allowed")
        try:
            return _q(Fraction(str(text).strip()))
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError("bad rational coefficient %r" % (text,)) from exc

    def fmt(self, a) -> str:
        return str(a)

    def to_spec(self):
        return "Q"

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Q"


class PrimeField:
    """The prime field GF(p) for a prime p >= 2."""

    kind = "GFp"

    def __init__(self, p: int):
        if p >= PRIME_LIMIT:
            raise ParseError("GF(p) needs a prime p < %d, got %r" % (PRIME_LIMIT, p))
        if not _is_prime(p):
            raise ParseError("GF(p) needs a prime p, got %r" % (p,))
        self.p = p
        self.zero = 0
        self.one = 1 % p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        a %= self.p
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def from_int(self, n: int):
        return n % self.p

    def coerce(self, x):
        if isinstance(x, int):
            return x % self.p
        if isinstance(x, str):
            return self.parse(x)
        if isinstance(x, Fraction):
            den = self.from_int(x.denominator)
            return self.mul(self.from_int(x.numerator), self.inv(den))
        raise ParseError("cannot coerce %r into GF(%d)" % (x, self.p))

    def parse(self, text):
        if isinstance(text, int):
            return text % self.p
        if isinstance(text, float):
            raise ParseError("floating point coefficients are not allowed")
        s = str(text).strip()
        if "/" in s:
            num, _, den = s.partition("/")
            try:
                return self.mul(int(num) % self.p, self.inv(int(den) % self.p))
            except (ValueError, ZeroDivisionError) as exc:
                raise ParseError("bad coefficient %r" % (text,)) from exc
        try:
            return int(s) % self.p
        except ValueError as exc:
            raise ParseError("bad coefficient %r" % (text,)) from exc

    def fmt(self, a) -> str:
        return str(a % self.p)

    def to_spec(self):
        return {"GFp": self.p}

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GFp", self.p))

    def __repr__(self):
        return "GF(%d)" % self.p


QQ = Rationals()


def field_from_spec(spec):
    """Build a field from its file form: "Q" or {"GFp": p}."""
    if spec == "Q":
        return QQ
    if isinstance(spec, dict) and set(spec) == {"GFp"} and type(spec["GFp"]) is int:
        return PrimeField(spec["GFp"])
    raise ParseError("unknown field spec %r" % (spec,))
