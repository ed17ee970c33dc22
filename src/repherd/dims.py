"""Dimension values that may be finite, provably infinite, or undetermined."""
from __future__ import annotations


class DimValue:
    """A dimension: finite, infinite, or at least value; a value, immutable by convention."""

    __slots__ = ("kind", "value")

    def __init__(self, kind: str, value: int | None = None):
        self.kind, self.value = kind, value  # kind: "finite" | "infinite" | "at_least"

    def __eq__(self, other):
        return (self.kind, self.value) == (other.kind, other.value) if other.__class__ is DimValue else NotImplemented

    def __hash__(self):
        return hash((self.kind, self.value))

    def __repr__(self):
        return "DimValue(kind=%r, value=%r)" % (self.kind, self.value)

    @staticmethod
    def finite(n: int) -> "DimValue":
        return DimValue("finite", n)

    @staticmethod
    def infinite() -> "DimValue":
        return DimValue("infinite")

    @staticmethod
    def at_least(n: int) -> "DimValue":
        return DimValue("at_least", n)

    @property
    def is_finite(self) -> bool:
        return self.kind == "finite"

    @property
    def is_infinite(self) -> bool:
        return self.kind == "infinite"

    def le(self, n: int):
        """Certain comparison with n. True/False when decidable, None otherwise."""
        if self.kind == "finite":
            return self.value <= n
        if self.kind == "infinite":
            return False
        # at_least(b): actual value >= b, undetermined above
        return False if self.value > n else None

    def __str__(self) -> str:
        if self.kind == "finite":
            return str(self.value)
        if self.kind == "infinite":
            return "infinite"
        return ">=%d" % self.value

    def to_json(self):
        if self.kind == "finite":
            return {"finite": self.value}
        if self.kind == "infinite":
            return "infinite"
        return {"at_least": self.value}
