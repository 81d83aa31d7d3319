"""Exact scalar arithmetic: the rationals and prime fields.

Scalars are plain Python values (``fractions.Fraction`` over the rationals,
``int`` in ``[0, p)`` over a prime field); a field object carries the
operations.  Every linear-algebra routine receives the field explicitly and
refuses to mix scalars from different fields.
"""

from __future__ import annotations

from fractions import Fraction


class FieldMismatchError(ValueError):
    """Raised when scalars tagged with different fields are combined."""


#: Miller-Rabin with these bases decides primality exactly below the bound
#: (Sorenson and Webster, Math. Comp. 86, 2017); trial division above it
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    for q in _MR_BASES:
        if p % q == 0:
            return p == q
    if p >= _MR_BOUND:
        d = 43
        while d * d <= p:
            if p % d == 0:
                return False
            d += 2
        return True
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class Field:
    """Common interface; concrete fields are Rationals and PrimeField."""

    char: int

    def require_same(self, other: "Field") -> None:
        if self != other:
            raise FieldMismatchError(f"mixed field tags: {self} vs {other}")


class Rationals(Field):
    char = 0

    def __repr__(self) -> str:
        return "QQ"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Rationals)

    def __hash__(self) -> int:
        return hash("QQ")

    @property
    def zero(self) -> Fraction:
        return Fraction(0)

    @property
    def one(self) -> Fraction:
        return Fraction(1)

    def from_int(self, n: int) -> Fraction:
        return Fraction(n)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)

    def div(self, a, b):
        return Fraction(a) / b

    def is_zero(self, a) -> bool:
        return a == 0

    def parse(self, s: str) -> Fraction:
        return Fraction(s)

    def to_json(self, a) -> str:
        a = Fraction(a)
        return f"{a.numerator}/{a.denominator}" if a.denominator != 1 else str(a.numerator)


class PrimeField(Field):
    def __init__(self, p: int):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.char = p

    def __repr__(self) -> str:
        return f"GF({self.p})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("GF", self.p))

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1 % self.p

    def from_int(self, n: int) -> int:
        return n % self.p

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
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return (a * self.inv(b)) % self.p

    def is_zero(self, a) -> bool:
        return a % self.p == 0

    def parse(self, s: str) -> int:
        if "/" in s:
            num, den = s.split("/")
            return self.div(int(num) % self.p, int(den) % self.p)
        return int(s) % self.p

    def to_json(self, a) -> int:
        return a % self.p


QQ = Rationals()


def GF(p: int) -> PrimeField:
    return PrimeField(p)


def field_from_tag(tag: str) -> Field:
    """Parse a field tag as used by the CLI: ``Q`` or ``F:<p>``."""
    tag = tag.strip()
    if tag in ("Q", "QQ", "0"):
        return QQ
    if tag.startswith("F:"):
        return GF(int(tag[2:]))
    if tag.startswith("F") and tag[1:].isdigit():
        return GF(int(tag[1:]))
    if tag.isdigit():
        p = int(tag)
        return QQ if p == 0 else GF(p)
    raise ValueError(f"unrecognized field tag {tag!r} (use Q or F:<p>)")
