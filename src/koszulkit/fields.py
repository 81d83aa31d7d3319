"""Exact scalar arithmetic: the rationals and prime fields.

Scalars are plain Python values; a field object carries the operations.
Over the rationals a scalar is an ``int`` until a division leaves a
non-integer, and only then a ``fractions.Fraction``: ``zero``, ``one`` and
``from_int`` are ints, and ``inv``, ``div`` and ``parse`` give an int
whenever the result is whole; ``inv`` of +-1 and ``div`` by +-1 build no
``Fraction`` at all.  Over a prime field a scalar is an ``int`` in
``[0, p)``.  Every linear-algebra routine receives the field explicitly
and refuses to mix scalars from different fields.

Hot loops accumulate with plain ``+`` and ``*``, which both kinds of scalar
support, and hand the sums to the field once: ``add_into`` adds a scaled
vector in place, ``settle`` reduces a vector of unreduced sums, ``scale``
returns a scaled copy.
"""

from __future__ import annotations

from fractions import Fraction


class FieldMismatchError(ValueError):
    """Raised when scalars tagged with different fields are combined."""


class ScalarParseError(ValueError):
    """Raised for a written scalar that names no element of the field."""


#: Miller-Rabin with these bases decides primality exactly below the bound
#: (Sorenson and Webster, Math. Comp. 86, 2017); larger moduli are refused
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p >= _MR_BOUND:
        raise ValueError(f"{p} is beyond the certified primality bound {_MR_BOUND}")
    for q in _MR_BASES:
        if p % q == 0:
            return p == q
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


def whole(q: Fraction):
    """q as an int when it is one, else q."""
    return q.numerator if q.denominator == 1 else q


class Field:
    """Common interface; concrete fields are Rationals and PrimeField."""

    char: int
    zero = 0
    one = 1

    def require_same(self, other: "Field") -> None:
        if self != other:
            raise FieldMismatchError(f"mixed field tags: {self} vs {other}")

    def sign(self, n: int):
        """The scalar (-1)^n."""
        return self.one if n % 2 == 0 else self.neg(self.one)


class Rationals(Field):
    char = 0

    def __repr__(self) -> str:
        return "QQ"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Rationals)

    def __hash__(self) -> int:
        return hash("QQ")

    def from_int(self, n: int) -> int:
        return n

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if a == 1 or a == -1:
            return int(a)
        return whole(1 / Fraction(a))

    def div(self, a, b):
        if b == 1 or b == -1:
            return whole(a if b == 1 else -a)
        return whole(Fraction(a) / b)

    def is_zero(self, a) -> bool:
        return a == 0

    def parse(self, s: str):
        try:
            return whole(Fraction(s))
        except ZeroDivisionError:
            raise ScalarParseError(f"{s!r} has a zero denominator") from None

    def to_json(self, a) -> str:
        if type(a) is int:
            return str(a)
        a = Fraction(a)
        return f"{a.numerator}/{a.denominator}" if a.denominator != 1 else str(a.numerator)

    def add_into(self, out: dict, vec: dict, c) -> None:
        """out += c * vec in place, dropping the entries that cancel."""
        for k, x in vec.items():
            y = out.get(k, 0) + c * x
            if y:
                out[k] = y
            else:
                out.pop(k, None)

    def settle(self, acc: dict) -> dict:
        """The sparse vector of sums accumulated with plain + and *, zeros dropped."""
        return {k: x for k, x in acc.items() if x}

    def scale(self, vec: dict, c) -> dict:
        """c * vec as a new sparse vector, each entry an int when whole."""
        if not c:
            return {}
        return {k: whole(x * c) for k, x in vec.items()}


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

    def from_int(self, n: int) -> int:
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

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
        num, _, den = s.partition("/")
        if den and int(den) % self.p == 0:
            raise ScalarParseError(f"{s!r} has a denominator divisible by {self.p}")
        return self.div(int(num), int(den or 1))

    def to_json(self, a) -> int:
        return a % self.p

    def add_into(self, out: dict, vec: dict, c) -> None:
        """out += c * vec mod p in place, dropping the entries that cancel."""
        p = self.p
        for k, x in vec.items():
            y = (out.get(k, 0) + c * x) % p
            if y:
                out[k] = y
            else:
                out.pop(k, None)

    def settle(self, acc: dict) -> dict:
        """The sparse vector of sums accumulated with plain + and *, reduced
        mod p, zeros dropped."""
        p = self.p
        return {k: r for k, x in acc.items() if (r := x % p)}

    def scale(self, vec: dict, c) -> dict:
        """c * vec mod p as a new sparse vector."""
        p = self.p
        if not c % p:
            return {}
        return {k: x * c % p for k, x in vec.items()}


QQ = Rationals()


def GF(p: int) -> PrimeField:
    return PrimeField(p)


def field_from_tag(tag: str) -> Field:
    """Parse a field tag as used by the CLI: exactly ``Q`` or ``F:<p>``, p in
    decimal without leading zeros, so that one field has one spelling."""
    if tag == "Q":
        return QQ
    digits = tag[2:]
    if tag[:2] == "F:" and digits.isascii() and digits.isdecimal() \
            and digits == str(int(digits)):
        return GF(int(digits))
    raise ValueError(f"unrecognized field tag {tag!r} (use Q or F:<p>)")
