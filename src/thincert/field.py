"""Exact scalar arithmetic over the rationals and prime fields GF(p).

Values are kept in canonical form at all times: reduced fractions with a
positive denominator, or residues in [0, p).  Equality is therefore plain
structural equality, and no floating point appears anywhere.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from typing import Mapping, Union

__all__ = ["FieldSpec", "FieldElement", "parse_scalar"]

#: Raw carrier values: Fraction for the rationals, int residue for GF(p).
Raw = Union[Fraction, int]

_SCALAR_RE = re.compile(r"(-?\d+)(?:/(\d+))?")

_new_element = object.__new__


def common_denominator(cells: Mapping[int, Fraction]) -> tuple[dict[int, int], int]:
    """Integer numerators ``n`` and one positive ``d`` with ``cells == n / d``,
    ``d`` the lcm of the denominators: rational sums then stay on ``int``."""
    d = lcm(*[v.denominator for v in cells.values()])
    return {k: v.numerator * (d // v.denominator) for k, v in cells.items()}, d


#: Miller-Rabin witnesses: the first 13 primes.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

#: The least strong pseudoprime to every base in ``_MR_BASES`` (about
#: 3.3e24); Miller-Rabin on those bases decides primality exactly below it.
MODULUS_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for ``n < MODULUS_BOUND``."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FieldSpec:
    """The scalar domain: the rationals (``modulus is None``) or GF(modulus).

    Its methods do arithmetic on canonical raw values; ``FieldElement`` is
    the boxed public scalar.
    """

    __slots__ = ("modulus", "zero", "one")

    def __init__(self, modulus: int | None = None):
        if modulus is not None:
            if modulus >= MODULUS_BOUND:
                raise ValueError(f"modulus {modulus} is too large: primality is "
                                 f"only decided below {MODULUS_BOUND}")
            if not _is_prime(modulus):
                raise ValueError(f"modulus {modulus} is not prime")
        self.modulus = modulus
        self.zero: Raw = 0 if modulus is not None else Fraction(0)
        self.one: Raw = 1 if modulus is not None else Fraction(1)

    @classmethod
    def rationals(cls) -> "FieldSpec":
        return cls(None)

    @classmethod
    def gf(cls, p: int) -> "FieldSpec":
        return cls(p)

    @property
    def is_prime_field(self) -> bool:
        return self.modulus is not None

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FieldSpec):
            return self.modulus == other.modulus
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("FieldSpec", self.modulus))

    def __repr__(self) -> str:
        return "FieldSpec(rationals)" if self.modulus is None else f"FieldSpec(gf {self.modulus})"

    # raw-value arithmetic -------------------------------------------------

    def add(self, a: Raw, b: Raw) -> Raw:
        if self.modulus is None:
            return a + b
        return (a + b) % self.modulus

    def sub(self, a: Raw, b: Raw) -> Raw:
        if self.modulus is None:
            return a - b
        return (a - b) % self.modulus

    def mul(self, a: Raw, b: Raw) -> Raw:
        if self.modulus is None:
            return a * b
        return (a * b) % self.modulus

    def neg(self, a: Raw) -> Raw:
        if self.modulus is None:
            return -a
        return (-a) % self.modulus

    def inv(self, a: Raw) -> Raw:
        if self.modulus is None:
            if a == 0:
                raise ZeroDivisionError("division by zero")
            return 1 / Fraction(a)
        if a % self.modulus == 0:
            raise ZeroDivisionError("division by zero")
        return pow(a, -1, self.modulus)

    def div(self, a: Raw, b: Raw) -> Raw:
        return self.mul(a, self.inv(b))

    def coerce(self, value: "int | Fraction | FieldElement") -> Raw:
        """Bring an int, Fraction, or same-field element into canonical raw form."""
        if isinstance(value, FieldElement):
            if value.spec is not self and value.spec != self:
                raise ValueError(f"element of {value.spec!r} used with {self!r}")
            return value.value
        if self.modulus is None:
            if type(value) is Fraction:
                return value    # immutable and canonical already
            if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
                raise ValueError(f"cannot coerce {value!r} into {self!r}")
            return Fraction(value)
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"cannot coerce {value!r} into {self!r}")
        return value % self.modulus

    def parse_raw(self, text: str) -> Raw:
        """Parse ``-?digits(/digits)?`` into a canonical raw value."""
        if text.isdecimal():
            # An unsigned integer, the common case: isdecimal accepts exactly
            # the digits that ``\d`` matches and ``int`` reads.
            num = int(text)
            return Fraction(num) if self.modulus is None else num % self.modulus
        m = _SCALAR_RE.fullmatch(text.strip())
        if m is None:
            raise ValueError(f"malformed scalar {text!r}")
        num_text, den_text = m.groups()
        num = int(num_text)
        den = int(den_text) if den_text is not None else 1
        if den == 0:
            raise ZeroDivisionError(f"zero denominator in scalar {text!r}")
        p = self.modulus
        if den == 1:
            return Fraction(num) if p is None else num % p
        if p is None:
            return Fraction(num, den)
        if den % p == 0:
            raise ZeroDivisionError(f"denominator of {text!r} vanishes in {self!r}")
        return self.mul(num % p, self.inv(den % p))

    def element(self, value: "int | Fraction | FieldElement") -> "FieldElement":
        return FieldElement(self, value)


def _binary(raw_op: str, reflected: bool = False):
    """The operator ``self (raw_op) other``, or ``other (raw_op) self`` when
    reflected.  The ``FieldSpec`` method is looked up on every call, so a
    wrapper installed on the class sees each one."""
    def op(self: "FieldElement", other: object) -> "FieldElement":
        b = self._other_raw(other)
        if b is None:
            return NotImplemented
        spec = self.spec
        a, b = (b, self.value) if reflected else (self.value, b)
        return FieldElement._canonical(spec, getattr(spec, raw_op)(a, b))
    return op


class FieldElement:
    """A scalar paired with its field.  Immutable; arithmetic is exact.

    The constructor takes an int, a Fraction (over Q only) or an element of
    the same field, and stores its canonical raw value.
    """

    __slots__ = ("spec", "value")

    def __init__(self, spec: FieldSpec, value: "int | Fraction | FieldElement"):
        self.spec = spec
        self.value = spec.coerce(value)

    @staticmethod
    def _canonical(spec: FieldSpec, value: Raw) -> "FieldElement":
        """Box a raw value that is already canonical for ``spec``, unchecked."""
        el = _new_element(FieldElement)
        el.spec = spec
        el.value = value
        return el

    def _other_raw(self, other: object) -> Raw | None:
        """``other`` coerced into this field, or None for a type the field
        does not take; an element of another field raises ValueError."""
        if isinstance(other, bool) or not isinstance(other, (FieldElement, int, Fraction)):
            return None
        if isinstance(other, Fraction) and self.spec.is_prime_field:
            return None
        return self.spec.coerce(other)

    __add__, __radd__ = _binary("add"), _binary("add", True)
    __sub__, __rsub__ = _binary("sub"), _binary("sub", True)
    __mul__, __rmul__ = _binary("mul"), _binary("mul", True)
    __truediv__, __rtruediv__ = _binary("div"), _binary("div", True)

    def __neg__(self) -> "FieldElement":
        return FieldElement._canonical(self.spec, self.spec.neg(self.value))

    def inverse(self) -> "FieldElement":
        return FieldElement._canonical(self.spec, self.spec.inv(self.value))

    def __bool__(self) -> bool:
        return self.value != 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FieldElement):
            return other.spec == self.spec and self.value == other.value
        # A plain number is compared unreduced, so equal objects hash alike:
        # over GF(5) the element 3 equals 3 but not 8.
        return NotImplemented if self._other_raw(other) is None else self.value == other

    def __hash__(self) -> int:
        return hash(self.value)

    def __str__(self) -> str:
        # str(Fraction) already emits the canonical "n" / "n/d" form.
        return str(self.value)

    def __repr__(self) -> str:
        return f"FieldElement({self} over {self.spec!r})"


def parse_scalar(text: str, spec: FieldSpec) -> FieldElement:
    """Parse a scalar literal into its canonical element of ``spec``."""
    return FieldElement._canonical(spec, spec.parse_raw(text))
