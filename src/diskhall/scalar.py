"""Exact coefficient arithmetic.

Two scalar domains are provided:

* ``RationalFunctionV`` -- the field Q(v) of rational functions in a
  formal variable v with v^2 = q.  Elements are kept in a canonical
  reduced form (gcd-reduced, monic denominator) so that equality is
  structural.

* ``QuadraticScalar`` -- the field Q(sqrt(q)) at a fixed prime power q,
  represented exactly as a pair a + b*sqrt(q).  When q is a perfect
  square the sqrt(q) part is folded into the rational part.

Both are ``Field``s: immutable (``Frozen``), with ``-``, the reflected
``+`` and ``-`` (``Arithmetic``) and ``/`` written once, from the ``+``,
negation, ``*``, inverse and coercion that each class defines.

No floating point is used anywhere.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Iterable, Tuple

Poly = Tuple[Fraction, ...]  # dense, low degree first, no trailing zeros

_ZERO = Fraction(0)
_ONE = Fraction(1)

#: (a, b) -> a + b and a * b for RationalFunctionV operands, process-wide
_SUMS: dict = {}
_PRODUCTS: dict = {}


class Frozen:
    """A value whose fields are set once, in ``__init__``, with
    ``object.__setattr__``; assigning to it afterwards raises."""

    __slots__ = ()

    def __setattr__(self, *_):
        raise AttributeError("immutable")


class Arithmetic(Frozen):
    """``-`` and the reflected ``+`` and ``-``, from the ``__add__``,
    ``__neg__`` and ``_coerce`` of a subclass; ``_coerce`` turns an operand
    into the subclass, or returns NotImplemented."""

    __slots__ = ()

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self).__add__(other)


class Field(Arithmetic):
    """``/`` and its reflection, from the ``__mul__``, ``inverse`` and
    ``_coerce`` of a subclass."""

    __slots__ = ()

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other


# ---------------------------------------------------------------------------
# dense polynomial helpers over Q
# ---------------------------------------------------------------------------

def _trim(coeffs: Iterable[Fraction]) -> Poly:
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _poly(coeffs: Iterable) -> Poly:
    return _trim(Fraction(c) for c in coeffs)


def _padd(a: Poly, b: Poly) -> Poly:
    n = max(len(a), len(b))
    return _trim((a[i] if i < len(a) else _ZERO) + (b[i] if i < len(b) else _ZERO)
                 for i in range(n))


def _pneg(a: Poly) -> Poly:
    return tuple(-c for c in a)


def _pmul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return ()
    out = [_ZERO] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return _trim(out)


def _pscale(a: Poly, c: Fraction) -> Poly:
    if c == 0:
        return ()
    return tuple(x * c for x in a)


def _pdivmod(a: Poly, b: Poly) -> Tuple[Poly, Poly]:
    if not b:
        raise ZeroDivisionError("division by zero")
    q = [_ZERO] * max(len(a) - len(b) + 1, 0)
    r = list(a)
    inv_lead = 1 / b[-1]
    while len(r) >= len(b):
        c = r[-1] * inv_lead
        d = len(r) - len(b)
        q[d] = c
        for i, cb in enumerate(b):
            r[i + d] -= c * cb
        while r and r[-1] == 0:
            r.pop()
    return _trim(q), _trim(r)


def _pgcd(a: Poly, b: Poly) -> Poly:
    while b:
        a, b = b, _pdivmod(a, b)[1]
    if a:
        a = _pscale(a, 1 / a[-1])  # monic
    return a


class RationalFunctionV(Field):
    """An element of Q(v) in canonical form.

    Invariant: the denominator is monic and coprime to the numerator;
    zero is represented as 0/1.  Elements are immutable, hashed once,
    and ``+`` and ``*`` are memoised per operand pair (``_SUMS``,
    ``_PRODUCTS``), which share their result objects.
    """

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num, den=(Fraction(1),), _canonical=False):
        if not _canonical:
            num = _poly(num if isinstance(num, (tuple, list)) else [num])
            den = _poly(den if isinstance(den, (tuple, list)) else [den])
            if not den:
                raise ZeroDivisionError("division by zero")
            if not num:
                den = (_ONE,)
            elif not any(den[:-1]):
                # Laurent denominator c*v^k: gcd(num, v^k) = v^min(k, ord num)
                k = len(den) - 1
                j = min(k, next(i for i, c in enumerate(num) if c))
                num = _pscale(num[j:], 1 / den[-1]) if den[-1] != 1 else num[j:]
                den = (_ZERO,) * (k - j) + (_ONE,)
            else:
                g = _pgcd(num, den)
                if len(g) > 1:
                    num = _pdivmod(num, g)[0]
                    den = _pdivmod(den, g)[0]
                lead = den[-1]
                if lead != 1:
                    num = _pscale(num, 1 / lead)
                    den = _pscale(den, 1 / lead)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_hash", hash((num, den)))

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_rational(c) -> "RationalFunctionV":
        return RationalFunctionV([Fraction(c)])

    @staticmethod
    def v_power(n: int) -> "RationalFunctionV":
        """v^n for any integer n (q^k is v_power(2*k))."""
        if n >= 0:
            return RationalFunctionV(_poly([0] * n + [1]), (_ONE,), _canonical=True)
        return RationalFunctionV((_ONE,), _poly([0] * (-n) + [1]), _canonical=True)

    @staticmethod
    def q_power(n: int) -> "RationalFunctionV":
        return RationalFunctionV.v_power(2 * n)

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, RationalFunctionV):
            return other
        if isinstance(other, (int, Fraction)):
            return RationalFunctionV.from_rational(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        key = (self, other)
        out = _SUMS.get(key)
        if out is None:
            num = _padd(_pmul(self.num, other.den), _pmul(other.num, self.den))
            out = _SUMS[key] = RationalFunctionV(num, _pmul(self.den, other.den))
        return out

    def __neg__(self):
        return RationalFunctionV(_pneg(self.num), self.den, _canonical=True)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        key = (self, other)
        out = _PRODUCTS.get(key)
        if out is None:
            out = _PRODUCTS[key] = RationalFunctionV(_pmul(self.num, other.num),
                                                     _pmul(self.den, other.den))
        return out

    __rmul__ = __mul__

    def inverse(self) -> "RationalFunctionV":
        if not self.num:
            raise ZeroDivisionError("division by zero")
        return RationalFunctionV(self.den, self.num)

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = RationalFunctionV.from_rational(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- equality / hashing / display --------------------------------------

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"RationalFunctionV({_fmt_poly(self.num)!r}/{_fmt_poly(self.den)!r})"

    def __str__(self):
        n = _fmt_poly(self.num)
        if self.den == (_ONE,):
            return n
        d = _fmt_poly(self.den)
        if len(self.num) > 1:
            n = f"({n})"
        if len(self.den) > 1:
            d = f"({d})"
        return f"{n}/{d}"


def _fmt_poly(p: Poly) -> str:
    if not p:
        return "0"
    parts = []
    for i, c in enumerate(p):
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
        else:
            mono = "v" if i == 1 else f"v^{i}"
            if c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c}*{mono}")
    out = parts[0]
    for part in parts[1:]:
        out += f" - {part[1:]}" if part.startswith("-") else f" + {part}"
    return out


# commonly used constants
ZERO = RationalFunctionV.from_rational(0)
ONE = RationalFunctionV.from_rational(1)
V = RationalFunctionV.v_power(1)
Q = RationalFunctionV.q_power(1)


# ---------------------------------------------------------------------------
# prime powers and Q(sqrt(q))
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def prime_power_decompose(q: int):
    """Return (p, k) with q = p^k and p prime, or None.

    Trial division up to sqrt(q); memoised, since every QuadraticScalar
    checks its q."""
    if q < 2:
        return None
    for p in range(2, q + 1):
        if p * p > q and p != q:
            break
        if q % p:
            continue
        k, n = 0, q
        while n % p == 0:
            n //= p
            k += 1
        return (p, k) if n == 1 else None
    return (q, 1)


def is_prime_power(q: int) -> bool:
    return prime_power_decompose(q) is not None


class QuadraticScalar(Field):
    """An exact element a + b*sqrt(q) of Q(sqrt(q)) at a fixed prime power q."""

    __slots__ = ("q", "a", "b")

    def __init__(self, q: int, a, b=0):
        if not is_prime_power(q):
            raise ValueError(f"{q} is not a prime power")
        a = Fraction(a)
        b = Fraction(b)
        r = math.isqrt(q)
        if r * r == q and b != 0:  # fold sqrt of a perfect square
            a += b * r
            b = _ZERO
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def _make(self, a: Fraction, b: Fraction) -> "QuadraticScalar":
        """A result of arithmetic on validated operands, built without
        ``__init__``: q is already a prime power, and when q is a square
        b is 0 in both operands, so it stays 0 under +, - and *."""
        out = object.__new__(QuadraticScalar)
        object.__setattr__(out, "q", self.q)
        object.__setattr__(out, "a", a)
        object.__setattr__(out, "b", b)
        return out

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def _coerce(self, other):
        if isinstance(other, QuadraticScalar):
            if other.q != self.q:
                raise ValueError("mixed base fields")
            return other
        if isinstance(other, (int, Fraction)):
            return QuadraticScalar(self.q, other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._make(self.a + other.a, self.b + other.b)

    def __neg__(self):
        return self._make(-self.a, -self.b)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, c, d = self.a, self.b, other.a, other.b
        return self._make(a * c + b * d * self.q, a * d + b * c)

    __rmul__ = __mul__

    def inverse(self) -> "QuadraticScalar":
        norm = self.a * self.a - self.b * self.b * self.q
        if norm == 0:  # a^2 = b^2 q with q not a perfect square forces a = b = 0
            raise ZeroDivisionError("division by zero")
        return QuadraticScalar(self.q, self.a / norm, -self.b / norm)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QuadraticScalar(self.q, other)
        if not isinstance(other, QuadraticScalar):
            return NotImplemented
        return self.q == other.q and self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash((self.q, self.a, self.b))

    def __repr__(self):
        return f"QuadraticScalar(q={self.q}, {self.a} + {self.b}*sqrt({self.q}))"

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        root = f"sqrt({self.q})"
        b = root if self.b == 1 else f"{self.b}*{root}"
        if self.a == 0:
            return b
        return f"{self.a} + {b}" if self.b > 0 else f"{self.a} - {b.lstrip('-')}"


class PoleError(ZeroDivisionError):
    """The denominator of a rational function vanishes at v = sqrt(q)."""


def _poly_at_sqrt_q(p: Poly, q: int) -> QuadraticScalar:
    # split into even powers (rational) and odd powers (multiples of sqrt(q))
    a = sum((c * Fraction(q) ** (i // 2) for i, c in enumerate(p) if i % 2 == 0), _ZERO)
    b = sum((c * Fraction(q) ** ((i - 1) // 2) for i, c in enumerate(p) if i % 2 == 1), _ZERO)
    return QuadraticScalar(q, a, b)


def evaluate_at(x: RationalFunctionV, q: int) -> QuadraticScalar:
    """Specialize v -> sqrt(q) exactly.  Raises PoleError at a pole."""
    den = _poly_at_sqrt_q(x.den, q)
    if den.is_zero():
        raise PoleError(f"denominator vanishes at v = sqrt({q})")
    return _poly_at_sqrt_q(x.num, q) / den
