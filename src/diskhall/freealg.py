"""Free associative algebra on shifted abstract generators.

Elements are finite Q(v)-linear combinations of words in ``Generator``
symbols.  The module provides the q-deformed commutator
``[x, y]_f = x*y - f*y*x``, right-iterated brackets, the suspension
operator (shift all generators), and the composite arc elements
``zab(a, b, n)`` built from adjacent quiver generators.

There is deliberately no rewriting or normal form here: equality means
literal equality of expanded polynomials.  Checking identities modulo
relations is done by evaluating both sides in a Hall algebra.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Callable, Dict, Sequence, Tuple, Union

from .scalar import ONE, V, Arithmetic, Frozen, RationalFunctionV

ScalarLike = Union[RationalFunctionV, int, Fraction]


def _as_scalar(c: ScalarLike) -> RationalFunctionV:
    if isinstance(c, RationalFunctionV):
        return c
    return RationalFunctionV.from_rational(c)


class Value(Frozen):
    """A ``Frozen`` value whose fields are the names in its class's ``__slots__``.

    A subclass sets each field once, in ``__init__``.  It is equal to an
    object of its own class with equal fields (never to a tuple) and hashes
    as the tuple of its fields.  Like the bases ``Frozen``, ``Arithmetic``,
    ``Field`` and ``Combination``, it is written by hand, not generated by a
    class decorator: every CLI run is a fresh process, and that module
    would cost each one about 13 ms of imports and generated code.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in zip(self.__slots__, self._fields()))
        return f"{type(self).__name__}({fields})"


class Generator(Frozen):
    """A shifted abstract generator, e.g. z_{i,n} or E_{i,n}.

    ``family`` names the alphabet ("z", "E", "F", "G", ...), ``index`` is
    an int (vertex/arc number) or an int tuple (arc endpoints), and
    ``shift`` is the suspension degree n.  Immutable and hashed once, as
    the tuple of its fields; not a tuple itself, so it is never taken for
    a word.
    """

    __slots__ = ("family", "index", "shift", "_hash")

    def __init__(self, family: str, index: Union[int, Tuple[int, ...]], shift: int):
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "shift", shift)
        object.__setattr__(self, "_hash", hash((family, index, shift)))

    def __eq__(self, other):
        if other.__class__ is not Generator:
            return NotImplemented
        return (self.family == other.family and self.index == other.index
                and self.shift == other.shift)

    def __hash__(self):
        return self._hash

    def sort_key(self):
        idx = self.index if isinstance(self.index, tuple) else (self.index,)
        return (self.family, idx, self.shift)

    def shifted(self, n: int) -> "Generator":
        return Generator(self.family, self.index, self.shift + n)

    def __str__(self):
        idx = ",".join(map(str, self.index)) if isinstance(self.index, tuple) else str(self.index)
        return f"{self.family}[{idx},{self.shift}]"

    __repr__ = __str__


Word = Tuple[Generator, ...]


def _word_key(w: Word):
    return (len(w), tuple(g.sort_key() for g in w))


class Combination(Arithmetic):
    """A finite linear combination: ``terms`` maps each basis element to its
    coefficient, never zero.  A subclass supplies ``_coerce``, ``_new`` (an
    element of its own with the given terms) and ``_scalar`` (a coefficient
    from a scalar-like value).  There is no division."""

    __slots__ = ()

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out[key] + c if key in out else c
        return self._new(out)

    def __neg__(self):
        return self._new({key: -c for key, c in self.terms.items()})

    def scale(self, c):
        c = self._scalar(c)
        return self._new({key: coeff * c for key, coeff in self.terms.items()})

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms


class NCPolynomial(Combination):
    """A finite Q(v)-linear combination of words of generators."""

    __slots__ = ("terms",)

    def __init__(self, terms: Dict[Word, RationalFunctionV] = None):
        clean: Dict[Word, RationalFunctionV] = {}
        for w, c in (terms or {}).items():
            if not c.is_zero():
                clean[tuple(w)] = c
        object.__setattr__(self, "terms", clean)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero() -> "NCPolynomial":
        return NCPolynomial({})

    @staticmethod
    def one() -> "NCPolynomial":
        return NCPolynomial({(): ONE})

    @staticmethod
    def scalar(c: ScalarLike) -> "NCPolynomial":
        return NCPolynomial({(): _as_scalar(c)})

    @staticmethod
    def generator(g: Generator) -> "NCPolynomial":
        return NCPolynomial({(g,): ONE})

    @staticmethod
    def word(gens: Sequence[Generator], coeff: ScalarLike = 1) -> "NCPolynomial":
        return NCPolynomial({tuple(gens): _as_scalar(coeff)})

    # -- queries ------------------------------------------------------------

    def generators(self):
        seen = set()
        for w in self.terms:
            seen.update(w)
        return seen

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: _word_key(kv[0]))

    # -- arithmetic ---------------------------------------------------------

    _scalar = staticmethod(_as_scalar)

    def _new(self, terms):
        return NCPolynomial(terms)

    def _coerce(self, other):
        if isinstance(other, NCPolynomial):
            return other
        if isinstance(other, Generator):
            return NCPolynomial.generator(other)
        if isinstance(other, (RationalFunctionV, int, Fraction)):
            return NCPolynomial.scalar(other)
        return NotImplemented

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: Dict[Word, RationalFunctionV] = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 + w2
                c = c1 * c2
                out[w] = out[w] + c if w in out else c
        return NCPolynomial(out)

    def __rmul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- structural operators -----------------------------------------------

    def suspend(self, n: int) -> "NCPolynomial":
        """Raise every generator's shift by n (sigma^n)."""
        if n == 0:
            return self
        return NCPolynomial({tuple(g.shifted(n) for g in w): c
                             for w, c in self.terms.items()})

    def substitute(self, image: Callable[[Generator], "NCPolynomial"]) -> "NCPolynomial":
        """Extend a generator assignment multiplicatively and linearly."""
        out = NCPolynomial.zero()
        for w, c in self.terms.items():
            acc = NCPolynomial.scalar(c)
            for g in w:
                acc = acc * image(g)
            out = out + acc
        return out

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for w, c in self.sorted_terms():
            word = "*".join(str(g) for g in w) if w else "1"
            cs = str(c)
            if cs == "1" and w:
                parts.append(word)
            elif w:
                cs = f"({cs})" if any(op in cs[1:] for op in "+-") or "/" in cs else cs
                parts.append(f"{cs}*{word}")
            else:
                parts.append(f"({cs})" if any(op in cs[1:] for op in "+-") else cs)
        return " + ".join(parts)

    __repr__ = __str__


# ---------------------------------------------------------------------------
# brackets and composite generators
# ---------------------------------------------------------------------------

def q_bracket(x: NCPolynomial, y: NCPolynomial, f: ScalarLike = V) -> NCPolynomial:
    """The deformed commutator [x, y]_f = x*y - f*y*x.

    The default deformation parameter is v, the formal square root of
    the field size; this is the parameter in which the relation families
    of this library take their standard shape.
    """
    return x * y - (y * x).scale(f)


def iterated_bracket(items: Sequence[NCPolynomial]) -> NCPolynomial:
    """Right-nested bracket [a_n, [a_{n-1}, [..., [a_2, a_1]_v ]_v ]_v ]_v.

    The list is given outermost first; a singleton returns its element.
    Every bracket is deformed by v, as in every relation family here.
    """
    items = list(items)
    if not items:
        raise ValueError("iterated_bracket of an empty list")
    acc = items[-1]
    for x in reversed(items[:-1]):
        acc = q_bracket(x, acc)
    return acc


def zgen(i: int, n: int) -> NCPolynomial:
    """The quiver generator z_{i,n} as a polynomial."""
    return NCPolynomial.generator(Generator("z", i, n))


@functools.lru_cache(maxsize=None)
def zab(a: int, b: int, n: int, m: int) -> NCPolynomial:
    """The arc element z_{(a,b),n} = [z_{b-1,n}, ..., z_{a+1,n}, z_{a,n}]_v.

    Memoised: polynomials are immutable, and a raised error is not cached."""
    if not (1 <= a < b <= m):
        raise ValueError(f"need 1 <= a < b <= m, got a={a}, b={b}, m={m}")
    return iterated_bracket([zgen(i, n) for i in range(b - 1, a - 1, -1)])


def egen(i: int, n: int, family: str = "E") -> NCPolynomial:
    """A boundary-arc generator E_{i,n} (or another family by name)."""
    return NCPolynomial.generator(Generator(family, i, n))


def zarc(a: int, b: int, n: int) -> NCPolynomial:
    """The arc generator z_{(a,b),n} as an unexpanded symbol.

    Kept symbolic (tuple index) so emitted relations stay readable; a
    relation set's expander rewrites these symbols as the iterated
    brackets ``zab`` of the z_{i,n} when it is evaluated in a Hall algebra.
    """
    if a >= b:
        raise ValueError(f"need a < b, got ({a}, {b})")
    return NCPolynomial.generator(Generator("z", (a, b), n))


class Relation(Value):
    """A labeled identity lhs = rhs between free-algebra elements."""

    __slots__ = ("label", "lhs", "rhs")

    def __init__(self, label: str, lhs: NCPolynomial, rhs: NCPolynomial):
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)

    def __str__(self):
        return f"{self.label}: {self.lhs} = {self.rhs}"
