"""The derived Hall algebra at a fixed prime power q.

Basis elements are isomorphism classes of derived objects.  A product
[X].[Y] is computed from one sweep over Hom(Y[-1], X): each morphism w
completes to a triangle Y[-1] -> X -> L, and counting N_L, the morphisms
whose cone is isomorphic to L, gives every structure constant by the
derived Riedtmann formula (Toen, Derived Hall algebras, Duke 2006;
Xiao-Xu, Hall algebras associated to triangulated categories, Duke 2008)

    F^L_{X,Y} = N_L a(L) / (a(X) a(Y) |Hom(Y,X)| {Y,X}),   a(Z) = |Aut Z| {Z,Z}

where {A,B} is the alternating product of the orders of the
negative-degree Hom spaces and |Aut Z| has a closed form
(``DerivedCategory.aut_count``).  The two-sweep route it replaces, which
counts the morphisms X -> L with cone Y and enumerates End(X), is kept in
``tests/hall_oracle.py`` as a test oracle.  The twisted product rescales
by the Euler pairing:  [X]*[Y] = q^{<Y,X>/2} [X].[Y].

The sweep takes one cone per torus orbit of block-support patterns, not
one per morphism (``DerivedCategory.cone_counts``).  Hom between two
indecomposables of D^b(A_{m-1}) is at most one dimensional in each degree,
so Hom(Y[-1], X) is a sum of one-dimensional blocks, one per pair of
summands.  The cone of w is the direct sum of the untouched summands of X
and Y and the cones of the connected components of its block support, and
the diagonal torus of Aut Y x Aut X, which scales the blocks, preserves
it.  A support with no cycle thus needs one (memoised) cone, whatever q is.
The per-morphism sweep is kept in ``tests/test_hall_oracle.py``.

The shift [1] is a triangulated autoequivalence, so the structure
constants, a(Z), {X,Y} and the Euler form are shift-invariant and
[X[k]]*[Y[k]] = ([X]*[Y])[k].  The product cache therefore sweeps only the
pair translated to lowest summand shift 0 and shifts each cone back.

Free-algebra expressions are evaluated here by sending each generator
to a basis class and each Q(v) coefficient to Q(sqrt(q)).
``evaluate_many`` evaluates a batch of polynomials, such as every side of
a relation set, in one pass.  It walks the trie of the reversed words of
all their terms depth first (as the sorted list of those words) and makes
one left multiplication [g] * acc(parent) per trie node, so a word suffix
shared by many terms is multiplied once and a single basis class stays on
the left.  Inside the kernel an element is (d, ((L, A, B), ...)), the sum
of (A + B sqrt(q))/d [L] with Python ints, reduced by one gcd per product
(``_combine``); the product cache stores the same form.  QuadraticScalar
coefficients are built only for the results, and ``hall_product`` goes
through the same kernel.  The per-word route on QuadraticScalar is kept in
``tests/hall_oracle.py``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .freealg import Generator, NCPolynomial
from .repq import DerivedCategory, DerivedObject, FiniteField
from .scalar import QuadraticScalar, RationalFunctionV, evaluate_at


class HallElement:
    """A finite Q(sqrt(q))-linear combination of derived objects."""

    __slots__ = ("q", "terms")

    def __init__(self, q: int, terms: Dict[DerivedObject, QuadraticScalar] = None):
        clean = {}
        for obj, c in (terms or {}).items():
            if not c.is_zero():
                clean[obj] = c
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *_):
        raise AttributeError("immutable")

    @staticmethod
    def zero(q: int) -> "HallElement":
        return HallElement(q, {})

    @staticmethod
    def basis(q: int, obj: DerivedObject, coeff=1) -> "HallElement":
        if not isinstance(coeff, QuadraticScalar):
            coeff = QuadraticScalar(q, coeff)
        return HallElement(q, {obj: coeff})

    @staticmethod
    def unit(q: int) -> "HallElement":
        return HallElement.basis(q, DerivedObject.zero())

    def is_zero(self) -> bool:
        return not self.terms

    def _coerce(self, other):
        if isinstance(other, HallElement):
            if other.q != self.q:
                raise ValueError("mixed q")
            return other
        if isinstance(other, (int, Fraction, QuadraticScalar)):
            return HallElement.basis(self.q, DerivedObject.zero(), other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for obj, c in other.terms.items():
            out[obj] = out[obj] + c if obj in out else c
        return HallElement(self.q, out)

    __radd__ = __add__

    def __neg__(self):
        return HallElement(self.q, {o: -c for o, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c) -> "HallElement":
        if not isinstance(c, QuadraticScalar):
            c = QuadraticScalar(self.q, c)
        return HallElement(self.q, {o: cc * c for o, cc in self.terms.items()})

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash((self.q, frozenset(self.terms.items())))

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0].summands)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for obj, c in self.sorted_terms():
            cs = str(c)
            if any(op in cs[1:] for op in "+-") or "/" in cs:
                cs = f"({cs})"
            parts.append(f"{cs}*[{obj}]")
        return " + ".join(parts)

    __repr__ = __str__


#: a Hall element inside the kernel: (d, ((L, A, B), ...)) stands for
#: sum_L (A + B sqrt(q))/d [L], with ints, d > 0, no zero term and
#: gcd(d, every A and B) = 1
Numerators = Tuple[int, Tuple[Tuple[DerivedObject, int, int], ...]]


def _common_denominator(pairs):
    """Rationals (a, b) as (d, [(A, B)]) with a = A/d, b = B/d and d the
    lcm of the denominators, so gcd(d, every A and B) = 1."""
    d = math.lcm(*(x.denominator for ab in pairs for x in ab))
    return d, [(a.numerator * (d // a.denominator), b.numerator * (d // b.denominator))
               for a, b in pairs]


class HallAlgebra:
    """Computation context: fixed m and prime power q, with memo caches."""

    def __init__(self, m: int, q: int, modulus=None):
        self.m = m
        self.q = q
        self.field = FiniteField(q, modulus)
        self.category = DerivedCategory(m, self.field)
        # (X.summands, Y.summands) -> (d, ((L, A, B), ...))
        self._product_cache: Dict[Tuple, Tuple] = {}
        # one instance per cone class, shared by every cached product
        self._objects: Dict[Tuple, DerivedObject] = {}

    # -- scalar-valued ingredients ------------------------------------------

    def braces(self, X: DerivedObject, Y: DerivedObject) -> Fraction:
        """{X,Y} = prod_{n>0} |Ext^{-n}(X,Y)|^{(-1)^n} as an exact rational."""
        dims = self.category.dhom_dims(X, Y)
        exponent = sum((-1) ** n * dims.get(-n, 0) for n in range(1, 1 + max(
            (-k for k in dims if k < 0), default=0)))
        return Fraction(self.q) ** exponent

    def structure_constant(self, X: DerivedObject, Y: DerivedObject,
                           L: DerivedObject, count: int) -> Fraction:
        """F^L_{X,Y} from count = #{w in Hom(Y[-1], X) : cone(w) = L}."""
        def a(Z):
            return self.category.aut_count(Z) * self.braces(Z, Z)

        hom_yx = self.category.dhom_dims(Y, X).get(0, 0)
        return count * a(L) / (a(X) * a(Y) * self.q ** hom_yx * self.braces(Y, X))

    # -- products ------------------------------------------------------------

    def _basis_product(self, X: DerivedObject, Y: DerivedObject):
        """[X]*[Y] as (d, ((L, A, B), ...)), the sum of (A + B sqrt(q))/d [L]
        in the order of L.summands, reduced.

        The product is shift-equivariant, so only the pair translated to
        lowest summand shift 0 is swept; the result is shifted back and
        also stored under the caller's key, so a repeated call returns the
        same tuple.
        """
        key = (X.summands, Y.summands)
        cached = self._product_cache.get(key)
        if cached is not None:
            return cached
        s = min((n for (_a, _b, n) in key[0] + key[1]), default=0)
        if s == 0:
            out = self._sweep(X, Y)
        else:
            X, Y = X.shifted(-s), Y.shifted(-s)
            base = self._product_cache.get((X.summands, Y.summands))
            if base is None:
                base = self._product_cache[X.summands, Y.summands] = self._sweep(X, Y)
            # shifting every L by s keeps the order of the keys
            d, terms = base
            out = (d, tuple((self._intern(L.shifted(s)), a, b) for L, a, b in terms))
        self._product_cache[key] = out
        return out

    def _sweep(self, X: DerivedObject, Y: DerivedObject):
        twist = QuadraticScalar.sqrt_q_power(self.q, self.category.euler_form(Y, X))
        # N_L: how many w in Hom(Y[-1], X) complete to Y[-1] -> X -> L
        counts = self.category.cone_counts(Y.shifted(-1), X)
        objs = sorted(counts, key=lambda o: o.summands)
        consts = [self.structure_constant(X, Y, L, counts[L]) for L in objs]
        d, nums = _common_denominator([(twist.a * c, twist.b * c) for c in consts])
        return d, tuple((self._intern(L), a, b) for L, (a, b) in zip(objs, nums))

    def _intern(self, L: DerivedObject) -> DerivedObject:
        return self._objects.setdefault(L.summands, L)

    def _combine(self, d: int, parts) -> Numerators:
        """(1/d) sum (a + b sqrt(q)) x over parts (a, b, x), x an element.

        The one multiplication of the kernel: one gcd reduces the result."""
        q = self.q
        den = math.lcm(*(x[0] for _a, _b, x in parts))
        out: Dict[DerivedObject, Tuple[int, int]] = {}
        for a, b, (e, terms) in parts:
            k = den // e
            a, b = a * k, b * k
            for L, c, f in terms:
                x, y = a * c + b * f * q, a * f + b * c
                old = out.get(L)
                out[L] = (x, y) if old is None else (old[0] + x, old[1] + y)
        d *= den
        g = math.gcd(d, *(x for ab in out.values() for x in ab))
        return d // g, tuple((L, a // g, b // g) for L, (a, b) in out.items() if a or b)

    def _left_mul(self, X: DerivedObject, acc: Numerators) -> Numerators:
        """[X] * acc."""
        d, terms = acc
        return self._combine(d, [(a, b, self._basis_product(X, Y)) for Y, a, b in terms])

    def _scaled(self, c: QuadraticScalar, x: Numerators):
        """c * x as a part for ``_combine``."""
        e, [(a, b)] = _common_denominator([(c.a, c.b)])
        return a, b, (e * x[0], x[1])

    def _element(self, x: Numerators) -> HallElement:
        d, terms = x
        return HallElement(self.q, {L: QuadraticScalar(self.q, Fraction(a, d), Fraction(b, d))
                                    for L, a, b in terms})

    def hall_product(self, x: HallElement, y: HallElement) -> HallElement:
        if x.q != self.q or y.q != self.q:
            raise ValueError("element/algebra q mismatch")
        d, nums = _common_denominator([(c.a, c.b) for c in y.terms.values()])
        acc = (d, tuple((Y, a, b) for Y, (a, b) in zip(y.terms, nums)))
        return self._element(self._combine(1, [self._scaled(c, self._left_mul(X, acc))
                                               for X, c in x.terms.items()]))

    # -- evaluation of free-algebra expressions ------------------------------

    def evaluate_many(self, polys: Sequence[NCPolynomial],
                      assign: Dict[Tuple[str, object], DerivedObject]) -> List[HallElement]:
        """Evaluate NCPolynomials in one pass over the trie of their reversed words.

        ``assign`` maps (family, index) to the shift-0 basis object of
        that generator; shifts are applied per generator occurrence.
        """
        # Words are multiplied right to left: keeping a single basis class
        # on the left makes the Hom-set sweeps inside the structure
        # constants exponentially smaller for long words.  Sorting the
        # reversed words lays out their trie depth first, and stack[k] is
        # the value of the first k letters of the current reversed word, so
        # each trie node costs one left multiplication [g] * stack[k].
        entries = sorted(((word[::-1], i, coeff) for i, p in enumerate(polys)
                          for word, coeff in p.terms.items()),
                         key=lambda e: [g.sort_key() for g in e[0]])
        totals: List[Numerators] = [(1, ()) for _ in polys]
        scalars = {}  # Q(v) coefficient -> its value at v = sqrt(q)
        stack = [(1, ((DerivedObject.zero(), 1, 0),))]
        prev = ()
        for rev, i, coeff in entries:
            k = 0
            while k < len(prev) and k < len(rev) and prev[k] == rev[k]:
                k += 1
            del stack[k + 1:]
            for g in rev[k:]:
                base = assign.get((g.family, g.index))
                if base is None:
                    raise ValueError(f"no assignment for generator {g}")
                stack.append(self._left_mul(base.shifted(g.shift), stack[-1]))
            prev = rev
            c = scalars.get(coeff)
            if c is None:
                c = scalars[coeff] = evaluate_at(coeff, self.q)
            totals[i] = self._combine(1, [(1, 0, totals[i]), self._scaled(c, stack[-1])])
        return [self._element(t) for t in totals]

    def evaluate(self, x: NCPolynomial, assign: Dict[Tuple[str, object], DerivedObject]
                 ) -> HallElement:
        """Evaluate one NCPolynomial (see ``evaluate_many``)."""
        return self.evaluate_many([x], assign)[0]

    def verify_identity(self, lhs: NCPolynomial, rhs: NCPolynomial,
                        assign, label: Optional[str] = None) -> dict:
        """Evaluate both sides; report pass/fail with expansions and diff."""
        return identity_report(label, *self.evaluate_many([lhs, rhs], assign))


def identity_report(label: Optional[str], lhs: HallElement, rhs: HallElement) -> dict:
    """The report row of one evaluated identity lhs = rhs."""
    diff = lhs - rhs
    return {
        "label": label,
        "passed": diff.is_zero(),
        "lhs": str(lhs),
        "rhs": str(rhs),
        "diff": str(diff),
    }


def simples_assignment(m: int) -> Dict[Tuple[str, object], DerivedObject]:
    """The standard assignment z_i -> S_i for the quiver generators."""
    return {("z", i): DerivedObject.simple(i) for i in range(1, m)}
