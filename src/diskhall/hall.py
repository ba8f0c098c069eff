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

Only a letter, an indecomposable X, is swept, with one cone per torus
orbit of block-support patterns, not one per morphism
(``DerivedCategory.cone_counts``).  Hom between two indecomposables of
D^b(A_{m-1}) is at most one dimensional in each degree, so Hom(Y[-1], X)
is a sum of one-dimensional blocks, one per summand of Y, and the support
of w is a star onto X.  The cone of w is the sum of the untouched summands
of Y and the cone of the star.  The diagonal torus of Aut Y x Aut X scales
the blocks, preserves the cone and is transitive on the morphisms of one
support, so each support needs one (memoised) cone, with every block 1,
whatever q is.  One pass over the summands Y_i of Y reads the one degree
of each Hom(Y_i, X[*]) (``DerivedCategory._pair_dims``): it gives the Hom
dims the sweep's constant needs and splits Y into the summands that carry
a block, Hom(Y_i[-1], X) != 0, and the rest.  Only the touched ones go to
the census, memoised at lowest shift 0, so sweeps that differ by untouched
summands or by a translation share it; the rest pass into every cone
unchanged.  The per-morphism sweep is kept in
``tests/test_hall_oracle.py``.

Any other left factor is a word in its summands (``_word_product``).  By
the Riedtmann formula, [A]*[B] is the one term c [A + B] when
Hom(B[-1], A) = 0 (Toen 2006), and D^b(A_{m-1}) is directed (Happel,
Triangulated categories in the representation theory of finite
dimensional algebras, 1988): with the summands X_1, ..., X_r of X sorted
by (-n, a, b), Ext^1(X_j, X_i) = 0 for i < j.  So the word
[X_1]*(...*([X_r]*u_0)) is c u_X, and

    [X]*u_Y = [X_1]*(...*([X_r]*u_Y)) / (c a(X)).

The shift [1] is a triangulated autoequivalence, so the structure
constants, a(Z), {X,Y} and the Euler form are shift-invariant and
[X[k]]*[Y[k]] = ([X]*[Y])[k].  The product cache therefore sweeps only the
pair translated to lowest summand shift 0 and shifts each cone back.

The kernel works in the basis u_Z = a(Z)[Z], where a(Y) and a(L) cancel:

    [X].u_Y = sum_L N_L / (a(X) |Hom(Y,X)| {Y,X}) u_L,

so a sweep needs a(X) of its left factor, a letter of a word, and, from its
one pass, dim Hom(Y,X), {Y,X} and <Y,X>.  End X is F_q and X has no
negative-degree self-Hom, so a(X) = q - 1 in closed form;
a(Z) of other classes is memoised modulo the shift as (|Aut Z|, e),
meaning |Aut Z| q^e.  Every u_L of a sweep has the same constant times
N_L, n q^t / d in ints; the twist's sqrt(q) goes to the B half, or into A
when q is a square; one gcd reduces the result.  With no Hom block, the
sweep's one morphism is w = 0, with cone X + Y.  A term meets a(L) only
where a HallElement is built (``_element``), ``hall_product`` divides the
coefficients of y by a(Y) on entry, and the walk starts from [0] = u_0.
``structure_constant`` gives one F^L_{X,Y} as a Fraction.

Free-algebra expressions are evaluated here by sending each quiver
generator z_{i,n} to the class of the shifted simple S_i[n] (Ringel, Hall
algebras and quantum groups, Invent. Math. 1990; Toen 2006) and each Q(v)
coefficient to Q(sqrt(q)).
``evaluate_many`` evaluates a batch of polynomials, such as every side of
a relation set, in one pass.  It walks the trie of the reversed words of
all their terms depth first (as the sorted list of those words), so a word
suffix shared by many terms is evaluated once.  A relation set's
generators are not quiver generators but have images in them (boundary
arcs, chords); the polynomials are not expanded.  At a trie node for g the
walk applies g's image: each word of the image, compiled once per distinct
generator and call as a sorted program of reversed words, is multiplied
onto the parent value letter by letter, right to left, so a single basis
class stays on the left of every product, and the words are summed with
their coefficients.  The walk is shared by every call on the algebra:
programs are interned by their content (class ids and coefficients), and
the value of a trie node is memoised under its parent node and the
program applied, so under the path of programs from u_0.  The cyclic
families of a disk rotate the relations of its minimal presentation, so
they reuse its prefixes; two relation sets that give one generator
different images apply different programs, and share nothing there.
Inside the kernel an element is (d, ((i, A, B), ...)), the sum of
(A + B sqrt(q))/d u_L with i the class id of L and Python ints, reduced by
one gcd per product (``_combine``); the product cache stores the same form
under the pair of ids.  The id of an isoclass carries its lowest summand
shift s: it is s * 2^32 + base, with base the index of its translate to
lowest shift 0 in the class table, so translation by k adds k * 2^32,
however large k is, and the zero class is id 0 at every shift (the cone of
an isomorphism is 0).  Every dict of the kernel hashes ints; a
DerivedObject is built only at the edges (``_element``, ``hall_product``,
``structure_constant``) and for a(Z) of a new class.
QuadraticScalar coefficients are built only for the results, and
``hall_product`` goes through the same kernel.  The per-word route on
QuadraticScalar and the route that expands every polynomial in Q(v) first
are kept in ``tests/hall_oracle.py``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .freealg import Combination, Generator, NCPolynomial
from .repq import DerivedCategory, DerivedObject
from .scalar import QuadraticScalar, RationalFunctionV, evaluate_at


class HallElement(Combination):
    """A finite Q(sqrt(q))-linear combination of derived objects."""

    __slots__ = ("q", "terms")

    def __init__(self, q: int, terms: Dict[DerivedObject, QuadraticScalar] = None):
        clean = {}
        for obj, c in (terms or {}).items():
            if not c.is_zero():
                clean[obj] = c
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "terms", clean)

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

    def _coerce(self, other):
        if isinstance(other, HallElement):
            if other.q != self.q:
                raise ValueError("mixed q")
            return other
        if isinstance(other, (int, Fraction, QuadraticScalar)):
            return HallElement.basis(self.q, DerivedObject.zero(), other)
        return NotImplemented

    def _new(self, terms):
        return HallElement(self.q, terms)

    def _scalar(self, c):
        return c if isinstance(c, QuadraticScalar) else QuadraticScalar(self.q, c)

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
#: sum_L (A + B sqrt(q))/d u_L, u_L = a(L)[L], with L a class id of the
#: ``HallAlgebra``, ints, d > 0, no zero term and gcd(d, every A and B) = 1
Numerators = Tuple[int, Tuple[Tuple[int, int, int], ...]]


def _common_denominator(pairs):
    """Rationals (a, b) as (d, [(A, B)]) with a = A/d, b = B/d and d the
    lcm of the denominators, so gcd(d, every A and B) = 1."""
    d = math.lcm(*(x.denominator for ab in pairs for x in ab))
    return d, [(a.numerator * (d // a.denominator), b.numerator * (d // b.denominator))
               for a, b in pairs]


def _trie_order(items):
    """(reversed word, payload) pairs in the depth-first order of the trie of
    their words, i.e. sorted, as (k, word, payload) with k the length of the
    common prefix with the word before."""
    prev = ()
    for rev, payload in sorted(items, key=lambda e: [g.sort_key() for g in e[0]]):
        k = 0
        while k < len(prev) and k < len(rev) and prev[k] == rev[k]:
            k += 1
        yield k, rev, payload
        prev = rev


def _brace_exponent(dims: Dict[int, int]) -> int:
    """e with {X,Y} = q^e, from dims = dhom_dims(X, Y)."""
    return sum((-1) ** (k % 2) * dim for k, dim in dims.items() if k < 0)


#: the id step of the shift [1]: a nonzero class of lowest summand shift s
#: has the id s * _STEP + base, with base < _STEP
_STEP = 1 << 32


def _part(c: Tuple[int, int, int], x: Numerators):
    """c * x as a part for ``HallAlgebra._combine``, c = (A, B, d) meaning
    (A + B sqrt(q))/d."""
    a, b, d = c
    return a, b, (d * x[0], x[1])


class HallAlgebra:
    """Computation context: fixed m and prime power q, with memo caches."""

    def __init__(self, m: int, q: int):
        self.m = m
        self.q = q
        self.category = DerivedCategory(m, q)
        # the class table: a class of lowest summand shift s has the id
        # s * _STEP + base, where base indexes its translate to lowest
        # shift 0; the zero class is id 0 = base 0
        self._bases: Dict[Tuple, int] = {(): 0}
        self._base_summands: List[Tuple] = [()]
        # (id of X, id of Y) -> (d, ((id of L, A, B), ...))
        self._product_cache: Dict[Tuple[int, int], Numerators] = {}
        # base of Z -> (|Aut Z|, e) with a(Z) = |Aut Z| q^e
        self._a_memo: Dict[int, Tuple[int, int]] = {}
        # the shared walk: image program content -> its id; (walk node id,
        # program id) -> (id of the child node, the child's value); node 0
        # is u_0
        self._programs: Dict[Tuple, int] = {}
        self._walk: Dict[Tuple[int, int], Tuple[int, Numerators]] = {}
        # Q(v) coefficient -> (A, B, d): its value (A + B sqrt(q))/d
        self._scalars: Dict[RationalFunctionV, Tuple[int, int, int]] = {}

    # -- the class table -----------------------------------------------------

    def _id(self, summands: Tuple) -> int:
        """The id of the class with these (sorted) summands."""
        if not summands:
            return 0
        s = min([n for (_a, _b, n) in summands])
        if s:  # a uniform shift keeps the order of the summands
            summands = tuple([(a, b, n - s) for (a, b, n) in summands])
        base = self._bases.get(summands)
        if base is None:
            base = self._bases[summands] = len(self._base_summands)
            self._base_summands.append(summands)
        return s * _STEP + base

    def _summands(self, i: int) -> Tuple:
        """The (sorted) summands of the class of id i."""
        s, base = divmod(i, _STEP)
        summands = self._base_summands[base]
        return tuple([(a, b, n + s) for (a, b, n) in summands]) if s else summands

    def _object(self, i: int) -> DerivedObject:
        return DerivedObject(self._summands(i))

    # -- scalar-valued ingredients ------------------------------------------

    def _a(self, i: int) -> Tuple[int, int]:
        """a(Z) = |Aut Z| {Z,Z} as (|Aut Z|, e), meaning |Aut Z| q^e, for the
        class Z of id i.

        Both factors are shift-invariant, so they are computed and memoised
        for Z translated to lowest summand shift 0, the base of its id."""
        base = i % _STEP
        out = self._a_memo.get(base)
        if out is None:
            Z = self._object(base)
            out = self._a_memo[base] = (self.category.aut_count(Z),
                                        _brace_exponent(self.category.dhom_dims(Z, Z)))
        return out

    def structure_constant(self, X: DerivedObject, Y: DerivedObject,
                           L: DerivedObject, count: int) -> Fraction:
        """F^L_{X,Y} = N_L a(L) / (a(X) a(Y) |Hom(Y,X)| {Y,X}) from
        count = N_L = #{w in Hom(Y[-1], X) : cone(w) = L}."""
        (ax, ex), (ay, ey), (al, el) = (self._a(self._id(Z.summands)) for Z in (X, Y, L))
        dims = self.category.dhom_dims(Y, X)
        e = el - ex - ey - dims.get(0, 0) - _brace_exponent(dims)
        return Fraction(count * al, ax * ay) * Fraction(self.q) ** e

    # -- products ------------------------------------------------------------

    def _basis_product(self, x: int, y: int) -> Numerators:
        """[X]*u_Y for the classes of ids x, y as (d, ((L, A, B), ...)), the
        sum of (A + B sqrt(q))/d u_L in the order of the summands of L,
        reduced.

        Only a letter X is swept: the product is shift-equivariant, so the
        pair translated to lowest summand shift 0 is swept, and the result
        is shifted back and also stored under the caller's key, so a
        repeated call returns the same tuple.  Any other X is a word in
        its summands (``_word_product``).
        """
        key = (x, y)
        cached = self._product_cache.get(key)
        if cached is not None:
            return cached
        if len(self._base_summands[x % _STEP]) != 1:
            out = self._word_product(x, y)
        else:
            # X is a letter, so not 0; the shift of a class is id // _STEP
            shift = min(x, y or x) // _STEP * _STEP
            if not shift:
                out = self._sweep(x, y)
            else:
                x, y = x - shift, y and y - shift
                base = self._product_cache.get((x, y))
                if base is None:
                    base = self._product_cache[x, y] = self._sweep(x, y)
                # shifting every L by the same amount keeps the order of
                # the terms; the zero class is not shifted
                d, terms = base
                out = (d, tuple([(L and L + shift, a, b) for L, a, b in terms]))
        self._product_cache[key] = out
        return out

    def _word_product(self, x: int, y: int) -> Numerators:
        """[X]*u_Y for a class X that is 0 or has two or more summands.

        With X_1, ..., X_r its summands sorted by (-n, a, b), Ext^1(X_j, X_i)
        = 0 for i < j: by ``_pair_dims``, Ext^1(M[a,b)[n], M[c,d)[k]) != 0
        only when k = n and a < c, or k = n - 1.  So Hom(X_j[-1], X_i) = 0
        and, by the Riedtmann formula, each product of the word
        [X_1]*(...*([X_r]*u_0)) has the one term of the direct sum: the
        word is c u_X = c a(X) [X], with c of one half only, and
        [X]*u_Y = [X_1]*(...*([X_r]*u_Y)) / (c a(X)).
        """
        q = self.q
        acc, unit = (1, ((y, 1, 0),)), (1, ((0, 1, 0),))
        # right to left: X_r is applied first
        for s in sorted(self._summands(x), key=lambda s: (-s[2], s[0], s[1]), reverse=True):
            z = self._id((s,))
            acc, unit = self._left_mul(z, acc), self._left_mul(z, unit)
        d, terms = unit
        if len(terms) != 1 or terms[0][0] != x or (terms[0][1] and terms[0][2]):
            raise ArithmeticError(f"the word of {self._summands(x)} is not one term")
        _x, a, b = terms[0]
        aut, e = self._a(x)
        den = aut * q ** max(e, 0) * (a or b * q)  # 1/(b sqrt(q)) = sqrt(q)/(b q)
        num = d * q ** max(-e, 0)
        d, terms = self._combine(den, [(0, num, acc) if b else (num, 0, acc)])
        return d, tuple(sorted(terms, key=lambda t: self._summands(t[0])))

    def _sweep(self, x: int, y: int) -> Numerators:
        """[X]*u_Y for a letter X, with u_Y = a(Y)[Y], in the u basis: a(Y)
        and a(L) cancel from the Riedtmann formula, so every u_L has the
        constant N_L q^{<Y,X>/2} / (a(X) |Hom(Y,X)| {Y,X}), and
        a(X) = q - 1 (End X = F_q, and X has no negative-degree self-Hom).

        One pass over the summands Y_i of Y reads the one degree of each
        Hom(Y_i, X[*]) (``_pair_dims``): it sums the Euler form, dim Hom(Y,X)
        and {Y,X}, and splits Y[-1] into the summands with a Hom block to X,
        those with Hom(Y_i, X[1]) != 0, which go to the census, and the
        rest, which pass into every cone as Y_i."""
        q = self.q
        letter = self._summands(x)[0]
        c, d, k = letter
        pair_dims = self.category._pair_dims
        touched, rest = [], []
        euler = hom = brace = 0  # <Y,X>, dim Hom(Y,X) and e with {Y,X} = q^e
        for (a, b, n) in self._summands(y):
            deg = pair_dims(a, b, c, d, k - n)
            if deg == 1:
                touched.append((a, b, n - 1))
            else:
                rest.append((a, b, n))
            if deg is not None:
                sign = -1 if deg % 2 else 1
                euler += sign
                if deg == 0:
                    hom += 1
                elif deg < 0:
                    brace += sign
        # N_L: how many w in Hom(Y[-1], X) complete to Y[-1] -> X -> L
        counts = self.category.cone_counts(tuple(touched), letter)
        # the twist q^{<Y,X>/2} = q^half sqrt(q)^odd
        half, odd = divmod(euler, 2)
        t = half - hom - brace
        d, scale = (q - 1) * q ** max(0, -t), q ** max(0, t)
        root = math.isqrt(q)
        if odd and root * root == q:  # sqrt(q) is an integer: fold it into A
            scale, odd = scale * root, 0
        nums = sorted((tuple(sorted(rest + list(cone))), n * scale) for cone, n in counts.items())
        g = math.gcd(d, *(n for _L, n in nums))
        if odd:
            return d // g, tuple([(self._id(L), 0, n // g) for L, n in nums])
        return d // g, tuple([(self._id(L), n // g, 0) for L, n in nums])

    def _combine(self, d: int, parts) -> Numerators:
        """(1/d) sum (a + b sqrt(q)) x over parts (a, b, x), x an element.

        The one multiplication of the kernel: one gcd reduces the result."""
        q = self.q
        den = math.lcm(*(x[0] for _a, _b, x in parts))
        out: Dict[int, Tuple[int, int]] = {}
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

    def _left_mul(self, x: int, acc: Numerators) -> Numerators:
        """[X] * acc, for the class X of id x."""
        d, terms = acc
        if d == 1 and len(terms) == 1 and terms[0][1] == 1 and not terms[0][2]:
            return self._basis_product(x, terms[0][0])  # acc = u_Y: nothing to sum
        return self._combine(d, [(a, b, self._basis_product(x, y)) for y, a, b in terms])

    def _element(self, x: Numerators) -> HallElement:
        """A kernel element, in the u basis, as a HallElement: u_L = a(L)[L]."""
        d, terms = x
        q, out = self.q, {}
        for L, a, b in terms:
            aut, e = self._a(L)
            n, m = aut * q ** max(e, 0), d * q ** max(-e, 0)
            out[self._object(L)] = QuadraticScalar(q, Fraction(a * n, m), Fraction(b * n, m))
        return HallElement(q, out)

    def hall_product(self, x: HallElement, y: HallElement) -> HallElement:
        if x.q != self.q or y.q != self.q:
            raise ValueError("element/algebra q mismatch")
        ys = [self._id(Y.summands) for Y in y.terms]
        pairs = []
        for i, c in zip(ys, y.terms.values()):  # [Y] = u_Y / a(Y)
            aut, e = self._a(i)
            s = 1 / (aut * Fraction(self.q) ** e)
            pairs.append((c.a * s, c.b * s))
        d, nums = _common_denominator(pairs)
        acc = (d, tuple((i, a, b) for i, (a, b) in zip(ys, nums)))
        e, nums = _common_denominator([(c.a, c.b) for c in x.terms.values()])
        return self._element(self._combine(1, [
            _part((a, b, e), self._left_mul(self._id(X.summands), acc))
            for X, (a, b) in zip(x.terms, nums)]))

    # -- evaluation of free-algebra expressions ------------------------------

    def evaluate_many(self, polys: Sequence[NCPolynomial],
                      expand: Optional[Callable[[Generator], NCPolynomial]] = None
                      ) -> List[HallElement]:
        """Evaluate NCPolynomials in one pass over the trie of their reversed words.

        ``expand``, if given, sends each generator to its image, a
        polynomial in the quiver generators z_{i,n}, and each generator is
        replaced by its image as the walk reaches it; without it every
        generator is its own image.  z_{i,n} is the class of the shifted
        simple S_i[n] = M[i,i+1)[n], for 1 <= i <= m - 1.
        """
        # Words are multiplied right to left: keeping a single basis class
        # on the left makes the Hom-set sweeps inside the structure
        # constants exponentially smaller for long words.  In the trie
        # order of the reversed words, stack[k] is the walk node (id,
        # value) of the first k letters of the current reversed word, so
        # each trie node costs one application of its generator's image,
        # or none if an earlier call made the same one (``_apply``).
        entries = list(_trie_order((word[::-1], (i, coeff)) for i, p in enumerate(polys)
                                   for word, coeff in p.terms.items()))
        # every image is compiled once, in order of first occurrence and
        # before the first product, so a generator with no image, or an
        # image that is not in the quiver generators, fails early
        programs = {g: self._program(expand(g) if expand else NCPolynomial.generator(g))
                    for g in dict.fromkeys(g for _k, rev, _c in entries for g in rev)}
        totals: List[Numerators] = [(1, ()) for _ in polys]
        stack = [(0, (1, ((0, 1, 0),)))]  # [0] = u_0: a(0) = 1
        for k, rev, (i, coeff) in entries:
            del stack[k + 1:]
            for g in rev[k:]:
                stack.append(self._apply(programs[g], stack[-1]))
            totals[i] = self._combine(1, [(1, 0, totals[i]),
                                          _part(self._scalar(coeff), stack[-1][1])])
        return [self._element(t) for t in totals]

    def _scalar(self, coeff: RationalFunctionV):
        """coeff at v = sqrt(q) as (A, B, d), memoised."""
        c = self._scalars.get(coeff)
        if c is None:
            v = evaluate_at(coeff, self.q)
            d, [(a, b)] = _common_denominator([(v.a, v.b)])
            c = self._scalars[coeff] = (a, b, d)
        return c

    def _program(self, image: NCPolynomial):
        """An image as a program for ``_run``, interned: its reversed words in
        trie order, each as (k, the class ids after its first k letters, its
        coefficient as (A, B, d)); z_{i,n} is the id of S_i[n].  Returns
        (program id, program); equal programs get one id, whichever
        generator they are the image of."""
        program = []
        for k, rev, coeff in _trie_order((w[::-1], c) for w, c in image.terms.items()):
            ids = []
            for g in rev[k:]:
                i = g.index
                if g.family != "z" or type(i) is not int or not 1 <= i < self.m:
                    raise ValueError(f"no assignment for generator {g}")
                ids.append(self._id(((i, i + 1, g.shift),)))
            program.append((k, tuple(ids), self._scalar(coeff)))
        program = tuple(program)
        return self._programs.setdefault(program, len(self._programs)), program

    def _apply(self, compiled, node):
        """The walk node of image * x, for a compiled image (program id,
        program) and the walk node (id, x), memoised for the algebra's
        lifetime: a node is named by its parent and the program applied, so
        by the path of program contents from u_0, and relation sets that
        give one generator different images never share a node."""
        pid, program = compiled
        key = (node[0], pid)
        out = self._walk.get(key)
        if out is None:
            out = self._walk[key] = (len(self._walk) + 1, self._run(program, node[1]))
        return out

    def _run(self, program, x: Numerators) -> Numerators:
        """image * x for a compiled image: each word of the image is
        multiplied onto x letter by letter, right to left, with a stack of
        the shared suffix values as in ``evaluate_many``."""
        stack = [x]
        parts = []
        for k, ids, c in program:
            del stack[k + 1:]
            for x in ids:
                stack.append(self._left_mul(x, stack[-1]))
            parts.append(_part(c, stack[-1]))
        if len(program) == 1 and program[0][2] == (1, 0, 1):
            return stack[-1]  # one word with coefficient 1: nothing to sum
        return self._combine(1, parts)

    def evaluate(self, x: NCPolynomial) -> HallElement:
        """Evaluate one NCPolynomial (see ``evaluate_many``)."""
        return self.evaluate_many([x])[0]

    def verify_identity(self, lhs: NCPolynomial, rhs: NCPolynomial,
                        label: Optional[str] = None) -> dict:
        """Evaluate both sides; report pass/fail with expansions and diff."""
        return identity_report(label, *self.evaluate_many([lhs, rhs]))


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
