"""Finite-field oracle for the bounded derived category of linear A-type quivers.

The quiver is A_{m-1}: vertices 1..m-1, arrows i -> i+1 (fixed orientation).
Everything is computed honestly over F_q:

* ``FiniteField`` -- arithmetic by lookup in ``add_t[x][y]``,
  ``mul_t[x][y]``, ``neg_t`` and ``inv_t``, each entry computed on first
  use; ``rref`` and the cone kernels index rows instead of calling methods.
* ``DerivedObject`` -- a sorted multiset of shifted intervals (a, b, n),
  which a uniform shift keeps sorted; cones are computed on 2-term
  complexes of projectives, where every Hom(P_i, P_j) with j <= i is one
  dimensional and composition is multiplication of scalars.  Graded Hom
  is additive in both arguments and shift-invariant, so ``dhom_dims``
  counts the degrees of a table of pairs M[a,b), M[c,d)[r] keyed by the
  relative shift r: each pair has Hom F_q in at most one degree, in closed
  form (Happel 1988; M[a,b) lives on a..b-1):

      Hom(M[a,b), M[c,d))  = F_q  iff  c <= a < d <= b,
      Ext1(M[a,b), M[c,d)) = F_q  iff  a < c <= b < d,  else both are 0.

  Automorphism counts follow in closed form, in ints, from dim End.
  Degree-0 Hom is the sum of one-dimensional blocks, one per summand pair
  whose degree is 0, each spanned by a basis chain map written down
  directly; ``enumerate_dhoms`` lists their F_q-combinations.
* ``cone_counts`` -- N_L = #{w : X -> y with cone L}, on summand tuples,
  onto one summand y, as in every sweep of the Hall kernel, whose left
  factor is a letter.  Hom between indecomposables is at most one
  dimensional in each degree, so the block support of w is a star of
  summands of X onto y; its cone is the sum of the untouched summands and
  the cone of the star with every block 1, as the torus of Aut X x Aut y
  is transitive on the (q-1)^|S| morphisms of a support S.  A summand in
  no block passes into every cone unchanged, so the caller (the kernel's
  one pass over the summands of a sweep) hands over only the touched
  summands; the census on them and y and each star's cone are memoised
  modulo the shift functor.  A decomposable left factor never reaches the
  census: the Hall kernel writes it as an Ext-free word of its summands,
  by the derived Riedtmann formula (Toen 2006) in the directed category
  D^b(A_{m-1}) (Happel 1988).  Other supports are counted in tests/ by
  the per-morphism sweep.

``identify`` names a complex of projectives up to isomorphism.  The
category is hereditary, so the complex is the sum of the H^d[-d], and the
intervals of H^d follow (``_intervals``) from the ranks of
H^d(i) -> H^d(j), i <= j.  P_u is nonzero at vertex v iff u <= v
and its arrow maps are inclusions.  With D, D' the differentials out of and
into degree d, and C(i) spanned by the terms u <= i, B_j lies in ker D, so
Z_i meets B_j in B_j meet C(i), and

    rank H^d(i) -> H^d(j) = #{u <= i} - rank D[:, u <= i] - rank D'[:, u <= j]
                            + rank D'[rows u > i, cols u <= j].

The Hom-complex solver the closed forms replaced, and quiver
representations with their interval decompositions, are oracles in tests/.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .scalar import Frozen, prime_power_decompose

# ---------------------------------------------------------------------------
# finite fields
# ---------------------------------------------------------------------------

class _Lazy(dict):
    """A lookup table whose entry for ``x`` is ``fn(x)``, computed on first use."""

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, x):
        value = self[x] = self.fn(x)
        return value


class FiniteField:
    """F_q with q = p^k.  Elements are integers 0..q-1.

    For k > 1 an element encodes a polynomial over F_p in base-p digits,
    multiplied modulo the irreducible ``modulus`` (coefficient tuple, low
    degree first, leading coefficient 1) that ``_first_irreducible`` finds.

    Arithmetic is by lookup: ``add_t[x][y] = x + y``, ``mul_t[x][y] = x y``,
    ``neg_t[x]`` and ``inv_t[x]``.  Kernels fetch the row of a fixed factor
    once and index it per entry.  Every entry is computed on its first
    lookup, so memory follows use: over a large field each cone may bring a
    new scalar, and whole rows of q entries would cost O(q^2).
    """

    def __init__(self, q: int):
        pk = prime_power_decompose(q)
        if pk is None:
            raise ValueError(f"{q} is not a prime power")
        self.q = q
        self.p, self.k = pk
        self.modulus = None if self.k == 1 else self._first_irreducible()
        self.add_t = _Lazy(lambda x: _Lazy(functools.partial(self._add, x)))
        self.mul_t = _Lazy(lambda x: _Lazy(functools.partial(self._mul, x)))
        self.neg_t = _Lazy(lambda x: self._undigits([-a for a in self._digits(x)]))
        self.inv_t = _Lazy(self._inverse)

    # polynomial encoding helpers -------------------------------------------

    def _digits(self, x: int) -> List[int]:
        return [x // self.p ** i % self.p for i in range(self.k)]

    def _undigits(self, ds: Sequence[int]) -> int:
        return sum(d % self.p * self.p ** i for i, d in enumerate(ds))

    def _modulus_irreducible(self, modulus: Tuple[int, ...]) -> bool:
        # brute-force: no monic factor of degree 1..k/2 divides the modulus
        for deg in range(1, self.k // 2 + 1):
            for tail in itertools.product(range(self.p), repeat=deg):
                divisor = list(tail) + [1]
                if not self._polmod(list(modulus), divisor):
                    return False
        return True

    def _first_irreducible(self) -> Tuple[int, ...]:
        """The irreducible monic degree-k modulus whose lower coefficients,
        read as base-p digits, form the smallest number."""
        for code in range(self.p ** self.k):
            modulus = tuple(self._digits(code)) + (1,)
            if self._modulus_irreducible(modulus):
                return modulus

    def _polmod(self, a: List[int], b: List[int]) -> List[int]:
        """Remainder of ``a`` modulo the monic ``b`` (coefficients, low first)."""
        a = [c % self.p for c in a]
        while a and (a[-1] == 0 or len(a) >= len(b)):
            c = a.pop()  # a zero, or the leading term cancelled by c x^off b
            if c:
                off = len(a) + 1 - len(b)
                for i, cb in enumerate(b[:-1]):
                    a[off + i] = (a[off + i] - c * cb) % self.p
        return a

    # arithmetic that fills the lookup tables -------------------------------

    def _add(self, x: int, y: int) -> int:
        return self._undigits([a + b for a, b in zip(self._digits(x), self._digits(y))])

    def _mul(self, x: int, y: int) -> int:
        if self.k == 1:
            return x * y % self.p
        prod = [0] * (2 * self.k - 1)
        for i, a in enumerate(self._digits(x)):
            for j, b in enumerate(self._digits(y)):
                prod[i + j] += a * b
        return self._undigits(self._polmod(prod, list(self.modulus)))

    def _inverse(self, x: int) -> int:
        if x == 0:
            raise ZeroDivisionError("inverse of zero")
        out, e = 1, self.q - 2  # x^(q-2) by square-and-multiply
        while e:
            if e & 1:
                out = self._mul(out, x)
            x, e = self._mul(x, x), e >> 1
        return out

    # field operations, one lookup each ---------------------------------------

    def elements(self):
        return range(self.q)

    def add(self, x: int, y: int) -> int:
        return self.add_t[x][y]

    def neg(self, x: int) -> int:
        return self.neg_t[x]

    def sub(self, x: int, y: int) -> int:
        return self.add_t[x][self.neg_t[y]]

    def mul(self, x: int, y: int) -> int:
        return self.mul_t[x][y]

    def inv(self, x: int) -> int:
        return self.inv_t[x]

    def __repr__(self):
        return f"FiniteField({self.q})"


# ---------------------------------------------------------------------------
# dense linear algebra over a finite field
# ---------------------------------------------------------------------------

Matrix = List[List[int]]


def zeros(rows: int, cols: int) -> Matrix:
    return [[0] * cols for _ in range(rows)]


def rref(F: FiniteField, M: Matrix) -> Tuple[Matrix, List[int]]:
    """Reduced row-echelon form and pivot column indices."""
    R = [row[:] for row in M]
    rows = len(R)
    cols = len(R[0]) if rows else 0
    add_t, mul_t, neg_t, inv_t = F.add_t, F.mul_t, F.neg_t, F.inv_t
    pivots: List[int] = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if R[i][c]), None)
        if pivot is None:
            continue
        R[r], R[pivot] = R[pivot], R[r]
        mi = mul_t[inv_t[R[r][c]]]
        Rr = R[r] = [mi[x] for x in R[r]]
        for i in range(rows):
            f = R[i][c]
            if f and i != r:
                mf = mul_t[neg_t[f]]
                R[i] = [add_t[x][mf[y]] for x, y in zip(R[i], Rr)]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return R, pivots


def mat_rank(F: FiniteField, M: Matrix) -> int:
    if not M or not M[0]:
        return 0
    return len(rref(F, M)[1])


def _intervals(m: int, rank) -> Tuple[Tuple[int, int], ...]:
    """Sorted multiset of intervals (a, b) of a representation of A_{m-1}
    whose composite map vertex i -> vertex j has rank ``rank(i, j)`` for
    1 <= i <= j <= m-1, by inclusion-exclusion over those ranks."""
    ranks = {(i, j): rank(i, j) for i in range(1, m) for j in range(i, m)}

    def r(i: int, j: int) -> int:
        return ranks.get((i, j), 0)  # zero outside 1 <= i <= j <= m-1

    out: List[Tuple[int, int]] = []
    for a in range(1, m):
        for b in range(a + 1, m + 1):
            mult = r(a, b - 1) - r(a - 1, b - 1) - r(a, b) + r(a - 1, b)
            if mult < 0:
                raise ArithmeticError("negative interval multiplicity")
            out.extend([(a, b)] * mult)
    return tuple(out)


# ---------------------------------------------------------------------------
# derived objects
# ---------------------------------------------------------------------------

class DerivedObject(Frozen):
    """A multiset of shifted interval modules (a, b, n), canonically sorted.

    The empty multiset is the zero object.  Immutable and hashed once, as
    the 1-tuple of its field.
    """

    __slots__ = ("summands", "_hash")

    def __init__(self, summands: Tuple[Tuple[int, int, int], ...]):
        object.__setattr__(self, "summands", summands)
        object.__setattr__(self, "_hash", hash((summands,)))

    def __eq__(self, other):
        if other.__class__ is not DerivedObject:
            return NotImplemented
        return self.summands == other.summands

    def __hash__(self):
        return self._hash

    @staticmethod
    def of(items: Iterable[Tuple[int, int, int]]) -> "DerivedObject":
        items = sorted(tuple(x) for x in items)
        for (a, b, _n) in items:
            if not (1 <= a < b):
                raise ValueError(f"bad interval [{a},{b})")
        return DerivedObject(tuple(items))

    @staticmethod
    def zero() -> "DerivedObject":
        return DerivedObject(())

    @staticmethod
    def simple(i: int, n: int = 0) -> "DerivedObject":
        return DerivedObject(((i, i + 1, n),))

    def is_zero(self) -> bool:
        return not self.summands

    def shifted(self, k: int) -> "DerivedObject":
        # a uniform shift keeps the lexicographic order of (a, b, n)
        return DerivedObject(tuple([(a, b, n + k) for (a, b, n) in self.summands]))

    def __str__(self):
        if not self.summands:
            return "0"
        return " + ".join(
            f"M[{a},{b})" + (f"[{n}]" if n else "") for (a, b, n) in self.summands)

    __repr__ = __str__


# -- two-term complexes of projectives --------------------------------------

class _PComplex:
    """A bounded complex whose terms are direct sums of projectives P_i.

    ``labels[d]`` lists the vertex labels i (P_i = M[i, m)) in degree d;
    ``diff[d]`` is the matrix of the differential C^d -> C^{d+1} with
    scalar entries (Hom(P_i, P_j) is k when j <= i, else 0).
    """

    def __init__(self, m: int, labels: Dict[int, List[int]], diff: Dict[int, Matrix]):
        self.m = m
        self.labels = {d: ls for d, ls in labels.items() if ls}
        self.diff = diff

    def degrees(self) -> List[int]:
        return sorted(self.labels)

    def at(self, d: int) -> List[int]:
        return self.labels.get(d, [])

    def dmat(self, d: int) -> Matrix:
        src, dst = self.at(d), self.at(d + 1)
        D = self.diff.get(d)
        if D is None:  # built once; no caller writes to a differential
            D = self.diff[d] = zeros(len(dst), len(src))
        return D


def _term_positions(m: int, X: DerivedObject) -> List[Dict[int, int]]:
    """Per summand of X: degree -> index of its term in ``_object_complex``."""
    count: Counter = Counter()
    out = []
    for (_a, b, n) in X.summands:
        here = {}
        for d in ((-n, -n - 1) if b < m else (-n,)):
            here[d] = count[d]
            count[d] += 1
        out.append(here)
    return out


def _object_complex(m: int, X: DerivedObject) -> _PComplex:
    """Projective resolution complex: M[a,b)[n] gives P_a in degree -n
    and (when b < m) P_b in degree -n-1 with the canonical inclusion."""
    labels: Dict[int, List[int]] = {}
    for (a, b, n) in X.summands:
        labels.setdefault(-n, []).append(a)
        if b < m:
            labels.setdefault(-n - 1, []).append(b)
    diff = {d: zeros(len(labels[d + 1]), len(ls))
            for d, ls in labels.items() if d + 1 in labels}
    for (_a, b, n), pos in zip(X.summands, _term_positions(m, X)):
        if b < m:
            diff[-n - 1][pos[-n]][pos[-n - 1]] = 1
    return _PComplex(m, labels, diff)


class DMorphism:
    """A degree-0 chain map between the projective complexes of X and Y."""

    __slots__ = ("maps", "_cx", "_cy")

    def __init__(self, maps: Dict[int, Matrix], cx: _PComplex, cy: _PComplex):
        self.maps = maps
        self._cx = cx
        self._cy = cy


class DerivedCategory:
    """Computation context for D^b(Rep_{F_q} A_{m-1}) with memo caches."""

    def __init__(self, m: int, q: int):
        if m < 2:
            raise ValueError("need m >= 2")
        self.m = m
        self.field = FiniteField(q)
        # a star's sources and target at lowest shift 0 -> its cone's summands
        self._cone_cache: Dict[Tuple, Tuple] = {}
        # touched summands of X and the target y at lowest shift 0 -> their
        # ``_census``
        self._census_cache: Dict[Tuple, Dict[Tuple, int]] = {}

    def complex_of(self, X: DerivedObject) -> _PComplex:
        return _object_complex(self.m, X)

    # -- graded Hom ----------------------------------------------------------

    def dhom_dims(self, X: DerivedObject, Y: DerivedObject) -> Dict[int, int]:
        """Graded dims: degree k -> dim Hom(X, Y[k]); zero degrees omitted.

        Hom is additive in both arguments, so the dims are summed over
        pairs of summands M[a,b)[n] of X and M[c,d)[k] of Y, and each pair
        depends only on the relative shift k - n (``_pair_dims``).
        """
        total: Dict[int, int] = {}
        for (a, b, n) in X.summands:
            for (c, d, k) in Y.summands:
                deg = self._pair_dims(a, b, c, d, k - n)
                if deg is not None:
                    total[deg] = total.get(deg, 0) + 1
        return {deg: total[deg] for deg in sorted(total)}

    def _pair_dims(self, a: int, b: int, c: int, d: int, r: int) -> Optional[int]:
        """The one degree k with Hom(M[a,b), M[c,d)[r][k]) != 0, or None;
        that Hom is F_q (module docstring).  Hom of the modules sits in
        degree -r, Ext1 in 1 - r."""
        if c <= a < d <= b:
            return -r
        if a < c <= b < d:
            return 1 - r
        return None

    def enumerate_dhoms(self, X: DerivedObject, Y: DerivedObject) -> List[DMorphism]:
        """All homotopy classes of degree-0 maps X -> Y, one representative
        each: the F_q-combinations of the basis maps of the blocks, one per
        summand pair with Hom(X_i, Y_j) != 0 in degree 0."""
        blocks = [(i, j) for i, (a, b, n) in enumerate(X.summands)
                  for j, (c, d, k) in enumerate(Y.summands)
                  if self._pair_dims(a, b, c, d, k - n) == 0]
        return [self._block_morphism(X, Y, [(i, j, v) for (i, j), v in zip(blocks, values) if v])
                for values in itertools.product(self.field.elements(), repeat=len(blocks))]

    # -- cone counts over torus orbits of support patterns -------------------

    def cone_counts(self, xs, y) -> Dict[Tuple, int]:
        """N_C = #{w in Hom(X, y) : cone(w) = C} for every cone class C, with
        X and C given by their summands (sorted) and y one summand, when
        every summand X_i of X has Hom(X_i, y) != 0.

        Hom between two indecomposables is at most one dimensional in each
        degree, so Hom(X, y) is a sum of one-dimensional blocks, one per
        summand of X.  A summand in no block would pass into every cone
        unchanged, as X_i[1], so the caller splits those off and merges
        them into each C.  The counts (``_census``) are memoised modulo
        the shift functor.
        """
        c, d, k = y
        s = min([k] + [n for (_a, _b, n) in xs])
        key = (tuple([(a, b, n - s) for (a, b, n) in xs]), (c, d, k - s))
        census = self._census_cache.get(key)
        if census is None:
            census = self._census_cache[key] = self._census(*key)
        # a uniform shift keeps each cone's summands sorted
        return {tuple([(a, b, n + s) for (a, b, n) in cone]): count
                for cone, count in census.items()}

    def _census(self, xs, y) -> Dict[Tuple, int]:
        """Cone summands (sorted) -> number of morphisms from the summands
        ``xs`` to the one summand ``y``, each of which has a Hom block to y.

        The block support of a morphism is a set S of sources, a star onto
        y, and its cone is (X_i[1] for i not in S) + (the cone of S -> y
        with every block 1), or all of X[1] + y for S empty.  The torus
        (F_q^x)^{#X} x F_q^x of Aut X x Aut y scales block i by
        mu / lambda_i and preserves the cone, and it is transitive on the
        (q-1)^|S| morphisms with support S, so each S needs one cone,
        whatever q is.  The star cones are memoised modulo the shift
        functor, so censuses that share a star share its cone.
        """
        q = self.field.q
        counts: Dict[Tuple, int] = {}
        for mask in range(1 << len(xs)):
            S = tuple([x for t, x in enumerate(xs) if mask >> t & 1])
            summands = [(a, b, n + 1) for t, (a, b, n) in enumerate(xs) if not mask >> t & 1]
            if S:
                s = min(n for (_a, _b, n) in S + (y,))
                key = (tuple([(a, b, n - s) for (a, b, n) in S]), (y[0], y[1], y[2] - s))
                cone = self._cone_cache.get(key)
                if cone is None:
                    edges = [(i, 0, 1) for i in range(len(S))]
                    cone = self._cone_cache[key] = self.cone(self._block_morphism(
                        DerivedObject(key[0]), DerivedObject(key[1:]), edges)).summands
                summands += [(a, b, n + s) for (a, b, n) in cone]
            else:
                summands.append(y)
            L = tuple(sorted(summands))
            counts[L] = counts.get(L, 0) + (q - 1) ** len(S)
        return counts

    def _block_morphism(self, X: DerivedObject, Y: DerivedObject, edges) -> DMorphism:
        """The chain map X -> Y that is ``value`` times the basis map of
        Hom(X_i, Y_j) for each (i, j, value) in ``edges``, zero elsewhere."""
        cx, cy = self.complex_of(X), self.complex_of(Y)
        px, py = _term_positions(self.m, X), _term_positions(self.m, Y)
        maps = {d: zeros(len(cy.at(d)), len(cx.at(d))) for d in cx.degrees()}
        for i, j, value in edges:
            (_a, b, n), (_c, _d, k) = X.summands[i], Y.summands[j]
            for deg in self._pair_block(b, k - n):
                D = deg - n  # the pair's source sits at shift 0, X_i at shift n
                maps[D][py[j][D]][px[i][D]] = value
        return DMorphism(maps, cx, cy)

    def _pair_block(self, b: int, r: int) -> Tuple[int, ...]:
        """The degrees, lowest first, where the basis chain map of a
        one-dimensional degree-0 Hom(M[a,b), M[c,d)[r]) is 1; it is 0
        elsewhere.  A Hom (r = 0) is 1 on P_a -> P_c in degree 0 and, when
        P_b exists (b < m, so d <= b < m), on P_b -> P_d in degree -1; an
        Ext1 (r = 1) is 1 on P_b -> P_c in degree -1."""
        if r == 1:
            return (-1,)
        return (-1, 0) if b < self.m else (0,)

    # -- identification of a projective complex -----------------------------

    def identify(self, c: _PComplex) -> DerivedObject:
        """Isomorphism class of a complex of projectives: the sum over d of
        the intervals of H^d, shifted by -d, from the rank formula of the
        module docstring, with Z(v) = ker D(v) and B(v) = im D'(v)."""
        F = self.field

        def sub_rank(M: Matrix, rows, cols) -> int:
            return mat_rank(F, [[M[r][t] for t in cols] for r in rows])

        summands: List[Tuple[int, int, int]] = []
        for d in c.degrees():
            D, Dp, here, prev = c.dmat(d), c.dmat(d - 1), c.at(d), c.at(d - 1)
            cols = [[t for t, u in enumerate(here) if u <= v] for v in range(self.m)]
            pcols = [[t for t, u in enumerate(prev) if u <= v] for v in range(self.m)]
            zdim = [len(cs) - sub_rank(D, range(len(D)), cs) for cs in cols]
            bdim = [sub_rank(Dp, range(len(Dp)), ps) for ps in pcols]

            def rank(i: int, j: int) -> int:
                if not (zdim[i] and bdim[j]):  # Z(i) = 0 or B(j) = 0: injective
                    return zdim[i]
                above = [t for t, u in enumerate(here) if u > i]
                return zdim[i] - bdim[j] + sub_rank(Dp, above, pcols[j])

            summands += [(a, b, -d) for a, b in _intervals(self.m, rank)]
        return DerivedObject.of(summands)

    def cone(self, f: DMorphism) -> DerivedObject:
        """Mapping cone of a chain map, identified up to isomorphism."""
        cx, cy = f._cx, f._cy
        labels: Dict[int, List[int]] = {}
        degs = set()
        for d in cx.degrees():
            degs.add(d - 1)
        degs.update(cy.degrees())
        for d in sorted(degs):
            labels[d] = list(cx.at(d + 1)) + list(cy.at(d))
        diff: Dict[int, Matrix] = {}
        neg_t = self.field.neg_t
        for d in sorted(degs):
            src_x, src_y = cx.at(d + 1), cy.at(d)
            dst_x, dst_y = cx.at(d + 2), cy.at(d + 1)
            rows = len(dst_x) + len(dst_y)
            cols = len(src_x) + len(src_y)
            if rows == 0 or cols == 0:
                continue
            D = zeros(rows, cols)
            dx = cx.dmat(d + 1)
            for i in range(len(dst_x)):
                for j in range(len(src_x)):
                    if dx[i][j]:
                        D[i][j] = neg_t[dx[i][j]]  # -d_X (shifted part)
            fm = f.maps.get(d + 1)
            if fm:
                for i in range(len(dst_y)):
                    for j in range(len(src_x)):
                        D[len(dst_x) + i][j] = fm[i][j]
            dy = cy.dmat(d)
            for i in range(len(dst_y)):
                for j in range(len(src_y)):
                    D[len(dst_x) + i][len(src_x) + j] = dy[i][j]
            diff[d] = D
        return self.identify(_PComplex(self.m, labels, diff))

    def aut_count(self, X: DerivedObject) -> int:
        """|Aut X| in closed form, in ints.

        Every indecomposable has endomorphism ring F_q, so End(X) modulo its
        radical is the product of the matrix rings M_mult(F_q) over the
        distinct summands, and |Aut X| = q^{dim End X} prod_summands
        prod_{j=1}^{mult} (1 - q^{-j}), that is

            q^{dim End X - sum mult(mult+1)/2} prod_summands prod_{j=1}^{mult} (q^j - 1),

        where the exponent is >= 0 since dim End X >= sum mult^2.  dim End X
        counts the summand pairs whose Hom sits in degree 0, so a caller
        that reads ``dhom_dims(X, X)`` for {X,X} does not read it twice.
        """
        q, count = self.field.q, 1
        e = sum(self._pair_dims(a, b, c, d, k - n) == 0
                for (a, b, n) in X.summands for (c, d, k) in X.summands)
        for mult in Counter(X.summands).values():
            e -= mult * (mult + 1) // 2
            for j in range(1, mult + 1):
                count *= q ** j - 1
        return q ** e * count
