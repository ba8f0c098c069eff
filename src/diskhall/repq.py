"""Finite-field oracle for the bounded derived category of linear A-type quivers.

The quiver is A_{m-1}: vertices 1..m-1, arrows i -> i+1 (fixed orientation).
Everything is computed honestly over F_q:

* ``FiniteField`` -- arithmetic by lookup in ``add_t[x][y]``,
  ``mul_t[x][y]``, ``neg_t`` and ``inv_t``, each entry computed on first
  use; ``rref`` and the Hom/cone kernels index rows instead of calling
  methods.
* ``QuiverRep`` -- vertex vector spaces + arrow matrices.
* ``barcode`` -- Krull-Schmidt decomposition into interval modules by
  rank inclusion-exclusion of composite arrow maps.
* ``DerivedObject`` -- a multiset of shifted intervals (a, b, n); derived
  Hom spaces and cones are computed on 2-term complexes of projectives,
  where every Hom(P_i, P_j) with j <= i is one dimensional and composition
  is multiplication of scalars.  Graded Hom is additive in both arguments
  and shift-invariant, so ``dhom_dims`` sums a table of pairs of
  indecomposables M[a,b), M[c,d)[r] keyed by the relative shift r, each
  entry computed once on its Hom complex.  Automorphism counts follow in
  closed form from dim End.
* ``cone_counts`` -- N_L = #{w : X -> Y with cone L}, from one cone per
  torus orbit of block-support patterns: Hom between indecomposables is at
  most one dimensional in each degree, cones split over the connected
  components of the support, and the torus of Aut X x Aut Y preserves them.
  Each component's cone is memoised modulo the shift functor.

``identify`` names a complex of projectives up to isomorphism.  The
category is hereditary, so the complex is the sum of the H^d[-d], and the
intervals of H^d follow (``_intervals``, shared with ``barcode``) from the
ranks of H^d(i) -> H^d(j), i <= j.  P_u is nonzero at vertex v iff u <= v
and its arrow maps are inclusions.  With D, D' the differentials out of and
into degree d, and C(i) spanned by the terms u <= i, B_j lies in ker D, so
Z_i meets B_j in B_j meet C(i), and

    rank H^d(i) -> H^d(j) = #{u <= i} - rank D[:, u <= i] - rank D'[:, u <= j]
                            + rank D'[rows u > i, cols u <= j].
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .scalar import prime_power_decompose

# ---------------------------------------------------------------------------
# finite fields
# ---------------------------------------------------------------------------

#: default irreducible moduli (coefficient tuples, low degree first, monic);
#: any other q uses the first irreducible modulus found by search
_DEFAULT_MODULI = {
    4: (1, 1, 1),        # x^2 + x + 1 over F_2
    8: (1, 1, 0, 1),     # x^3 + x + 1 over F_2
    9: (1, 0, 1),        # x^2 + 1 over F_3
    25: (3, 0, 1),       # x^2 + 3 over F_5
    27: (1, 2, 0, 1),    # x^3 + 2x + 1 over F_3
}


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
    multiplied modulo an irreducible ``modulus`` (coefficient tuple, low
    degree first, leading coefficient 1).

    Arithmetic is by lookup: ``add_t[x][y] = x + y``, ``mul_t[x][y] = x y``,
    ``neg_t[x]`` and ``inv_t[x]``.  Kernels fetch the row of a fixed factor
    once and index it per entry.  Every entry is computed on its first
    lookup, so memory follows use: over a large field each cone may bring a
    new scalar, and whole rows of q entries would cost O(q^2).
    """

    def __init__(self, q: int, modulus: Optional[Tuple[int, ...]] = None):
        pk = prime_power_decompose(q)
        if pk is None:
            raise ValueError(f"{q} is not a prime power")
        self.q = q
        self.p, self.k = pk
        if self.k == 1:
            self.modulus = None
        else:
            modulus = modulus or _DEFAULT_MODULI.get(q) or self._first_irreducible()
            modulus = tuple(c % self.p for c in modulus)
            if len(modulus) != self.k + 1 or modulus[-1] != 1:
                raise ValueError("modulus must be monic of degree k")
            if not self._modulus_irreducible(modulus):
                raise ValueError("modulus is reducible")
            self.modulus = modulus
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


def identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(F: FiniteField, A: Matrix, B: Matrix) -> Matrix:
    add_t, mul_t = F.add_t, F.mul_t
    out = zeros(len(A), len(B[0]) if B else 0)
    for Ai, oi in zip(A, out):
        for a, Bt in zip(Ai, B):
            if a:
                ma = mul_t[a]
                oi[:] = [add_t[x][ma[y]] for x, y in zip(oi, Bt)]
    return out


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


def nullspace(F: FiniteField, M: Matrix, cols: Optional[int] = None) -> List[List[int]]:
    """Basis of the right kernel, as column vectors."""
    if cols is None:
        cols = len(M[0]) if M else 0
    if not M or not M[0]:
        return [[1 if i == j else 0 for i in range(cols)] for j in range(cols)]
    R, pivots = rref(F, M)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * cols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = F.neg_t[R[r][fc]]
        basis.append(v)
    return basis


def column_space_extension(F: FiniteField, B: Matrix, K: Matrix) -> List[int]:
    """Indices of columns of K that extend the column space of B.

    ``B`` and ``K`` are matrices with the same number of rows (columns
    are vectors); the returned indices select a basis of span(B + K)
    relative to span(B).
    """
    rows = len(B) if B else (len(K) if K else 0)
    ncb = len(B[0]) if B and B[0] else 0
    nck = len(K[0]) if K and K[0] else 0
    if rows == 0 or nck == 0:
        return []
    M = [[(B[i][j] if j < ncb else K[i][j - ncb]) for j in range(ncb + nck)]
         for i in range(rows)]
    _, pivots = rref(F, M)
    return [p - ncb for p in pivots if p >= ncb]


def columns(vectors: List[List[int]]) -> Matrix:
    """Stack column vectors into a matrix."""
    if not vectors:
        return []
    rows = len(vectors[0])
    return [[v[i] for v in vectors] for i in range(rows)]


# ---------------------------------------------------------------------------
# quiver representations
# ---------------------------------------------------------------------------

class QuiverRep:
    """A representation of the linear A_{m-1} quiver over ``field``.

    ``dims[i]`` is the dimension at vertex i+1 and ``maps[i]`` the matrix
    of the arrow (i+1) -> (i+2), of shape dims[i+1] x dims[i].
    """

    def __init__(self, field: FiniteField, m: int, dims: Sequence[int],
                 maps: Sequence[Matrix]):
        if m < 2:
            raise ValueError("need m >= 2")
        if len(dims) != m - 1 or len(maps) != max(m - 2, 0):
            raise ValueError("dims/maps shape mismatch")
        for i, A in enumerate(maps):
            if len(A) != dims[i + 1] or any(len(row) != dims[i] for row in A):
                raise ValueError(f"arrow {i + 1}->{i + 2} has wrong shape")
        self.field = field
        self.m = m
        self.dims = tuple(dims)
        self.maps = [[row[:] for row in A] for A in maps]


def zero_rep(field: FiniteField, m: int) -> QuiverRep:
    return QuiverRep(field, m, [0] * (m - 1), [[] for _ in range(m - 2)])


def interval_rep(field: FiniteField, m: int, a: int, b: int) -> QuiverRep:
    """The interval module M[a,b) supported on vertices a..b-1."""
    if not (1 <= a < b <= m):
        raise ValueError(f"need 1 <= a < b <= m, got [{a},{b})")
    dims = [1 if a <= v < b else 0 for v in range(1, m)]
    maps = []
    for v in range(1, m - 1):  # arrow v -> v+1
        rows, cols = dims[v], dims[v - 1]
        A = [[0] * cols for _ in range(rows)]
        if rows and cols:
            A[0][0] = 1
        maps.append(A)
    return QuiverRep(field, m, dims, maps)


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


def barcode(M: QuiverRep) -> Tuple[Tuple[int, int], ...]:
    """Multiset of intervals (a, b) in the decomposition of M, sorted."""
    def rank(i: int, j: int) -> int:
        comp = identity(M.dims[i - 1])
        for A in M.maps[i - 1:j - 1]:  # arrows i -> i+1, ..., j-1 -> j
            comp = mat_mul(M.field, A, comp)
        return mat_rank(M.field, comp)

    return _intervals(M.m, rank)


# ---------------------------------------------------------------------------
# derived objects
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DerivedObject:
    """A multiset of shifted interval modules (a, b, n), canonically sorted.

    The empty multiset is the zero object.
    """

    summands: Tuple[Tuple[int, int, int], ...]

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
        return DerivedObject(tuple(sorted((a, b, n + k) for (a, b, n) in self.summands)))

    def class_vector(self, m: int) -> Tuple[int, ...]:
        """Class in K_0 = Z^{m-1}: signed sum of dimension vectors."""
        vec = [0] * (m - 1)
        for (a, b, n) in self.summands:
            s = (-1) ** (n % 2)
            for v in range(a, b):
                vec[v - 1] += s
        return tuple(vec)

    def __str__(self):
        if not self.summands:
            return "0"
        return " + ".join(
            f"M[{a},{b})" + (f"[{n}]" if n else "") for (a, b, n) in self.summands)


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


def _components(edges: List[Tuple[int, int]]):
    """Connected components of the bipartite graph with edges (i, j)
    between source vertices (0, i) and target vertices (1, j), as
    (vertices, edges) pairs, and the edges that close a cycle over the
    spanning forest grown in edge order."""
    parent: Dict[Tuple[int, int], Tuple[int, int]] = {}

    def find(v):
        while parent.setdefault(v, v) != v:
            v = parent[v]
        return v

    cycle = []
    for i, j in edges:
        ru, rv = find((0, i)), find((1, j))
        if ru == rv:
            cycle.append((i, j))
        else:
            parent[ru] = rv
    comps: Dict[Tuple[int, int], Tuple[list, list]] = {}
    for v in parent:
        comps.setdefault(find(v), ([], []))[0].append(v)
    for i, j in edges:
        comps[find((0, i))][1].append((i, j))
    return list(comps.values()), cycle


class DMorphism:
    """A degree-0 chain map between the projective complexes of X and Y."""

    __slots__ = ("maps", "_cx", "_cy")

    def __init__(self, maps: Dict[int, Matrix], cx: _PComplex, cy: _PComplex):
        self.maps = maps
        self._cx = cx
        self._cy = cy


class DerivedCategory:
    """Computation context for D^b(Rep_{F_q} A_{m-1}) with memo caches."""

    def __init__(self, m: int, field: FiniteField):
        if m < 2:
            raise ValueError("need m >= 2")
        self.m = m
        self.field = field
        self._dhom_cache: Dict[Tuple, Dict[int, int]] = {}
        self._pair_cache: Dict[Tuple[int, int, int, int, int], Dict[int, int]] = {}
        self._aut_cache: Dict[Tuple, int] = {}
        self._block_cache: Dict[Tuple[int, int, int, int, int], List[Tuple[int, int]]] = {}
        self._cone_cache: Dict[Tuple, DerivedObject] = {}

    # -- complexes and hom-space plumbing -----------------------------------

    def complex_of(self, X: DerivedObject) -> _PComplex:
        return _object_complex(self.m, X)

    def _hom_vars(self, cx: _PComplex, cy: _PComplex, n: int):
        """Coordinates of the degree-n Hom space: maps X^d -> Y^{d+n}."""
        out = []
        for d in cx.degrees():
            src = cx.at(d)
            dst = cy.at(d + n)
            for i, w in enumerate(dst):
                for j, u in enumerate(src):
                    if w <= u:  # Hom(P_u, P_w) is nonzero iff w <= u
                        out.append((d, i, j))
        return out

    def _delta(self, cx: _PComplex, cy: _PComplex, n: int,
               vars_n, vars_n1) -> Matrix:
        """Matrix of the Hom-complex differential delta_n = dY f - (-1)^n f dX."""
        add_t, neg_t = self.field.add_t, self.field.neg_t
        index_n = {v: c for c, v in enumerate(vars_n)}
        D = zeros(len(vars_n1), len(vars_n))
        sign_neg = (n % 2 == 0)  # -(-1)^n: subtract when n even
        for r, (d, i, j) in enumerate(vars_n1):
            # component X^d (summand j) -> Y^{d+n+1} (summand i)
            dy = cy.dmat(d + n)      # Y^{d+n} -> Y^{d+n+1}
            for t in range(len(cy.at(d + n))):
                a = dy[i][t] if dy else 0
                if a:
                    c = index_n.get((d, t, j))
                    if c is not None:
                        D[r][c] = add_t[D[r][c]][a]
            dx = cx.dmat(d)          # X^d -> X^{d+1}
            for s in range(len(cx.at(d + 1))):
                a = dx[s][j] if dx else 0
                if a:
                    c = index_n.get((d + 1, i, s))
                    if c is not None:
                        D[r][c] = add_t[D[r][c]][neg_t[a] if sign_neg else a]
        return D

    def _hom_degree_dim(self, cx: _PComplex, cy: _PComplex, n: int) -> int:
        vn = self._hom_vars(cx, cy, n)
        if not vn:
            return 0
        vn1 = self._hom_vars(cx, cy, n + 1)
        vm1 = self._hom_vars(cx, cy, n - 1)
        dn = self._delta(cx, cy, n, vn, vn1)
        dm = self._delta(cx, cy, n - 1, vm1, vn)
        cocycles = len(vn) - mat_rank(self.field, dn)
        coboundaries = mat_rank(self.field, dm)
        return cocycles - coboundaries

    # -- public operations ---------------------------------------------------

    def dhom_dims(self, X: DerivedObject, Y: DerivedObject) -> Dict[int, int]:
        """Graded dims: degree k -> dim Hom(X, Y[k]); zero degrees omitted.

        Hom is additive in both arguments, so the dims are summed over
        pairs of summands M[a,b)[n] of X and M[c,d)[k] of Y, and each pair
        depends only on the relative shift k - n (``_pair_dims``).
        """
        key = (X.summands, Y.summands)
        cached = self._dhom_cache.get(key)
        if cached is not None:
            return cached
        total: Dict[int, int] = {}
        for (a, b, n) in X.summands:
            for (c, d, k) in Y.summands:
                for deg, dim in self._pair_dims(a, b, c, d, k - n).items():
                    total[deg] = total.get(deg, 0) + dim
        out = self._dhom_cache[key] = {deg: total[deg] for deg in sorted(total)}
        return out

    def _pair_dims(self, a: int, b: int, c: int, d: int, r: int) -> Dict[int, int]:
        """Graded dims of Hom(M[a,b), M[c,d)[r][k]), computed once per pair
        on the Hom complex of the two one-summand projective complexes."""
        key = (a, b, c, d, r)
        cached = self._pair_cache.get(key)
        if cached is not None:
            return cached
        cx = self.complex_of(DerivedObject(((a, b, 0),)))
        cy = self.complex_of(DerivedObject(((c, d, r),)))
        dxs, dys = cx.degrees(), cy.degrees()
        out: Dict[int, int] = {}
        for n in range(dys[0] - dxs[-1], dys[-1] - dxs[0] + 1):
            dim = self._hom_degree_dim(cx, cy, n)
            if dim:
                out[n] = dim
        self._pair_cache[key] = out
        return out

    def euler_form(self, X: DerivedObject, Y: DerivedObject) -> int:
        return sum((-1) ** (k % 2) * d for k, d in self.dhom_dims(X, Y).items())

    def _dhom_basis(self, cx: _PComplex, cy: _PComplex):
        """Degree-0 cochain coordinates and cocycle vectors whose classes
        form a basis of homotopy classes of chain maps cx -> cy."""
        F = self.field
        v0 = self._hom_vars(cx, cy, 0)
        if not v0:
            return v0, []
        v1 = self._hom_vars(cx, cy, 1)
        vm1 = self._hom_vars(cx, cy, -1)
        d0 = self._delta(cx, cy, 0, v0, v1)
        dm1 = self._delta(cx, cy, -1, vm1, v0)
        cocycles = nullspace(F, d0, len(v0))
        image = [[dm1[i][j] for i in range(len(v0))] for j in range(len(vm1))]
        picked = column_space_extension(F, columns(image), columns(cocycles))
        return v0, [cocycles[i] for i in picked]

    def enumerate_dhoms(self, X: DerivedObject, Y: DerivedObject) -> List[DMorphism]:
        """All homotopy classes of degree-0 maps X -> Y, with representatives."""
        F = self.field
        cx, cy = self.complex_of(X), self.complex_of(Y)
        v0, reps = self._dhom_basis(cx, cy)
        out = []
        add_t, mul_t = F.add_t, F.mul_t
        for coeffs in itertools.product(F.elements(), repeat=len(reps)):
            vec = [0] * len(v0)
            for c, rep in zip(coeffs, reps):
                if c:
                    vec = [add_t[x][mul_t[r][c]] for x, r in zip(vec, rep)]
            maps = {d: zeros(len(cy.at(d)), len(cx.at(d))) for d in cx.degrees()}
            for c, (d, i, j) in enumerate(v0):
                if vec[c]:
                    maps[d][i][j] = vec[c]
            out.append(DMorphism(maps, cx, cy))
        return out

    # -- cone counts over torus orbits of support patterns -------------------

    def cone_counts(self, X: DerivedObject, Y: DerivedObject) -> Dict[DerivedObject, int]:
        """N_L = #{w in Hom(X, Y) : cone(w) = L} for every cone class L.

        Hom between two indecomposables is at most one dimensional in each
        degree, so Hom(X, Y) is a sum of one-dimensional blocks, one per
        summand pair (i, j) with Hom(X_i, Y_j) != 0.  A morphism with block
        support S has cone

            (X_i[1] for untouched i) + (Y_j for untouched j)
            + (the cone of each connected component of S),

        S read as a bipartite graph on the summands.  The torus
        (F_q^x)^{#X} x (F_q^x)^{#Y} of Aut X x Aut Y scales block (i, j)
        by mu_j / lambda_i and preserves the cone.  Its orbits on the
        morphisms with support S are represented by setting the edges of a
        spanning forest to 1 and each other edge to any unit, and each
        representative stands for (q-1)^(|S| - #cycles) morphisms.  So a
        forest support needs one cone, whatever q is.
        """
        xs, ys = X.summands, Y.summands
        edges = []
        for i, (a, b, n) in enumerate(xs):
            for j, (c, d, k) in enumerate(ys):
                dim = self._pair_dims(a, b, c, d, k - n).get(0, 0)
                if dim > 1:
                    raise ArithmeticError(f"Hom block of dimension {dim}")
                if dim:
                    edges.append((i, j))
        q = self.field.q
        counts: Dict[DerivedObject, int] = {}
        for mask in range(1 << len(edges)):
            support = [e for t, e in enumerate(edges) if mask >> t & 1]
            comps, cycle = _components(support)
            touched = {v for vertices, _ in comps for v in vertices}
            rest = [(a, b, n + 1) for i, (a, b, n) in enumerate(xs) if (0, i) not in touched]
            rest += [s for j, s in enumerate(ys) if (1, j) not in touched]
            weight = (q - 1) ** (len(support) - len(cycle))
            for units in itertools.product(range(1, q), repeat=len(cycle)):
                value = dict(zip(cycle, units))
                summands = list(rest)
                for vertices, comp_edges in comps:
                    src = sorted(i for side, i in vertices if side == 0)
                    dst = sorted(j for side, j in vertices if side == 1)
                    local = tuple(sorted((src.index(i), dst.index(j), value.get((i, j), 1))
                                         for i, j in comp_edges))
                    summands += self._component_cone(
                        [xs[i] for i in src], [ys[j] for j in dst], local)
                L = DerivedObject(tuple(sorted(summands)))
                counts[L] = counts.get(L, 0) + weight
        return counts

    def _component_cone(self, xs, ys, edges) -> List[Tuple[int, int, int]]:
        """Summands of the cone of the map from the summands ``xs`` to the
        summands ``ys`` that is ``value`` times the basis map of the block
        (xs[i], ys[j]) for each (i, j, value) in ``edges``.  Memoised modulo
        the shift functor."""
        s = min(n for (_a, _b, n) in xs + ys)
        X = DerivedObject(tuple((a, b, n - s) for (a, b, n) in xs))
        Y = DerivedObject(tuple((a, b, n - s) for (a, b, n) in ys))
        key = (X.summands, Y.summands, edges)
        cone = self._cone_cache.get(key)
        if cone is None:
            cone = self._cone_cache[key] = self.cone(self._block_morphism(X, Y, edges))
        return [(a, b, n + s) for (a, b, n) in cone.summands]

    def _block_morphism(self, X: DerivedObject, Y: DerivedObject, edges) -> DMorphism:
        """The chain map X -> Y that is ``value`` times the basis map of
        Hom(X_i, Y_j) for each (i, j, value) in ``edges``, zero elsewhere."""
        cx, cy = self.complex_of(X), self.complex_of(Y)
        px, py = _term_positions(self.m, X), _term_positions(self.m, Y)
        maps = {d: zeros(len(cy.at(d)), len(cx.at(d))) for d in cx.degrees()}
        mul_t = self.field.mul_t
        for i, j, value in edges:
            (a, b, n), (c, d, k) = X.summands[i], Y.summands[j]
            for deg, x in self._pair_block(a, b, c, d, k - n):
                D = deg - n  # the pair's source sits at shift 0, X_i at shift n
                maps[D][py[j][D]][px[i][D]] = mul_t[x][value]
        return DMorphism(maps, cx, cy)

    def _pair_block(self, a: int, b: int, c: int, d: int, r: int) -> List[Tuple[int, int]]:
        """The basis chain map M[a,b) -> M[c,d)[r] of a one-dimensional
        degree-0 Hom, as (degree, scalar) entries: each of the two
        one-summand complexes has at most one term per degree."""
        key = (a, b, c, d, r)
        block = self._block_cache.get(key)
        if block is None:
            cx = self.complex_of(DerivedObject(((a, b, 0),)))
            cy = self.complex_of(DerivedObject(((c, d, r),)))
            v0, (rep,) = self._dhom_basis(cx, cy)
            block = self._block_cache[key] = [
                (deg, x) for (deg, _i, _j), x in zip(v0, rep) if x]
        return block

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
        """|Aut X| in closed form.

        Every indecomposable has endomorphism ring F_q, so End(X) modulo its
        radical is the product of the matrix rings M_mult(F_q) over the
        distinct summands, and

            |Aut X| = q^{dim End X} prod_summands prod_{j=1}^{mult} (1 - q^{-j}).
        """
        key = X.summands
        cached = self._aut_cache.get(key)
        if cached is None:
            q = self.field.q
            count = Fraction(q) ** self.dhom_dims(X, X).get(0, 0)
            for mult in Counter(key).values():
                for j in range(1, mult + 1):
                    count *= 1 - Fraction(1, q ** j)
            if count.denominator != 1:
                raise ArithmeticError(f"non-integral automorphism count {count}")
            cached = self._aut_cache[key] = int(count)
        return cached
