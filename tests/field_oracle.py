"""Per-operation F_q arithmetic, kept as a test oracle for the lookup tables.

``FiniteField`` answers every operation by a table lookup.  This module keeps
the route the tables replaced: every call unpacks base-p digits, multiplies
polynomials and reduces them modulo the field's irreducible modulus, and an
inverse is found by search.  ``rref``, ``nullspace`` and ``mat_mul`` here make
one method call per entry, as the package's kernels did before.  They take
any field with ``add``/``sub``/``neg``/``mul``/``inv`` methods, so the other
oracles run ``nullspace`` and ``mat_mul``, which the package does not need,
on the package's ``FiniteField``.
"""

from typing import List, Optional, Sequence, Tuple


class OracleField:
    """F_q with the encoding of ``FiniteField``: integers 0..q-1 whose
    base-p digits are polynomial coefficients, low degree first."""

    def __init__(self, q: int, p: int, k: int, modulus: Optional[Tuple[int, ...]]):
        self.q, self.p, self.k, self.modulus = q, p, k, modulus

    def _digits(self, x: int) -> List[int]:
        out = []
        for _ in range(self.k):
            x, r = divmod(x, self.p)
            out.append(r)
        return out

    def _undigits(self, ds: Sequence[int]) -> int:
        out = 0
        for d in reversed(ds):
            out = out * self.p + (d % self.p)
        return out

    def _polmod(self, a: List[int], b: List[int]) -> List[int]:
        a = [c % self.p for c in a]
        while len(a) >= len(b) and any(a):
            while a and a[-1] % self.p == 0:
                a.pop()
            if len(a) < len(b):
                break
            c = a[-1] * pow(b[-1], -1, self.p) % self.p
            off = len(a) - len(b)
            for i, cb in enumerate(b):
                a[i + off] = (a[i + off] - c * cb) % self.p
        while a and a[-1] % self.p == 0:
            a.pop()
        return a

    def elements(self):
        return range(self.q)

    def add(self, x: int, y: int) -> int:
        if self.k == 1:
            return (x + y) % self.p
        return self._undigits([a + b for a, b in zip(self._digits(x), self._digits(y))])

    def neg(self, x: int) -> int:
        if self.k == 1:
            return (-x) % self.p
        return self._undigits([-a for a in self._digits(x)])

    def sub(self, x: int, y: int) -> int:
        return self.add(x, self.neg(y))

    def mul(self, x: int, y: int) -> int:
        if self.k == 1:
            return (x * y) % self.p
        dx, dy = self._digits(x), self._digits(y)
        prod = [0] * (2 * self.k - 1)
        for i, a in enumerate(dx):
            if a:
                for j, b in enumerate(dy):
                    prod[i + j] += a * b
        rem = self._polmod(prod, list(self.modulus))
        return self._undigits(rem + [0] * (self.k - len(rem)))

    def inv(self, x: int) -> int:
        """The y with x y = 1, by search; ZeroDivisionError when there is
        none (x = 0, or a zero divisor under a reducible modulus)."""
        for y in range(1, self.q):
            if self.mul(x, y) == 1:
                return y
        raise ZeroDivisionError(f"{x} has no inverse")


def oracle_of(F) -> OracleField:
    """The oracle for a package field, with the same modulus."""
    return OracleField(F.q, F.p, F.k, F.modulus)


def rref(F, M):
    """Reduced row-echelon form and pivot columns, one call per entry."""
    R = [row[:] for row in M]
    rows = len(R)
    cols = len(R[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if R[i][c]), None)
        if pivot is None:
            continue
        R[r], R[pivot] = R[pivot], R[r]
        inv = F.inv(R[r][c])
        R[r] = [F.mul(inv, x) for x in R[r]]
        for i in range(rows):
            if i != r and R[i][c]:
                f = R[i][c]
                R[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(R[i], R[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return R, pivots


def nullspace(F, M, cols):
    """Basis of the right kernel, as column vectors."""
    if not M or not M[0]:
        return [[1 if i == j else 0 for i in range(cols)] for j in range(cols)]
    R, pivots = rref(F, M)
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        v = [0] * cols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = F.neg(R[r][fc])
        basis.append(v)
    return basis


def mat_mul(F, A, B):
    cols = len(B[0]) if B else 0
    out = [[0] * cols for _ in A]
    for i, Ai in enumerate(A):
        for t, a in enumerate(Ai):
            for j in range(cols):
                out[i][j] = F.add(out[i][j], F.mul(a, B[t][j]))
    return out
