"""Quiver representations, their barcodes, and rep-level Hom and Ext.

The package works with derived objects only.  Here a ``QuiverRep`` holds
vertex spaces and arrow matrices; ``barcode`` splits one into intervals from
the ranks of its composite arrow maps; Hom(M, N) solves the commuting-square
system, and Ext^1(M, N) is the cokernel of the map d whose kernel is Hom.
"""

from typing import List, Sequence, Tuple

from diskhall.repq import FiniteField, Matrix, _intervals, mat_rank, zeros
from field_oracle import mat_mul, nullspace


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


def barcode(M: QuiverRep) -> Tuple[Tuple[int, int], ...]:
    """Multiset of intervals (a, b) in the decomposition of M, sorted, by
    the package's inclusion-exclusion over ranks of composite arrow maps."""
    def rank(i: int, j: int) -> int:
        n = M.dims[i - 1]
        comp = [[int(r == c) for c in range(n)] for r in range(n)]
        for A in M.maps[i - 1:j - 1]:  # arrows i -> i+1, ..., j-1 -> j
            comp = mat_mul(M.field, A, comp)
        return mat_rank(M.field, comp)

    return _intervals(M.m, rank)


def direct_sum(reps: Sequence[QuiverRep]) -> QuiverRep:
    if not reps:
        raise ValueError("empty direct sum needs an explicit zero_rep")
    field, m = reps[0].field, reps[0].m
    dims = [sum(r.dims[v] for r in reps) for v in range(m - 1)]
    maps = []
    for v in range(m - 2):
        A = zeros(dims[v + 1], dims[v])
        ro = co = 0
        for r in reps:
            for i in range(r.dims[v + 1]):
                for j in range(r.dims[v]):
                    A[ro + i][co + j] = r.maps[v][i][j]
            ro += r.dims[v + 1]
            co += r.dims[v]
        maps.append(A)
    return QuiverRep(field, m, dims, maps)


def hom_space(M: QuiverRep, N: QuiverRep) -> List[List[Matrix]]:
    """Basis of Hom(M, N): each element is a list of vertex matrices."""
    if M.m != N.m:
        raise ValueError("mismatched quiver sizes")
    F = M.field
    nv = M.m - 1
    # variables: entries of f_v (N.dims[v] x M.dims[v]), flattened per vertex
    offsets = []
    total = 0
    for v in range(nv):
        offsets.append(total)
        total += N.dims[v] * M.dims[v]
    rows: Matrix = []
    for v in range(nv - 1):  # constraint f_{v+1} A_v = B_v f_v
        for i in range(N.dims[v + 1]):
            for j in range(M.dims[v]):
                row = [0] * total
                for t in range(M.dims[v + 1]):  # f_{v+1}[i][t] * A_v[t][j]
                    a = M.maps[v][t][j]
                    if a:
                        row[offsets[v + 1] + i * M.dims[v + 1] + t] = a
                for t in range(N.dims[v]):  # - B_v[i][t] * f_v[t][j]
                    b = N.maps[v][i][t]
                    if b:
                        idx = offsets[v] + t * M.dims[v] + j
                        row[idx] = F.sub(row[idx], b)
                rows.append(row)
    basis = []
    for vec in nullspace(F, rows, total):
        fs = []
        for v in range(nv):
            o = offsets[v]
            fs.append([[vec[o + i * M.dims[v] + j] for j in range(M.dims[v])]
                       for i in range(N.dims[v])])
        basis.append(fs)
    return basis


def hom_dim(M: QuiverRep, N: QuiverRep) -> int:
    return len(hom_space(M, N))


def ext1_space(M: QuiverRep, N: QuiverRep) -> int:
    """dim Ext^1(M, N), the dimension of the cokernel of d : sum_v
    Hom(M_v, N_v) -> sum_v Hom(M_v, N_{v+1}), d(f)_v = f_{v+1} A_v - B_v f_v.
    """
    if M.m != N.m:
        raise ValueError("mismatched quiver sizes")
    F = M.field
    nv = M.m - 1
    c1_offsets, c1 = [], 0
    for v in range(nv - 1):
        c1_offsets.append(c1)
        c1 += N.dims[v + 1] * M.dims[v]
    # matrix of d, columns indexed like in hom_space
    offsets, total = [], 0
    for v in range(nv):
        offsets.append(total)
        total += N.dims[v] * M.dims[v]
    d = zeros(c1, total)
    for v in range(nv - 1):
        for i in range(N.dims[v + 1]):
            for j in range(M.dims[v]):
                r = c1_offsets[v] + i * M.dims[v] + j
                for t in range(M.dims[v + 1]):
                    a = M.maps[v][t][j]
                    if a:
                        c = offsets[v + 1] + i * M.dims[v + 1] + t
                        d[r][c] = F.add(d[r][c], a)
                for t in range(N.dims[v]):
                    b = N.maps[v][i][t]
                    if b:
                        c = offsets[v] + t * M.dims[v] + j
                        d[r][c] = F.sub(d[r][c], b)
    return c1 - mat_rank(F, d)
