"""Rep-level Hom and Ext of quiver representations, kept as a second route.

The package computes graded Hom between derived objects on 2-term complexes
of projectives.  These functions compute the same spaces for modules from
the representations themselves: Hom(M, N) as the solutions of the
commuting-square linear system, and Ext^1(M, N) as the cokernel of the map
d whose kernel is Hom(M, N).  ``direct_sum`` builds the modules the dual-route
tests compare on.
"""

from typing import List, Sequence

from diskhall.repq import Matrix, QuiverRep, mat_rank, nullspace, zeros


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
