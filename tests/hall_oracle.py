"""Routes the package replaced, kept as test oracles.

Per-word evaluation (``evaluate``, ``hall_product``): each word is
multiplied right to left on its own, with ``QuadraticScalar`` coefficients
throughout.  The package evaluates a batch of polynomials in one walk over
the trie of their words, on integer numerators over one denominator.

Expand-then-evaluate (``evaluate_expanded``): each polynomial is first
multiplied out in Q(v) by substituting every generator's image, and the
expanded polynomials are then evaluated.  The package applies each image
inside its trie walk instead, with no Q(v) expansion.

Two-sweep structure constants (``structure_constant``, ``aut_count``): the
package computes every F^L_{X,Y} of a product from one sweep over
Hom(Y[-1], X) by the derived Riedtmann formula, and counts automorphisms
in closed form.  This module keeps the route those replaced:

    F^L_{X,Y} = |Hom(X,L)_Y| / |Aut(X)| * {X,L} / {X,X}

where Hom(X,L)_Y is the set of morphism classes f : X -> L whose cone is
isomorphic to Y, and |Aut(X)| is found by enumerating End(X) and keeping
the endomorphisms that act invertibly on homology in every degree and at
every vertex.  Both counts enumerate Hom sets, so they are only practical
on small objects.

The Hom complex (``pair_dims``, ``pair_block``, ``enumerate_dhoms``): the
package reads graded Hom between two shifted intervals, and the basis chain
map of a one-dimensional Hom, off a closed form.  The route this replaced
solves the Hom complex of the projective complexes, and lists the homotopy
classes of maps between whole objects for the two-sweep counts above.

Test-only scalars (``euler_form``, ``braces``, ``sqrt_q_power``,
``class_vector``): the Euler form <X,Y> and {X,Y} of two objects, read off
``dhom_dims``, q^(n/2) as a ``QuadraticScalar``, and the class of an object
in K_0.  The package reads the first two off the one ``dhom_dims`` of a
sweep and folds q^(n/2) into integer numerators, so none of them has an
entry point there.

The class table (``class_id``, ``translate``, ``is_class_id``,
``kernel_product``): the package's kernel names each isoclass by an integer
id that carries its lowest shift; these map a ``DerivedObject`` to its id,
translate an id through the objects, check that an id names a class of the
table, and map a kernel product back to objects.

Products from the per-morphism sweep (``morphism_sweep``,
``product_from_counts``, ``basis_product``): the package counts the cones
of Hom(Y[-1], X) per block-support pattern, and only for a letter X; any
other left factor it writes as an Ext-free word of its letters.  The
route this replaced takes one cone per morphism of the whole objects and
gives [X]*[Y] by the Riedtmann formula, for every left factor.
``basis_product``, which ``hall_product`` and ``evaluate`` use, takes that
route for every left factor at q <= 3, where enumerating Hom(Y[-1], X)
stays cheap, so the evaluation oracles check the structure constants of
the package's sweep as well as its word route.

Identification by homology (``identify_by_homology``): the package names a
complex of projectives from ranks of submatrices of its differentials.  The
route this replaced builds each homology representation H^d (kernel bases,
a homology basis extending the image, one linear solve per basis vector
and arrow) and barcodes it.  ``aut_count`` above uses the same homology
bases.
"""

import itertools
from fractions import Fraction

from diskhall.hall import HallElement
from diskhall.repq import DerivedObject, DMorphism, mat_rank, rref, zeros
from diskhall.scalar import QuadraticScalar, evaluate_at
from field_oracle import nullspace
from rep_oracle import QuiverRep, barcode


def euler_form(cat, X, Y) -> int:
    """<X,Y> = sum_k (-1)^k dim Hom(X, Y[k])."""
    return sum((-1) ** (k % 2) * d for k, d in cat.dhom_dims(X, Y).items())


def braces(cat, X, Y) -> Fraction:
    """{X,Y} = prod_{n>0} |Ext^{-n}(X,Y)|^{(-1)^n} as an exact rational."""
    e = sum((-1) ** (k % 2) * d for k, d in cat.dhom_dims(X, Y).items() if k < 0)
    return Fraction(cat.field.q) ** e


def sqrt_q_power(q, n) -> QuadraticScalar:
    """q^(n/2) as an exact scalar, for any integer n."""
    half, odd = divmod(n, 2)
    base = Fraction(q) ** half
    return QuadraticScalar(q, 0, base) if odd else QuadraticScalar(q, base)


def class_vector(X, m):
    """The class of X in K_0 = Z^{m-1}: the signed sum of the dimension
    vectors of its summands, M[a,b)[n] counted with sign (-1)^n."""
    vec = [0] * (m - 1)
    for (a, b, n) in X.summands:
        for v in range(a, b):
            vec[v - 1] += (-1) ** (n % 2)
    return tuple(vec)


def class_id(alg, X) -> int:
    """The id of the class of X in the package's class table."""
    return alg._id(X.summands)


def translate(alg, i, k) -> int:
    """The id of the class of id i translated by k, through its object."""
    return class_id(alg, alg._object(i).shifted(k))


def is_class_id(alg, i) -> bool:
    """i names a class of the package's class table, which gives i back."""
    try:
        summands = alg._summands(i)
    except IndexError:
        return False
    return alg._id(summands) == i


def a_value(alg, Z) -> Fraction:
    """a(Z) = |Aut Z| {Z,Z} as a Fraction, from the package's memo."""
    aut, e = alg._a(class_id(alg, Z))
    return aut * Fraction(alg.q) ** e


def kernel_product(alg, X, Y):
    """[X]*[Y] as a dict L -> QuadraticScalar, in the package's key order.

    The package's kernel computes [X]*u_Y on class ids, in the basis
    u_Z = a(Z)[Z], so each term is mapped back to its object and scaled by
    a(L)/a(Y)."""
    d, terms = alg._basis_product(class_id(alg, X), class_id(alg, Y))
    out = {}
    for i, a, b in terms:
        L = alg._object(i)
        c = a_value(alg, L) / (d * a_value(alg, Y))
        out[L] = QuadraticScalar(alg.q, a * c, b * c)
    return out


def full_complex_dims(cat, X, Y):
    """Graded Hom dims from the Hom complex of the whole projective
    complexes of X and Y, with no use of additivity or of the shift."""
    if X.is_zero() or Y.is_zero():
        return {}
    cx, cy = cat.complex_of(X), cat.complex_of(Y)
    dxs, dys = cx.degrees(), cy.degrees()
    dims = {n: hom_degree_dim(cat, cx, cy, n)
            for n in range(dys[0] - dxs[-1], dys[-1] - dxs[0] + 1)}
    return {n: d for n, d in dims.items() if d}


def morphism_sweep(cat, X, Y):
    """N_L for every cone class L, from one cone per morphism X -> Y of the
    whole objects: the route ``cone_counts`` replaces."""
    counts = {}
    for w in enumerate_dhoms(cat, X, Y):
        L = cat.cone(w)
        counts[L] = counts.get(L, 0) + 1
    return counts


def product_from_counts(alg, X, Y, counts):
    """[X]*[Y] as a dict L -> QuadraticScalar in the order of the summands
    of L, from the counts N_L by the Riedtmann formula and the twist
    q^{<Y,X>/2} read off the Hom complex."""
    q = alg.q
    euler = sum((-1) ** (k % 2) * d for k, d in full_complex_dims(alg.category, Y, X).items())
    twist = sqrt_q_power(q, euler)
    return {L: twist * QuadraticScalar(q, alg.structure_constant(X, Y, L, n))
            for L, n in sorted(counts.items(), key=lambda kv: kv[0].summands)}


def basis_product(alg, X, Y):
    """[X]*[Y] as a dict L -> QuadraticScalar.

    At q > 3 this is the package's kernel.  At q <= 3 it is computed here
    from one cone per morphism of Hom(Y[-1], X) and the Riedtmann formula,
    with no use of the package's sweep, its census or its word route."""
    if alg.q > 3:
        return kernel_product(alg, X, Y)
    return product_from_counts(alg, X, Y, morphism_sweep(alg.category, Y.shifted(-1), X))


def hall_product(alg, x, y):
    """x * y by the QuadraticScalar loop over pairs of basis classes."""
    out = {}
    for X, cx in x.terms.items():
        for Y, cy in y.terms.items():
            c = cx * cy
            for L, coeff in basis_product(alg, X, Y).items():
                add = c * coeff
                out[L] = out[L] + add if L in out else add
    return HallElement(alg.q, out)


def evaluate(alg, x):
    """An NCPolynomial evaluated one word at a time, right to left, with
    z_{i,n} sent to the shifted simple S_i[n]."""
    q = alg.q
    total = HallElement.zero(q)
    for word, coeff in x.terms.items():
        acc = HallElement.unit(q)
        for g in reversed(word):
            if g.family != "z" or g.index not in range(1, alg.m):
                raise ValueError(f"no assignment for generator {g}")
            simple = DerivedObject.simple(g.index, g.shift)
            acc = hall_product(alg, HallElement.basis(q, simple), acc)
        total = total + acc.scale(evaluate_at(coeff, q))
    return total


def evaluate_expanded(alg, polys, expand):
    """Every polynomial expanded into the quiver generators with
    ``NCPolynomial.substitute``, then evaluated in one batch."""
    return alg.evaluate_many([p.substitute(expand) for p in polys])


def columns(vectors):
    """Stack column vectors into a matrix (a matrix's columns, read back)."""
    return [list(row) for row in zip(*vectors)]


def column_space_extension(F, base, new):
    """Indices of the vectors ``new`` that extend the span of ``base`` to
    the span of both."""
    _, pivots = rref(F, columns(base + new))
    return [p - len(base) for p in pivots if p >= len(base)]


def hom_vars(cx, cy, n):
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


def delta(cat, cx, cy, n, vars_n, vars_n1):
    """Matrix of the Hom-complex differential delta_n = dY f - (-1)^n f dX."""
    F = cat.field
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
                    D[r][c] = F.add(D[r][c], a)
        dx = cx.dmat(d)          # X^d -> X^{d+1}
        for s in range(len(cx.at(d + 1))):
            a = dx[s][j] if dx else 0
            if a:
                c = index_n.get((d + 1, i, s))
                if c is not None:
                    D[r][c] = F.add(D[r][c], F.neg(a) if sign_neg else a)
    return D


def hom_complex(cat, cx, cy, n):
    """Degree-n cochain coordinates and the differentials out of and into
    degree n."""
    vn, vm1 = hom_vars(cx, cy, n), hom_vars(cx, cy, n - 1)
    return (vn, delta(cat, cx, cy, n, vn, hom_vars(cx, cy, n + 1)),
            delta(cat, cx, cy, n - 1, vm1, vn))


def hom_degree_dim(cat, cx, cy, n):
    """dim H^n of the Hom complex: cocycles minus coboundaries."""
    vn, dn, dm = hom_complex(cat, cx, cy, n)
    return len(vn) - mat_rank(cat.field, dn) - mat_rank(cat.field, dm) if vn else 0


def pair_dims(cat, a, b, c, d, r):
    """Graded dims of Hom(M[a,b), M[c,d)[r][k]) on the Hom complex of the
    two one-summand projective complexes, lowest degree first."""
    cx = cat.complex_of(DerivedObject(((a, b, 0),)))
    cy = cat.complex_of(DerivedObject(((c, d, r),)))
    dxs, dys = cx.degrees(), cy.degrees()
    dims = {n: hom_degree_dim(cat, cx, cy, n)
            for n in range(dys[0] - dxs[-1], dys[-1] - dxs[0] + 1)}
    return {n: dim for n, dim in dims.items() if dim}


def dhom_basis(cat, cx, cy):
    """Degree-0 cochain coordinates and cocycle vectors whose classes
    form a basis of homotopy classes of chain maps cx -> cy."""
    v0, d0, dm1 = hom_complex(cat, cx, cy, 0)
    if not v0:
        return v0, []
    cocycles = nullspace(cat.field, d0, len(v0))
    return v0, [cocycles[i] for i in column_space_extension(cat.field, columns(dm1), cocycles)]


def pair_block(cat, a, b, c, d, r):
    """The basis chain map M[a,b) -> M[c,d)[r] of a one-dimensional
    degree-0 Hom, as (degree, scalar) entries in cochain order."""
    cx = cat.complex_of(DerivedObject(((a, b, 0),)))
    cy = cat.complex_of(DerivedObject(((c, d, r),)))
    v0, (rep,) = dhom_basis(cat, cx, cy)
    return [(deg, x) for (deg, _i, _j), x in zip(v0, rep) if x]


def enumerate_dhoms(cat, X, Y):
    """All homotopy classes of degree-0 maps X -> Y, with representatives."""
    F = cat.field
    cx, cy = cat.complex_of(X), cat.complex_of(Y)
    v0, reps = dhom_basis(cat, cx, cy)
    out = []
    for coeffs in itertools.product(F.elements(), repeat=len(reps)):
        vec = [0] * len(v0)
        for c, rep in zip(coeffs, reps):
            if c:
                vec = [F.add(x, F.mul(r, c)) for x, r in zip(vec, rep)]
        maps = {d: zeros(len(cy.at(d)), len(cx.at(d))) for d in cx.degrees()}
        for c, (d, i, j) in enumerate(v0):
            if vec[c]:
                maps[d][i][j] = vec[c]
        out.append(DMorphism(maps, cx, cy))
    return out


def solve(F, A, b):
    """One solution x of A x = b, or None."""
    rows = len(A)
    cols = len(A[0]) if rows else 0
    aug = [A[i][:] + [b[i]] for i in range(rows)]
    R, pivots = rref(F, aug)
    if cols in pivots:
        return None
    x = [0] * cols
    for r, pc in enumerate(pivots):
        x[pc] = R[r][cols]
    return x


def _homology_data(cat, c):
    """For each degree and vertex: the columns of the complex's terms that
    live there, a spanning set of the image and a homology basis (kernel
    vectors extending the image), all in those columns' coordinates."""
    F = cat.field
    result = {}
    for d in c.degrees():
        src, dst, prev = c.at(d), c.at(d + 1), c.at(d - 1)
        D, Dp = c.dmat(d), c.dmat(d - 1)
        per_vertex = []
        for v in range(1, cat.m):
            cols_here = [j for j, u in enumerate(src) if u <= v]
            rows = [i for i, w in enumerate(dst) if w <= v]
            ker = nullspace(F, [[D[i][j] for j in cols_here] for i in rows], len(cols_here))
            pcols = [j for j, u in enumerate(prev) if u <= v]
            img_vecs = [[Dp[i][j] for i in cols_here] for j in pcols]
            picked = column_space_extension(F, img_vecs, ker)
            per_vertex.append({"cols": cols_here, "image": img_vecs,
                               "hbasis": [ker[i] for i in picked]})
        result[d] = per_vertex
    return result


def _homology_rep(cat, hdata, d):
    """The homology representation at complex degree d: each arrow map
    carries a homology basis vector at v (the arrow maps of the terms are
    inclusions) to its coordinates over image + homology basis at v+1."""
    F = cat.field
    per_vertex = hdata[d]
    dims = [len(pv["hbasis"]) for pv in per_vertex]
    maps = []
    for v in range(1, cat.m - 1):
        here, there = per_vertex[v - 1], per_vertex[v]
        A = zeros(dims[v], dims[v - 1])
        if dims[v - 1] and dims[v]:
            pos_there = {j: t for t, j in enumerate(there["cols"])}
            basis_mat = columns(there["image"] + there["hbasis"])
            nimg = len(there["image"])
            for bidx, x in enumerate(here["hbasis"]):
                y = [0] * len(there["cols"])
                for ci, j in enumerate(here["cols"]):
                    y[pos_there[j]] = x[ci]
                sol = solve(F, basis_mat, y)
                if sol is None:
                    raise ArithmeticError("homology transfer failed")
                for i in range(dims[v]):
                    A[i][bidx] = sol[nimg + i]
        maps.append(A)
    return QuiverRep(F, cat.m, dims, maps)


def identify_by_homology(cat, c):
    """Isomorphism class of a complex of projectives from its homology
    representations, built degree by degree and barcoded."""
    hdata = _homology_data(cat, c)
    summands = []
    for d in c.degrees():
        rep = _homology_rep(cat, hdata, d)
        summands += [(a, b, -d) for a, b in barcode(rep)]
    return DerivedObject.of(summands)


def aut_count(cat, X) -> int:
    """Number of invertible endomorphism classes of X, by enumeration."""
    if X.is_zero():
        return 1
    cx = cat.complex_of(X)
    hdata = _homology_data(cat, cx)
    solved = {}
    return sum(1 for f in enumerate_dhoms(cat, X, X)
               if _induces_iso(cat, cx, hdata, f, solved))


def _induces_iso(cat, c, hdata, f, solved) -> bool:
    """Does the endo-chain-map act invertibly on homology everywhere?

    ``solved`` memoizes the homology coordinates of each image vector per
    (degree, vertex); the transfer is the same for every endomorphism.
    """
    F = cat.field
    for d in c.degrees():
        fm = f.maps.get(d)
        for v in range(1, cat.m):
            pv = hdata[d][v - 1]
            hdim = len(pv["hbasis"])
            if hdim == 0:
                continue
            cols_here = pv["cols"]
            basis_mat = columns(pv["image"] + pv["hbasis"])
            induced = zeros(hdim, hdim)
            for bidx, x in enumerate(pv["hbasis"]):
                # y = f(x) in coordinates at (d, v)
                y = [0] * len(cols_here)
                for out_pos, i in enumerate(cols_here):
                    acc = 0
                    for in_pos, j in enumerate(cols_here):
                        a = fm[i][j] if fm else 0
                        if a and x[in_pos]:
                            acc = F.add(acc, F.mul(a, x[in_pos]))
                    y[out_pos] = acc
                key = (d, v, tuple(y))
                sol = solved.get(key)
                if sol is None:
                    sol = solved[key] = solve(F, basis_mat, y)
                if sol is None:
                    raise ArithmeticError("endomorphism transfer failed")
                nimg = len(pv["image"])
                for i in range(hdim):
                    induced[i][bidx] = sol[nimg + i]
            if mat_rank(F, induced) != hdim:
                return False
    return True


def structure_constant(alg, X, Y, L) -> Fraction:
    """F^L_{X,Y} by counting the morphisms X -> L whose cone is Y."""
    cat = alg.category
    count = sum(1 for f in enumerate_dhoms(cat, X, L) if cat.cone(f) == Y)
    if count == 0:
        return Fraction(0)
    return Fraction(count, aut_count(cat, X)) * braces(cat, X, L) / braces(cat, X, X)
