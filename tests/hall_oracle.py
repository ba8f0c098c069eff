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
"""

from fractions import Fraction

from diskhall.hall import HallElement
from diskhall.repq import columns, mat_rank, solve, zeros
from diskhall.scalar import QuadraticScalar, evaluate_at


def basis_product(alg, X, Y):
    """[X]*[Y] as a dict L -> QuadraticScalar, in the package's key order."""
    d, terms = alg._basis_product(X, Y)
    return {L: QuadraticScalar(alg.q, Fraction(a, d), Fraction(b, d))
            for L, a, b in terms}


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


def evaluate(alg, x, assign):
    """An NCPolynomial evaluated one word at a time, right to left."""
    q = alg.q
    total = HallElement.zero(q)
    for word, coeff in x.terms.items():
        acc = HallElement.unit(q)
        for g in reversed(word):
            base = assign.get((g.family, g.index))
            if base is None:
                raise ValueError(f"no assignment for generator {g}")
            acc = hall_product(alg, HallElement.basis(q, base.shifted(g.shift)), acc)
        total = total + acc.scale(evaluate_at(coeff, q))
    return total


def evaluate_expanded(alg, polys, assign, expand):
    """Every polynomial expanded into the generators of ``assign`` with
    ``NCPolynomial.substitute``, then evaluated in one batch."""
    return alg.evaluate_many([p.substitute(expand) for p in polys], assign)


def aut_count(cat, X) -> int:
    """Number of invertible endomorphism classes of X, by enumeration."""
    if X.is_zero():
        return 1
    cx = cat.complex_of(X)
    hdata = cat._homology_data(cx)
    solved = {}
    return sum(1 for f in cat.enumerate_dhoms(X, X)
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
    count = sum(1 for f in cat.enumerate_dhoms(X, L) if cat.cone(f) == Y)
    if count == 0:
        return Fraction(0)
    return Fraction(count, aut_count(cat, X)) * alg.braces(X, L) / alg.braces(X, X)
