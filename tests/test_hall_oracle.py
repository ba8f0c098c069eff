"""One-sweep structure constants and closed-form automorphism counts.

The package's derived Riedtmann formula and closed-form |Aut| are checked
against the two-sweep enumerations they replaced (``hall_oracle``) on all
small cases: products with dim X + dim Y <= 3 and objects of total dimension
<= 3, with summand shifts in 0..2, taken up to an overall shift (which is an
autoequivalence).
"""

import itertools

import pytest

import hall_oracle
from diskhall.hall import HallAlgebra
from diskhall.repq import DerivedCategory, DerivedObject, FiniteField

#: largest dim End X checked at each q.  The enumerating oracle visits all
#: q^{dim End X} endomorphisms, so at q = 4 the six objects with dim End 9
#: (4^9 endomorphisms each, e.g. S + S + S) are left to q = 2, 3 and to the
#: |GL_3(F_q)| check below; the six with dim End 7 are checked.
MAX_END_DIM = {2: 9, 3: 9, 4: 7}


def dimension(X):
    return sum(b - a for (a, b, _n) in X.summands)


def objects(m, max_dim, shifts=(0, 1, 2)):
    """Nonzero objects of D^b(A_{m-1}) with total dimension <= max_dim."""
    intervals = [(a, b, n) for a in range(1, m) for b in range(a + 1, m + 1)
                 for n in shifts]
    out = []
    for k in range(1, max_dim + 1):
        for combo in itertools.combinations_with_replacement(intervals, k):
            X = DerivedObject.of(combo)
            if dimension(X) <= max_dim:
                out.append(X)
    return out


def lowest_shift(*objs):
    return min(n for X in objs for (_a, _b, n) in X.summands)


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("q", [2, 3])
def test_riedtmann_matches_two_sweep_oracle(q, m):
    alg = HallAlgebra(m, q)
    cat = alg.category
    objs = objects(m, 2)
    triples = 0
    for X, Y in itertools.product(objs, repeat=2):
        if dimension(X) + dimension(Y) > 3 or lowest_shift(X, Y) != 0:
            continue
        counts = {}
        for w in cat.enumerate_dhoms(Y.shifted(-1), X):
            L = cat.cone(w)
            counts[L] = counts.get(L, 0) + 1
        assert set(alg._basis_product(X, Y)) == set(counts)
        for L, n in counts.items():
            expected = hall_oracle.structure_constant(alg, X, Y, L)
            assert expected != 0
            assert alg.structure_constant(X, Y, L, n) == expected, (X, Y, L)
            triples += 1
    assert triples >= 30


@pytest.mark.parametrize("q", [2, 3, 4])
def test_closed_form_aut_count_matches_enumeration(q):
    checked = set()
    for m in (2, 3, 4):
        cat = DerivedCategory(m, FiniteField(q))
        for X in objects(m, 3):
            if lowest_shift(X) != 0:
                continue
            if cat.dhom_dims(X, X).get(0, 0) > MAX_END_DIM[q]:
                continue
            assert cat.aut_count(X) == hall_oracle.aut_count(cat, X), X
            checked.add(X.summands)
    assert ((1, 2, 0), (1, 2, 0), (1, 2, 1)) in checked   # S + S + S[1]
    assert ((1, 2, 0), (1, 2, 0), (2, 3, 1)) in checked   # dim End 7
    assert len(checked) > 50


def test_aut_count_of_repeated_summand():
    """S + S + S has automorphism group GL_3(F_q), for every q."""
    X = DerivedObject.of([(1, 2, 0)] * 3)
    for q in (2, 3, 4, 5):
        order = 1
        for j in range(3):
            order *= q ** 3 - q ** j
        assert DerivedCategory(2, FiniteField(q)).aut_count(X) == order
