"""Hall products: units, fixtures, associativity, K_0 additivity.

The concrete product values are pinned against ``bruteforce.py``, a
standalone enumeration that shares no code with the package.
"""

import random
from fractions import Fraction

import pytest

import bruteforce
from hall_oracle import class_vector, sqrt_q_power
from diskhall.hall import HallAlgebra, HallElement
from diskhall.repq import DerivedObject
from diskhall.scalar import QuadraticScalar
from diskhall.freealg import Generator, NCPolynomial, zgen


def test_unit_element():
    alg = HallAlgebra(2, 2)
    S = HallElement.basis(2, DerivedObject.simple(1))
    assert alg.hall_product(HallElement.unit(2), S) == S
    assert alg.hall_product(S, HallElement.unit(2)) == S


def test_element_arithmetic():
    x = HallElement.basis(2, DerivedObject.simple(1))
    y = HallElement.basis(2, DerivedObject.simple(1), Fraction(1, 2))
    assert (x - x).is_zero()
    assert x + y == x.scale(Fraction(3, 2))
    with pytest.raises(ValueError):
        x + HallElement.basis(3, DerivedObject.simple(1))


FROZEN_SS = {((1, 2, 0), (1, 2, 0)): (Fraction(3), 1)}  # 3 * sqrt(2)^1


def test_frozen_square_fixture():
    """[S]*[S] = 3*sqrt(2)*[S+S] over A_1 at q = 2 (independently enumerated)."""
    alg = HallAlgebra(2, 2)
    S = HallElement.basis(2, DerivedObject.simple(1))
    prod = alg.hall_product(S, S)
    expected = {DerivedObject.of([k[0], k[1]]):
                sqrt_q_power(2, e) * QuadraticScalar(2, c)
                for k, (c, e) in FROZEN_SS.items()}
    assert prod.terms == expected


def _to_graded(obj):
    # package summand M[1,2)[n] corresponds to a line in cohomological degree -n
    out = {}
    for (a, b, n) in obj.summands:
        assert (a, b) == (1, 2)
        out[-n] = out.get(-n, 0) + 1
    return out


def _from_graded(key):
    return DerivedObject.of([(1, 2, -n) for (n, d) in key for _ in range(d)])


@pytest.mark.parametrize("shifts", [(0, 0), (0, 1), (1, 0), (0, -1), (1, 1)])
@pytest.mark.parametrize("q", [2, 3])
def test_rank_one_products_match_bruteforce(shifts, q):
    nx, ny = shifts
    X = DerivedObject.simple(1, nx)
    Y = DerivedObject.simple(1, ny)
    alg = HallAlgebra(2, q)
    ours = alg.hall_product(HallElement.basis(q, X), HallElement.basis(q, Y))
    theirs = bruteforce.hall_product(_to_graded(X), _to_graded(Y), q)
    expected = {_from_graded(key): sqrt_q_power(q, e)
                * QuadraticScalar(q, c) for key, (c, e) in theirs.items()}
    expected = {o: c for o, c in expected.items() if not c.is_zero()}
    assert ours.terms == expected


def random_object(rng, m, max_summands=2, max_shift=1):
    k = rng.randint(1, max_summands)
    out = []
    for _ in range(k):
        a = rng.randint(1, m - 1)
        b = rng.randint(a + 1, m)
        out.append((a, b, rng.randint(-max_shift, max_shift)))
    return DerivedObject.of(out)


def test_associativity_random_triples():
    rng = random.Random(17)
    algs = {m: HallAlgebra(m, 2) for m in (2, 3, 4)}
    for _ in range(60):
        m = rng.choice((2, 3, 4))
        alg = algs[m]
        xs = [HallElement.basis(2, random_object(rng, m)) for _ in range(3)]
        left = alg.hall_product(alg.hall_product(xs[0], xs[1]), xs[2])
        right = alg.hall_product(xs[0], alg.hall_product(xs[1], xs[2]))
        assert left == right


def test_k0_additivity_of_products():
    rng = random.Random(23)
    alg = HallAlgebra(4, 2)
    for _ in range(40):
        X = random_object(rng, 4)
        Y = random_object(rng, 4)
        total = tuple(x + y for x, y in zip(class_vector(X, 4), class_vector(Y, 4)))
        prod = alg.hall_product(HallElement.basis(2, X), HallElement.basis(2, Y))
        for L in prod.terms:
            assert class_vector(L, 4) == total


def test_evaluate_respects_shifts():
    alg = HallAlgebra(3, 2)
    val = alg.evaluate(zgen(1, 1) * zgen(2, 0))
    for obj in val.terms:
        shifts = sorted(n for (_a, _b, n) in obj.summands)
        assert shifts in ([0, 1], [])


def test_evaluate_unknown_generator(monkeypatch):
    """z_{i,n} is S_i[n] for 1 <= i <= m - 1.  Any other generator (another
    family, an arc's tuple index, an index outside 1..m-1) is refused while
    the programs compile, before any product."""
    alg = HallAlgebra(3, 2)
    calls = []
    monkeypatch.setattr(alg, "_basis_product", lambda x, y: calls.append((x, y)))
    for g in (Generator("E", 1, 0), Generator("z", (1, 2), 0), Generator("z", 0, 0),
              Generator("z", 3, 0), Generator("z", 7, 0), Generator("z", True, 0)):
        with pytest.raises(ValueError, match="no assignment for generator"):
            alg.evaluate(zgen(1, 0) * NCPolynomial.generator(g))
    assert calls == []
