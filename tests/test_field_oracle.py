"""Lookup-table field arithmetic against the per-operation oracle.

Every entry of add/sub/neg/mul/inv is compared with ``field_oracle`` for
small fields, whose moduli are all found by search, and
sampled entries for large ones, whose tables must hold only what was looked
up.  The table-driven ``rref`` is compared with the oracle's
one-call-per-entry version on seeded random matrices.
"""

import random

import pytest

import field_oracle
from diskhall.repq import FiniteField, rref


#: the moduli the search finds (coefficients, low degree first); a prime
#: field has none
SEARCHED_MODULI = {4: (1, 1, 1), 8: (1, 1, 0, 1), 9: (1, 0, 1), 16: (1, 1, 0, 0, 1),
                   25: (2, 0, 1), 27: (1, 2, 0, 1), 32: (1, 0, 1, 0, 0, 1)}


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 32])
def test_every_entry_matches_oracle(q):
    F = FiniteField(q)
    assert F.modulus == SEARCHED_MODULI.get(q)
    O = field_oracle.oracle_of(F)
    els = list(F.elements())
    for x in els:
        assert F.neg(x) == O.neg(x)
        if x:
            assert F.inv(x) == O.inv(x)  # the oracle finds an inverse: no zero divisors
        for y in els:
            assert F.add(x, y) == O.add(x, y)
            assert F.sub(x, y) == O.sub(x, y)
            assert F.mul(x, y) == O.mul(x, y)
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


@pytest.mark.parametrize("q", [257, 729, 10007])
def test_large_field_tables_fill_on_use(q):
    F = FiniteField(q)
    O = field_oracle.oracle_of(F)
    rng = random.Random(q)
    pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(200)]
    for x, y in pairs:
        assert F.add(x, y) == O.add(x, y)
        assert F.sub(x, y) == O.sub(x, y)
        assert F.mul(x, y) == O.mul(x, y)
        if x:
            assert F.mul(x, F.inv(x)) == 1
    # at most two multiplications and two additions per pair were looked up
    for table in (F.add_t, F.mul_t):
        assert sum(len(row) for row in table.values()) <= 2 * len(pairs)
    assert len(F.neg_t) <= len(pairs) and len(F.inv_t) <= len(pairs)


def random_matrix(F, rows, cols, rng):
    """A random matrix, of full or of deficient rank."""
    rank = rng.randrange(min(rows, cols) + 1)
    if rng.random() < 0.5 or rank == 0:
        return [[rng.randrange(F.q) for _ in range(cols)] for _ in range(rows)]
    A = [[rng.randrange(F.q) for _ in range(rank)] for _ in range(rows)]
    B = [[rng.randrange(F.q) for _ in range(cols)] for _ in range(rank)]
    return field_oracle.mat_mul(F, A, B)


@pytest.mark.parametrize("q", [2, 3, 4, 8, 9])
def test_linear_algebra_matches_oracle(q):
    F = FiniteField(q)
    O = field_oracle.oracle_of(F)
    rng = random.Random(100 + q)
    deficient = 0
    for _ in range(150):
        rows, cols = rng.randint(1, 8), rng.randint(1, 12)
        M = random_matrix(F, rows, cols, rng)
        R, pivots = rref(F, M)
        assert (R, pivots) == field_oracle.rref(O, M)
        deficient += len(pivots) < min(rows, cols)
    assert deficient > 20
