"""Finite fields, quiver representations, barcodes, derived objects.

The key checks are dual-route: rep-level Hom/Ext computed from commuting
squares (``rep_oracle``) must agree with the package's closed-form derived
Hom spaces, and barcodes must be stable under base change.
"""

import itertools
import random

import pytest
from hypothesis import given, strategies as st

import hall_oracle
from diskhall.repq import DerivedCategory, DerivedObject, FiniteField, mat_rank, rref
from field_oracle import mat_mul
from rep_oracle import (QuiverRep, barcode, direct_sum, ext1_space, hom_dim, interval_rep,
                        zero_rep)
from star_cone import star_cone


# -- field axioms (exhaustive: the fields are tiny) --------------------------

@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_field_axioms(q):
    F = FiniteField(q)
    els = list(F.elements())
    for x in els:
        assert F.add(x, 0) == x and F.mul(x, 1) == x
        assert F.add(x, F.neg(x)) == 0
        if x:
            assert F.mul(x, F.inv(x)) == 1
    # distributivity on a sample
    rng = random.Random(5)
    for _ in range(40):
        x, y, z = (rng.choice(els) for _ in range(3))
        assert F.mul(x, F.add(y, z)) == F.add(F.mul(x, y), F.mul(x, z))


def test_field_rejects_non_prime_power():
    with pytest.raises(ValueError):
        FiniteField(6)


def test_searched_modulus_is_not_checked_twice(monkeypatch):
    """The modulus search tests each candidate once and the modulus it
    finds is not tested again."""
    calls = []
    check = FiniteField._modulus_irreducible

    def counted(self, modulus):
        calls.append(modulus)
        return check(self, modulus)

    monkeypatch.setattr(FiniteField, "_modulus_irreducible", counted)
    F = FiniteField(2 ** 20)
    code = sum(c << i for i, c in enumerate(F.modulus[:-1]))
    assert calls[-1] == F.modulus and len(set(calls)) == len(calls) == code + 1 == 10


# -- random representations --------------------------------------------------

def random_rep(F, m, rng, max_dim=3):
    dims = [rng.randrange(max_dim + 1) for _ in range(m - 1)]
    maps = [[[rng.randrange(F.q) for _ in range(dims[v])]
             for _ in range(dims[v + 1])] for v in range(m - 2)]
    return QuiverRep(F, m, dims, maps)


def random_invertible(F, n, rng):
    while True:
        M = [[rng.randrange(F.q) for _ in range(n)] for _ in range(n)]
        if mat_rank(F, M) == n:
            return M


def invert(F, M):
    n = len(M)
    aug = [M[i][:] + [int(i == j) for j in range(n)] for i in range(n)]
    R, pivots = rref(F, aug)
    assert pivots == list(range(n))
    return [row[n:] for row in R]


def base_change(rep, gs):
    F = rep.field
    maps = []
    for v in range(rep.m - 2):
        maps.append(mat_mul(F, mat_mul(F, gs[v + 1], rep.maps[v]), invert(F, gs[v])))
    return QuiverRep(F, rep.m, rep.dims, maps)


def test_barcode_of_intervals():
    F = FiniteField(2)
    M = direct_sum([interval_rep(F, 4, 1, 3), interval_rep(F, 4, 2, 4),
                    interval_rep(F, 4, 1, 3)])
    assert barcode(M) == ((1, 3), (1, 3), (2, 4))
    assert barcode(zero_rep(F, 4)) == ()


def test_barcode_roundtrip_and_base_change():
    rng = random.Random(11)
    for q in (2, 3):
        F = FiniteField(q)
        for _ in range(60):
            M = random_rep(F, 4, rng)
            bars = barcode(M)
            # round-trip: the barcode rebuilds an isomorphic representation
            if bars:
                N = direct_sum([interval_rep(F, 4, a, b) for a, b in bars])
            else:
                N = zero_rep(F, 4)
            assert barcode(N) == bars
            assert N.dims == M.dims
            # invariance under arbitrary change of basis at every vertex
            gs = [random_invertible(F, d, rng) for d in M.dims]
            assert barcode(base_change(M, gs)) == bars


def test_hom_is_iso_invariant():
    rng = random.Random(3)
    F = FiniteField(2)
    for _ in range(15):
        M = random_rep(F, 4, rng, max_dim=2)
        N = random_rep(F, 4, rng, max_dim=2)
        gs = [random_invertible(F, d, rng) for d in M.dims]
        assert hom_dim(M, N) == hom_dim(base_change(M, gs), N)


# -- derived objects ---------------------------------------------------------

def test_derived_object_basics():
    X = DerivedObject.of([(1, 3, 0), (2, 4, -1)])
    assert X.shifted(2).summands == ((1, 3, 2), (2, 4, 1))
    assert DerivedObject.zero().is_zero()
    assert DerivedObject.simple(2).summands == ((2, 3, 0),)
    with pytest.raises(ValueError):
        DerivedObject.of([(3, 2, 0)])


@given(st.lists(st.tuples(st.integers(1, 5), st.integers(1, 4), st.integers(-3, 3)),
                max_size=6),
       st.integers(-5, 5))
def test_shift_keeps_summands_sorted(items, k):
    """``shifted`` does not sort: a uniform shift keeps the order of the
    (a, b, n) summands that ``DerivedObject.of`` sorted."""
    X = DerivedObject.of([(a, a + length, n) for a, length, n in items])
    Y = X.shifted(k)
    assert list(Y.summands) == sorted(Y.summands)
    assert Y.shifted(-k) == X


def test_class_vector_alternates_with_shift():
    X = DerivedObject.of([(1, 3, 0)])
    assert hall_oracle.class_vector(X, 4) == (1, 1, 0)
    assert hall_oracle.class_vector(X.shifted(1), 4) == (-1, -1, 0)
    assert hall_oracle.class_vector(X.shifted(2), 4) == (1, 1, 0)


def test_dhom_matches_rep_level_hom_and_ext():
    """Degree 0/1 derived Homs of modules = Hom and Ext^1 of commuting
    squares, for every pair of interval modules at m <= 6."""
    F = FiniteField(2)
    for m in range(2, 7):
        cat = DerivedCategory(m, 2)
        intervals = [(a, b) for a in range(1, m) for b in range(a + 1, m + 1)]
        for (a, b), (c, d) in itertools.product(intervals, repeat=2):
            M, N = interval_rep(F, m, a, b), interval_rep(F, m, c, d)
            dims = cat.dhom_dims(DerivedObject.of([(a, b, 0)]),
                                 DerivedObject.of([(c, d, 0)]))
            assert dims.get(0, 0) == hom_dim(M, N)
            assert dims.get(1, 0) == ext1_space(M, N)
            # hereditary: nothing outside degrees 0 and 1
            assert set(dims) <= {0, 1}


def test_dhom_shift_invariance():
    cat = DerivedCategory(3, 3)
    X = DerivedObject.of([(1, 2, 0), (2, 3, 1)])
    Y = DerivedObject.of([(1, 3, 0)])
    base = cat.dhom_dims(X, Y)
    shifted = cat.dhom_dims(X.shifted(1), Y.shifted(1))
    assert base == shifted


def test_euler_form_on_simples_is_cartan_like():
    cat = DerivedCategory(4, 2)
    for i in range(1, 4):
        for j in range(1, 4):
            e = hall_oracle.euler_form(cat, DerivedObject.simple(i), DerivedObject.simple(j))
            rev = hall_oracle.euler_form(cat, DerivedObject.simple(j), DerivedObject.simple(i))
            expected = 2 if i == j else (-1 if abs(i - j) == 1 else 0)
            assert e + rev == expected


def test_cone_of_zero_and_identity():
    cat = DerivedCategory(3, 2)
    S = DerivedObject.simple(1)
    maps = cat.enumerate_dhoms(S, S)
    cones = sorted(str(cat.cone(f)) for f in maps)
    # zero map has cone S + S[1]; the identity has cone 0
    assert "0" in cones
    assert any("M[1,2) + M[1,2)[1]" == c for c in cones)


@pytest.mark.parametrize("q", [2, 3])
def test_star_cone_closed_form_equals_the_field_cone(q):
    """The closed form of ``star_cone`` against the F_q cone that ``_census``
    computes, on every star at m <= 6 with 1 to 3 sources, repeats allowed,
    put at lowest shift 0 as ``_census`` puts it."""
    checked = 0
    for m in range(2, 7):
        cat = DerivedCategory(m, q)
        for c, d in itertools.combinations(range(1, m + 1), 2):
            sources = ([(a, b, 1) for a in range(c, d) for b in range(d, m + 1)]
                       + [(a, b, 0) for a in range(1, c) for b in range(c, d)])
            for k in (1, 2, 3):
                for S in itertools.combinations_with_replacement(sources, k):
                    s = min(n for _a, _b, n in S)
                    S = tuple([(a, b, n - s) for a, b, n in S])
                    y = (c, d, 1 - s)
                    edges = [(i, 0, 1) for i in range(len(S))]
                    cone = cat.cone(cat._block_morphism(DerivedObject(S), DerivedObject((y,)),
                                                        edges))
                    assert star_cone(S, y) == cone.summands, (m, S, y)
                    checked += 1
    assert checked == 2730


def test_aut_counts():
    cat = DerivedCategory(3, 2)
    S = DerivedObject.simple(1)
    assert cat.aut_count(S) == 1
    SS = DerivedObject.of([(1, 2, 0), (1, 2, 0)])
    assert cat.aut_count(SS) == 6  # |GL_2(F_2)|
    mixed = DerivedObject.of([(1, 2, 0), (1, 2, 1)])
    assert cat.aut_count(mixed) == 1


def test_identify_roundtrip():
    """``identify`` recovers every object of total dimension <= 3 with
    summand shifts 0..2, for m <= 5, from its projective complex (and one
    larger object)."""
    checked = 0
    for m in range(2, 6):
        cat = DerivedCategory(m, 2)
        intervals = [(a, b, n) for a in range(1, m) for b in range(a + 1, m + 1)
                     for n in range(3)]
        for k in (1, 2, 3):
            for combo in itertools.combinations_with_replacement(intervals, k):
                if sum(b - a for a, b, _n in combo) <= 3:
                    X = DerivedObject.of(combo)
                    assert cat.identify(cat.complex_of(X)) == X
                    checked += 1
    assert checked == 982
    X = DerivedObject.of([(1, 4, 0), (2, 3, -1), (1, 2, 2)])  # negative shift, dim 5
    assert cat.identify(cat.complex_of(X)) == X
