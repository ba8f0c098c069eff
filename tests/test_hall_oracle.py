"""One-sweep structure constants, closed-form automorphism counts, and the
two symmetries the memos use.

The package's derived Riedtmann formula and closed-form |Aut| are checked
against the two-sweep enumerations they replaced (``hall_oracle``) on all
small cases: products with dim X + dim Y <= 3 and objects of total dimension
<= 3, with summand shifts in 0..2, taken up to an overall shift (which is an
autoequivalence).  The product cache is checked on pairs translated by -2
and +3, the a(Z) memo on objects shifted by -3..3, and the support-census memo
of ``cone_counts`` on pairs translated by -3..3, and the kernel's class
ids and their translates on every object of dimension <= 3, m <= 5, at
small shifts and at shifts beyond 2^32; the
closed-form table of summand pairs against their Hom complex, and the
graded Hom dims summed from it, and the maps ``enumerate_dhoms`` lists,
against the Hom complex of the whole objects.  ``identify``, which
reads each homology map's rank off submatrices of a cone's differentials,
is checked against the homology representations it replaced, on seeded
random chain maps and on every star cone of the products with cyclic
supports.  A left factor with other than one summand is a word of its
letters: every sweep is checked to take a letter, the census onto one
target summand against the morphism sweep, and the order of the word
against the Hom complex.
"""

import functools
import itertools
import math
import random
from fractions import Fraction

import pytest

import hall_oracle
from diskhall.hall import HallAlgebra, HallElement
from diskhall.repq import DMorphism, DerivedCategory, DerivedObject, zeros
from diskhall.scalar import QuadraticScalar
from field_oracle import nullspace, rref
from hall_oracle import full_complex_dims, morphism_sweep, product_from_counts

#: largest dim End X checked at each q.  The enumerating oracle visits all
#: q^{dim End X} endomorphisms, so at q = 4 the six objects with dim End 9
#: (4^9 endomorphisms each, e.g. S + S + S) are left to q = 2, 3 and to the
#: |GL_3(F_q)| check below; the six with dim End 7 are checked.
MAX_END_DIM = {2: 9, 3: 9, 4: 7}


def max_product_dim(q, m):
    """Largest dim X + dim Y of the products checked.  The oracle enumerates
    Hom(X, L), so the largest fields check smaller products; at the squares
    q = 4, 9 an odd Euler form puts sqrt(q) into the twist as an integer."""
    return 3 if q <= 3 or (q == 4 and m < 4) else 2


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


def cone_counts(cat, X, Y):
    """``cone_counts``, which works on summand tuples with a Hom block onto
    one summand, on objects: the summands of X with no block pass into
    every cone as X_i[1], as in the kernel's sweep."""
    ((c, d, k),) = Y.summands
    touched = tuple(s for s in X.summands if cat._pair_dims(*s[:2], c, d, k - s[2]) == 0)
    rest = [(a, b, n + 1) for (a, b, n) in X.summands if (a, b, n) not in touched]
    return {DerivedObject.of(rest + list(L)): n
            for L, n in cat.cone_counts(touched, (c, d, k)).items()}


def check_products(q, m, shift):
    """Every constant of [X][Y], for X, Y translated by a common shift from
    lowest summand shift 0, against the two-sweep oracle run on the
    translated objects themselves; and, for a one-summand X (the only left
    factor the kernel sweeps), the support-pattern counts N_L against the
    morphism sweep."""
    alg = HallAlgebra(m, q)
    cat = alg.category
    objs = objects(m, 2)
    max_dim = max_product_dim(q, m)
    triples = 0
    for X0, Y0 in itertools.product(objs, repeat=2):
        if dimension(X0) + dimension(Y0) > max_dim or lowest_shift(X0, Y0) != 0:
            continue
        X, Y = X0.shifted(shift), Y0.shifted(shift)
        counts = morphism_sweep(cat, Y.shifted(-1), X)
        if len(X.summands) == 1:
            assert cone_counts(cat, Y.shifted(-1), X) == counts, (X, Y)
        d, terms = alg._basis_product(hall_oracle.class_id(alg, X), hall_oracle.class_id(alg, Y))
        assert d > 0 and math.gcd(d, *(v for _L, a, b in terms for v in (a, b))) == 1
        product = hall_oracle.kernel_product(alg, X, Y)
        assert list(product) == sorted(counts, key=lambda o: o.summands)
        euler = sum((-1) ** (k % 2) * d for k, d in full_complex_dims(cat, Y, X).items())
        twist = hall_oracle.sqrt_q_power(q, euler)
        # the halves as the kernel holds them, on class ids in the basis
        # u_Z = a(Z)[Z], scaled to [L]: at a square q, B is 0
        halves = {}
        for i, a, b in terms:
            L = alg._object(i)
            scale = hall_oracle.a_value(alg, L) / (d * hall_oracle.a_value(alg, Y))
            halves[L] = (a * scale, b * scale)
        for L, n in counts.items():
            expected = hall_oracle.structure_constant(alg, X, Y, L)
            assert expected != 0
            assert alg.structure_constant(X, Y, L, n) == expected, (X, Y, L)
            value = twist * QuadraticScalar(q, expected)
            assert product[L] == value, (X, Y, L)
            assert halves[L] == (value.a, value.b), (X, Y, L)
            triples += 1
    assert triples >= (30 if max_dim == 3 else 5)


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_riedtmann_matches_two_sweep_oracle(q, m):
    check_products(q, m, 0)


@pytest.mark.parametrize("shift", [-2, 3])
@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_translated_products_match_two_sweep_oracle(q, m, shift):
    """The product cache sweeps the pair translated to lowest shift 0 and
    shifts each cone back; the constants must be those of the pair itself."""
    check_products(q, m, shift)


@pytest.mark.parametrize("q", [4, 5])
def test_cone_counts_match_morphism_sweep(q):
    """N_L counted over torus orbits of block-support patterns equals N_L
    counted one morphism at a time, for one-summand X, dim X + dim Y <= 3,
    m = 2..4 and summand shifts -1..2 (so star cones are memoised at
    several shifts)."""
    pairs = 0
    for m in (2, 3, 4):
        cat = DerivedCategory(m, q)
        objs = objects(m, 2, shifts=range(-1, 3))
        for X, Y in itertools.product(objs, repeat=2):
            if len(X.summands) != 1 or dimension(X) + dimension(Y) > 3:
                continue
            expected = morphism_sweep(cat, Y.shifted(-1), X)
            assert cone_counts(cat, Y.shifted(-1), X) == expected, (X, Y)
            pairs += 1
    assert pairs >= 1744


#: products [X][Y] whose support graph on Hom(Y[-1], X) is a complete
#: bipartite graph with a cycle, which the kernel reaches only as a word
#: of star sweeps: (m, X, Y, the q to sweep)
CYCLIC = [
    (2, [(1, 2, 0)] * 2, [(1, 2, 1)] * 2, (2, 3, 4, 5)),              # (S1+S1)(S1[1]+S1[1])
    (3, [(1, 2, 0), (1, 3, 0)], [(1, 3, 1)] * 2, (2, 3, 4, 5)),       # (S1+P1)(P1[1]+P1[1])
    (4, [(1, 2, 0), (2, 4, 1)], [(1, 2, 1), (1, 3, 1)], (2, 3, 4, 5)),  # four distinct
    (2, [(1, 2, 0)] * 2, [(1, 2, 1)] * 3, (2, 3)),                    # K_{2,3}: two cycles
]


def checked_identify(cat, monkeypatch):
    """Make every ``cat.identify`` assert that the rank formula agrees with
    the homology route; returns the list of the classes it identified."""
    identify, seen = cat.identify, []

    def both(c):
        L = identify(c)
        assert L == hall_oracle.identify_by_homology(cat, c), (c.labels, c.diff)
        seen.append(L)
        return L

    monkeypatch.setattr(cat, "identify", both)
    return seen


def random_chain_map(cat, X, Y, rng):
    """A uniformly random degree-0 chain map between the projective
    complexes of X and Y (any cocycle, not only a class representative)."""
    F = cat.field
    cx, cy = cat.complex_of(X), cat.complex_of(Y)
    v0, v1 = hall_oracle.hom_vars(cx, cy, 0), hall_oracle.hom_vars(cx, cy, 1)
    vec = [0] * len(v0)
    for z in nullspace(F, hall_oracle.delta(cat, cx, cy, 0, v0, v1), len(v0)) if v0 else []:
        c = rng.randrange(F.q)
        vec = [F.add(x, F.mul(c, y)) for x, y in zip(vec, z)]
    maps = {d: zeros(len(cy.at(d)), len(cx.at(d))) for d in cx.degrees()}
    for x, (d, i, j) in zip(vec, v0):
        maps[d][i][j] = x
    return DMorphism(maps, cx, cy)


def test_rank_identify_matches_homology_route(monkeypatch):
    """The rank formula against the homology representations on 1,125
    seeded cones: q = 2, 3, 4, 5, 7, m = 2..6, objects of 1 to 3 summands
    with shifts 0..2."""
    rng = random.Random(9)
    checked = []
    for q in (2, 3, 4, 5, 7):
        for m in range(2, 7):
            cat = DerivedCategory(m, q)
            seen = checked_identify(cat, monkeypatch)

            def obj():
                return DerivedObject.of(
                    (a, rng.randrange(a + 1, m + 1), rng.randrange(3))
                    for a in [rng.randrange(1, m) for _ in range(rng.randint(1, 3))])

            for _ in range(45):
                cat.cone(random_chain_map(cat, obj(), obj(), rng))
            checked += seen
    assert len(checked) == 1125
    assert sum(L.is_zero() for L in checked) > 10


@pytest.mark.parametrize("m, xs, ys, q", [
    (m, xs, ys, q) for (m, xs, ys, qs) in CYCLIC for q in qs])
def test_cyclic_supports(m, xs, ys, q, monkeypatch):
    """Products with a cyclic support, which the kernel computes as a word
    in the summands of X: the terms against N_L from the morphism sweep,
    every cone the kernel identifies against the homology route, and at
    q <= 3 the structure constants against the two-sweep oracle."""
    alg = HallAlgebra(m, q)
    cat = alg.category
    X, Y = DerivedObject.of(xs), DerivedObject.of(ys)
    Y1 = Y.shifted(-1)
    dim = cat.dhom_dims(Y1, X).get(0, 0)
    assert dim == len(xs) * len(ys)
    components = checked_identify(cat, monkeypatch)
    product = hall_oracle.kernel_product(alg, X, Y)
    monkeypatch.undo()
    assert len(components) == len(cat._cone_cache) > 0
    counts = morphism_sweep(cat, Y1, X)
    assert sum(counts.values()) == q ** dim
    expected = product_from_counts(alg, X, Y, counts)
    assert list(product.items()) == list(expected.items())
    if q <= 3:
        for L, n in counts.items():
            assert alg.structure_constant(X, Y, L, n) == \
                hall_oracle.structure_constant(alg, X, Y, L), (X, Y, L)


@pytest.mark.parametrize("q", [2, 3])
def test_census_memo_is_shift_invariant(q):
    """``cone_counts`` runs its support census on the summands that carry a
    Hom block and the target summand only, memoised at lowest shift 0, and
    passes the others through.  With X = M[1,3) indecomposable, two of the
    four summands of Y[-1] carry a block to X; at every translation by
    -3..3 the counts equal the morphism sweep of the whole objects, and the
    sweep fills one memo entry."""
    cat = DerivedCategory(4, q)
    X = DerivedObject.of([(1, 3, 0)])
    Y = DerivedObject.of([(1, 2, -1), (1, 2, 0), (1, 3, 1), (2, 4, 1)])
    for t in range(-3, 4):
        a, b = Y.shifted(t - 1), X.shifted(t)
        assert cone_counts(cat, a, b) == morphism_sweep(cat, a, b), (a, b)
    [(xs, y)] = cat._census_cache
    assert len(xs) == 2 and y[:2] == (1, 3)
    assert min(n for (_a, _b, n) in xs + (y,)) == 0


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_square_matrix_support_counts_ranks(q):
    """Hom(S1 + S1, S1 + S1) is M_2(F_q), and the cone of w depends on its
    rank: 0 for |GL_2(F_q)| matrices, S1 + S1[1] for the (q+1)(q^2-1) of
    rank 1, and S1 + S1 + S1[1] + S1[1] for w = 0.  These are the counts
    of the morphism sweep, and the terms of [S1 + S1]*[S1[1] + S1[1]],
    whose sweep is Hom(S1 + S1, S1 + S1)."""
    alg = HallAlgebra(2, q)
    S = DerivedObject.of([(1, 2, 0)] * 2)
    counts = {
        DerivedObject.zero(): (q * q - 1) * (q * q - q),
        DerivedObject.of([(1, 2, 0), (1, 2, 1)]): (q + 1) * (q * q - 1),
        DerivedObject.of([(1, 2, 0)] * 2 + [(1, 2, 1)] * 2): 1,
    }
    assert morphism_sweep(alg.category, S, S) == counts
    product = hall_oracle.kernel_product(alg, S, S.shifted(1))
    assert product == product_from_counts(alg, S, S.shifted(1), counts)


def letters_only(monkeypatch):
    """Make every ``HallAlgebra._sweep`` assert that its left factor has one
    summand; returns the list of the swept left factors."""
    sweep, seen = HallAlgebra._sweep, []

    def checked(self, x, y):
        assert len(self._summands(x)) == 1, self._summands(x)
        seen.append(self._summands(x))
        return sweep(self, x, y)

    monkeypatch.setattr(HallAlgebra, "_sweep", checked)
    return seen


def test_every_sweep_has_a_letter_on_the_left(monkeypatch):
    """A left factor with two summands, or a product of sums of such
    classes, reaches ``_sweep`` only through its letters: in
    ``check_products`` at q = 2, m = 3, and in (x y) z = x (y z) on
    seeded sums of two-summand classes at q = 3, m = 3."""
    seen = letters_only(monkeypatch)
    check_products(2, 3, 0)
    assert seen
    rng = random.Random(5)
    alg = HallAlgebra(3, 3)
    pairs = [X for X in objects(3, 2, shifts=range(-1, 2)) if len(X.summands) == 2]

    def element():
        return sum((HallElement.basis(3, X, rng.randint(1, 3)) for X in rng.sample(pairs, 2)),
                   HallElement.zero(3))

    for _ in range(8):
        x, y, z = element(), element(), element()
        left = alg.hall_product(alg.hall_product(x, y), z)
        assert not left.is_zero()
        assert left == alg.hall_product(x, alg.hall_product(y, z)), (x, y, z)


def test_census_counts_two_sources_onto_one_target():
    """``cone_counts`` counts stars onto one target summand: two sources
    onto S1 match the morphism sweep."""
    cat = DerivedCategory(2, 3)
    S, SS = DerivedObject.simple(1), DerivedObject.of([(1, 2, 0)] * 2)
    assert cone_counts(cat, SS, S) == morphism_sweep(cat, SS, S) == {
        DerivedObject.of([(1, 2, 0), (1, 2, 1), (1, 2, 1)]): 1,
        DerivedObject.simple(1, 1): 3 * 3 - 1,
    }


def test_word_order_has_no_ext_backwards():
    """The order of ``_word_product``: if Ext^1(A, B) != 0 then A sorts
    before B under (-n, a, b), so in the sorted word no later summand has
    Ext^1 into an earlier one.  Checked on the Hom complex, for A at shift
    0 (both Ext^1 and the order are invariant under a common shift), every
    pair of intervals for m <= 6 and relative shifts -2..2."""
    exts = 0
    for m in range(2, 7):
        cat = DerivedCategory(m, 2)
        intervals = [(a, b) for a in range(1, m) for b in range(a + 1, m + 1)]
        for (a, b), (c, d) in itertools.product(intervals, repeat=2):
            for r in range(-2, 3):
                if hall_oracle.pair_dims(cat, a, b, c, d, r).get(1):
                    assert (0, a, b) < (-r, c, d), (m, a, b, c, d, r)
                    exts += 1
    assert exts == 182


def test_hom_between_indecomposables_is_at_most_one_dimensional():
    """The fact that splits Hom(Y[-1], X) into one-dimensional blocks:
    every entry of the Hom-complex pair table is <= 1, for m <= 7 and
    relative shifts -3..3 (so every degree of every pair is covered,
    degree 0 included)."""
    for m in range(2, 8):
        cat = DerivedCategory(m, 2)
        intervals = [(a, b) for a in range(1, m) for b in range(a + 1, m + 1)]
        for (a, b), (c, d) in itertools.product(intervals, repeat=2):
            for r in range(-3, 4):
                dims = hall_oracle.pair_dims(cat, a, b, c, d, r)
                assert all(dim == 1 for dim in dims.values()), (m, a, b, c, d, r, dims)
        assert hall_oracle.pair_dims(cat, 1, 2, 1, 2, 0) == {0: 1}


@pytest.mark.parametrize("q", [2, 3, 4])
def test_closed_form_pair_table_matches_hom_complex(q):
    """The closed-form pair table and basis blocks against the Hom complex:
    every pair of intervals for m <= 8 and relative shifts -4..4 has Hom F_q
    in exactly the one degree the table names (none when it names None), and
    on every one-dimensional degree-0 pair the block is the cocycle the Hom
    complex picks, entry for entry."""
    entries = blocks = 0
    for m in range(2, 9):
        cat = DerivedCategory(m, q)
        intervals = [(a, b) for a in range(1, m) for b in range(a + 1, m + 1)]
        for (a, b), (c, d) in itertools.product(intervals, repeat=2):
            for r in range(-4, 5):
                expected = hall_oracle.pair_dims(cat, a, b, c, d, r)
                key = (m, a, b, c, d, r)
                deg = cat._pair_dims(a, b, c, d, r)
                assert list(expected.items()) == ([] if deg is None else [(deg, 1)]), key
                entries += 1
                if expected.get(0):
                    assert [(deg, 1) for deg in cat._pair_block(b, r)] == \
                        hall_oracle.pair_block(cat, a, b, c, d, r), key
                    blocks += 1
    assert (entries, blocks) == (14364, 714)


@pytest.mark.parametrize("q", [2, 3])
def test_dhom_dims_sum_the_pair_table(q):
    """Graded Hom summed over summand pairs (by relative shift) equals Hom
    computed on the whole complexes, for dim X + dim Y <= 3, shifts -2..2."""
    pairs = 0
    for m in (2, 3, 4):
        cat = DerivedCategory(m, q)
        objs = objects(m, 2, shifts=range(-2, 3))
        for X, Y in itertools.product(objs, repeat=2):
            if dimension(X) + dimension(Y) > 3:
                continue
            expected = full_complex_dims(cat, X, Y)
            assert list(cat.dhom_dims(X, Y).items()) == list(expected.items()), (X, Y)
            pairs += 1
    assert pairs > 4000


@pytest.mark.parametrize("q", [2, 3])
def test_enumerate_dhoms_lists_every_class_once(q):
    """The package's enumeration, built from the closed-form blocks, against
    the Hom complex of the whole objects: every map is a degree-0 cocycle,
    and the maps fall in q^k distinct classes modulo coboundaries, k = dim
    H^0 there; for dim X + dim Y <= 3, shifts -1..1."""
    pairs = 0
    for m in (2, 3, 4):
        cat = DerivedCategory(m, q)
        F = cat.field
        objs = objects(m, 2, shifts=range(-1, 2))
        for X, Y in itertools.product(objs, repeat=2):
            if dimension(X) + dimension(Y) > 3:
                continue
            cx, cy = cat.complex_of(X), cat.complex_of(Y)
            v0, d0, dm1 = hall_oracle.hom_complex(cat, cx, cy, 0)
            R, pivots = rref(F, hall_oracle.columns(dm1)) if dm1 and dm1[0] else ([], [])
            classes = set()
            for f in cat.enumerate_dhoms(X, Y):
                vec = [f.maps[d][i][j] for (d, i, j) in v0]
                # no entry off the Hom(P_u, P_w) coordinates, and delta_0 f = 0
                assert sum(1 for x in vec if x) == sum(
                    1 for A in f.maps.values() for row in A for x in row if x), (X, Y)
                for row in d0:
                    assert functools.reduce(F.add, map(F.mul, row, vec), 0) == 0, (X, Y)
                for row, c in zip(R, pivots):
                    if vec[c]:
                        s = vec[c]
                        vec = [F.sub(x, F.mul(s, y)) for x, y in zip(vec, row)]
                classes.add(tuple(vec))
            assert len(classes) == q ** hall_oracle.hom_degree_dim(cat, cx, cy, 0), (X, Y)
            pairs += 1
    assert pairs > 1000


@pytest.mark.parametrize("q", [2, 3, 4])
def test_closed_form_aut_count_matches_enumeration(q):
    checked = set()
    for m in (2, 3, 4):
        cat = DerivedCategory(m, q)
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
    """S + S + S has automorphism group GL_3(F_q), for every q.  In
    S1 + S1 + M[1,3) only Hom(M[1,3), S1) is nonzero between distinct
    summands, so the automorphisms are block triangular: GL_2(F_q) on
    S1 + S1, F_q^x on M[1,3), and any of the q^2 maps M[1,3) -> S1 + S1."""
    X = DerivedObject.of([(1, 2, 0)] * 3)
    mixed = DerivedObject.of([(1, 2, 0), (1, 2, 0), (1, 3, 0)])
    for q in (2, 3, 4, 5):
        order = 1
        for j in range(3):
            order *= q ** 3 - q ** j
        assert DerivedCategory(2, q).aut_count(X) == order
        gl2 = (q * q - 1) * (q * q - q)
        assert DerivedCategory(3, q).aut_count(mixed) == gl2 * (q - 1) * q ** 2


@pytest.mark.parametrize("q", [2, 3])
def test_a_memo_is_shift_invariant(q):
    """a(Z) = |Aut Z| {Z,Z} is the same for every shift of Z, whichever of Z
    and its shift the memo sees first, on objects of dimension <= 3."""
    for Z in objects(3, 3):
        aut = DerivedCategory(3, q).aut_count(Z)
        braces = hall_oracle.braces(DerivedCategory(3, q), Z, Z)
        for k in range(-3, 4):
            for first, second in ((Z, Z.shifted(k)), (Z.shifted(k), Z)):
                alg = HallAlgebra(3, q)
                a = alg._a(hall_oracle.class_id(alg, first))
                assert alg._a(hall_oracle.class_id(alg, second)) == a, (Z, k)
                assert alg._a(hall_oracle.class_id(alg, first)) == a, (Z, k)
                assert a[0] == aut and Fraction(q) ** a[1] == braces, (Z, k)


def test_class_table_round_trips():
    """The kernel names each class by an id, s * 2^32 + base with s its
    lowest shift: the table gives back its summands, and translating a
    class by k adds k * 2^32 to its id, undone by the opposite shift, at
    small k and at |k| >= 2^32; the zero class is id 0 at every shift.  For
    0 and every object of dimension <= 3, m <= 5."""
    step = 1 << 32
    for m in range(2, 6):
        alg = HallAlgebra(m, 2)
        for Z in [DerivedObject.zero()] + objects(m, 3):
            s = Z.summands
            i = alg._id(s)
            assert alg._summands(i) == s and alg._id(s) == i
            assert i == (lowest_shift(Z) * step + i % step if s else 0)
            assert 0 < i % step < step if s else i == 0
            for k in [-3, -2, -1, 0, 1, 2, 3, step, -step - 1, 3 * 10 ** 9, -(3 * 10 ** 9)]:
                j = hall_oracle.translate(alg, i, k)
                assert j == (i + k * step if s else 0), (Z, k)
                assert alg._summands(j) == Z.shifted(k).summands, (Z, k)
                assert hall_oracle.translate(alg, j, -k) == i, (Z, k)


@pytest.mark.parametrize("k", [-2, 3])
@pytest.mark.parametrize("q, m", [(2, 4), (3, 3)])
def test_translated_product_is_shifted_back(q, m, k):
    """[X[k]]*u_{Y[k]}, swept through the pair at lowest shift 0, equals the
    shift-0 product of a separate algebra with every class shifted by k;
    and in one algebra its terms are the translates of the shift-0 terms."""
    alg, base = HallAlgebra(m, q), HallAlgebra(m, q)
    pairs = 0
    for X, Y in itertools.product(objects(m, 2), repeat=2):
        if lowest_shift(X, Y) != 0:
            continue
        x, y = hall_oracle.class_id(alg, X), hall_oracle.class_id(alg, Y)
        d, terms = alg._basis_product(hall_oracle.translate(alg, x, k),
                                      hall_oracle.translate(alg, y, k))
        e, base_terms = base._basis_product(hall_oracle.class_id(base, X),
                                            hall_oracle.class_id(base, Y))
        assert d == e
        assert [(alg._summands(L), a, b) for L, a, b in terms] == \
            [(base._object(L).shifted(k).summands, a, b)
             for L, a, b in base_terms], (X, Y)
        assert terms == tuple((hall_oracle.translate(alg, L, k), a, b)
                              for L, a, b in alg._basis_product(x, y)[1])
        pairs += 1
    assert pairs > 50
