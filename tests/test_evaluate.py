"""The evaluation kernel against the per-word and expand-first oracles.

``HallAlgebra.evaluate_many`` walks the trie of the reversed words of a
batch of polynomials, applies each generator's image (``expand``) inside
the walk, and multiplies on integer numerators over one denominator;
``hall_product`` uses the same left multiplication.  Both are checked
against ``hall_oracle``, which multiplies each word on its own with
``QuadraticScalar`` coefficients or expands every side in Q(v) first, at
q = 2, 3 (where sqrt(q) is irrational) and q = 4, 9 (where the sqrt(q) half
folds into the rational half).  At q = 2, 3 the oracle computes every basis
product from one cone per morphism (``hall_oracle.basis_product``), so these
tests check the structure constants too, not only the walk.
"""

import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import hall_oracle
from diskhall.freealg import Generator, NCPolynomial, Relation, egen, q_bracket, zgen
from diskhall.hall import HallAlgebra, HallElement
from diskhall.presentation import (SELF_EXT, RelationSet, chord_skein_set, cyclic_family,
                                   local_skein_relations, minimal_disk_relations,
                                   naive_presentation, quiver_relations)
from diskhall.repq import DerivedObject
from diskhall.scalar import ONE, V, QuadraticScalar, RationalFunctionV
from diskhall.surface import FoliationData, MarkedDisk

QS = (2, 3, 4, 9)
ALGEBRAS = {q: HallAlgebra(3, q) for q in QS}

#: two triangles glued along one arc: verified through the glued square
GLUED = {"disks": [{"m": 3, "h": [1, 0, 0]}, {"m": 3, "h": [1, 0, 0]}],
         "gluings": [{"left": 0, "arc_i": 3, "right": 1, "arc_j": 1}]}

RELATION_SETS = {
    "quiver-m3": lambda: quiver_relations(3, (-1, 1)),
    "quiver-m4": lambda: quiver_relations(4, (0, 1)),
    "minimal-disk-m4": lambda: minimal_disk_relations(
        MarkedDisk(FoliationData(4, (0, 1, 0, 1))), (0, 1)),
    "chord-skein-m4": lambda: chord_skein_set(4, (0, 1)),
}

#: relation sets whose generators have images, for the expand-first oracle
EXPANDED_SETS = dict(RELATION_SETS, **{
    "minimal-disk-m5": lambda: minimal_disk_relations(
        MarkedDisk(FoliationData(5, (1, 0, 1, 0, 1))), (0, 1)),
    "cyclic-family-m5": lambda: cyclic_family(
        MarkedDisk(FoliationData(5, (2, 0, 1, 0, 0))), 2),
    "local-skein": lambda: local_skein_relations((0, 1)),
    "glued-triangles": lambda: naive_presentation(GLUED, (0, 0)),
})


def sides(rs):
    """Both sides of every relation, expanded into quiver generators."""
    polys = [p for r in rs.relations for p in (r.lhs, r.rhs)]
    if rs.expand is None:
        return polys
    return [p.substitute(rs.expand) for p in polys]


def is_reduced(d, numerators):
    return d > 0 and math.gcd(d, *numerators) == 1


def assert_cache_reduced(alg):
    """Every cached product is keyed by a pair of class ids and reduced, and
    names its classes by id."""
    assert alg._product_cache
    for (x, y), (d, terms) in alg._product_cache.items():
        assert hall_oracle.is_class_id(alg, x) and hall_oracle.is_class_id(alg, y)
        assert all(hall_oracle.is_class_id(alg, L) for L, _a, _b in terms)
        assert is_reduced(d, [v for _L, a, b in terms for v in (a, b)])


@pytest.mark.parametrize("q", QS)
@pytest.mark.parametrize("name", RELATION_SETS)
def test_relation_sets_match_per_word_oracle(name, q):
    rs = RELATION_SETS[name]()
    polys = sides(rs)
    alg = HallAlgebra(rs.oracle_m, q)
    values = alg.evaluate_many(polys)
    assert values == [hall_oracle.evaluate(alg, p) for p in polys]
    assert [str(v) for v in values] == [str(hall_oracle.evaluate(alg, p)) for p in polys]
    assert [alg.evaluate(p) for p in polys[:6]] == values[:6]
    assert_cache_reduced(alg)


@pytest.mark.parametrize("q", QS)
@pytest.mark.parametrize("name", EXPANDED_SETS)
def test_images_in_walk_match_expanded_route(name, q):
    """Applying each generator's image inside the walk gives the values of
    expanding every side in Q(v) first."""
    rs = EXPANDED_SETS[name]()
    assert rs.expand is not None
    polys = [p for r in rs.relations for p in (r.lhs, r.rhs)]
    alg = HallAlgebra(rs.oracle_m, q)
    values = alg.evaluate_many(polys, rs.expand)
    expected = hall_oracle.evaluate_expanded(alg, polys, rs.expand)
    assert values == expected
    assert [str(v) for v in values] == [str(v) for v in expected]
    assert_cache_reduced(alg)


#: images of E1..E4 in z1, z2: a word, a bracket with a shared suffix, a
#: scalar plus a word, and 0
IMAGES = {
    1: zgen(1, 0),
    2: q_bracket(zgen(2, 1), zgen(1, 0), V) + (zgen(2, 0) * zgen(1, 0)).scale(3),
    3: NCPolynomial.scalar(SELF_EXT) + zgen(2, -1).scale(V - V ** -1),
    4: NCPolynomial.zero(),
}


def image(g):
    if g.family == "E" and g.index in IMAGES:
        return IMAGES[g.index].suspend(g.shift)
    raise ValueError(f"no image for {g}")


@pytest.mark.parametrize("q", QS)
def test_zero_and_scalar_images(q):
    E = [None] + [egen(i, 0) for i in range(1, 5)]
    polys = [E[1] * E[4] + E[2], E[4], E[4] * E[2] * E[3], q_bracket(E[2], E[3], V),
             (E[3] * E[1] * E[2]).scale(V ** 3) + NCPolynomial.scalar(2)]
    alg = ALGEBRAS[q]
    values = alg.evaluate_many(polys, image)
    assert values == hall_oracle.evaluate_expanded(alg, polys, image)
    assert values[1] == values[2] == HallElement.zero(q)
    assert values[0] == alg.evaluate(IMAGES[2])


def test_generator_without_image_fails_before_any_product(monkeypatch):
    alg = HallAlgebra(3, 2)
    calls = []
    monkeypatch.setattr(alg, "_basis_product", lambda x, y: calls.append((x, y)))
    E1, E5 = egen(1, 0), egen(5, 0)
    for polys, expand in (([E1 * E1, E1 * E5], image),
                          ([zgen(1, 0) * egen(1, 0)], None)):
        with pytest.raises(ValueError):
            alg.evaluate_many(polys, expand)
    # an image that uses a generator with no assignment
    with pytest.raises(ValueError):
        alg.evaluate_many([E1 * E1], lambda g: egen(1, 0))
    assert calls == []


def test_a_is_computed_only_at_the_edges(monkeypatch):
    """The kernel works in the basis u_Z = a(Z)[Z], where a(Y) and a(L)
    cancel from every structure constant, and a letter X (every left
    factor here) has a(X) = q - 1: |Aut Z| is counted only for the classes
    of the results, once per class modulo the shift."""
    rs = minimal_disk_relations(MarkedDisk(FoliationData(5, (1, 0, 1, 0, 1))), (-1, 1))
    polys = [p for r in rs.relations for p in (r.lhs, r.rhs)]
    alg = HallAlgebra(rs.oracle_m, 2)
    calls = []
    aut_count = alg.category.aut_count

    def counted(Z):
        calls.append(Z)
        return aut_count(Z)

    monkeypatch.setattr(alg.category, "aut_count", counted)
    values = alg.evaluate_many(polys, rs.expand)

    def base(Z):
        return Z.shifted(-min((n for _a, _b, n in Z.summands), default=0))

    classes = {base(L) for v in values for L in v.terms}
    assert 0 < len(calls) <= len(classes)
    assert len(set(calls)) == len(calls) and all(base(Z) == Z for Z in calls)


def test_large_prime_q_costs_what_q_2_costs():
    """Every QuadraticScalar checks that q is a prime power, by trial
    division up to sqrt(q), about 5 ms at q = 4294967291; the check is
    memoised per q, so the minimal m = 4 disk (52 sides, one scalar per
    result term and per distinct coefficient) costs about as much CPU time
    there as at q = 2.  Without the memo it read about 20 times slower."""
    rs = minimal_disk_relations(MarkedDisk(FoliationData(4, (1, 0, 1, 0))), (0, 1))
    polys = [p for r in rs.relations for p in (r.lhs, r.rhs)]

    def cpu(q):
        best = math.inf
        for _ in range(5):
            alg = HallAlgebra(4, q)
            start = time.process_time()
            alg.evaluate_many(polys, rs.expand)
            best = min(best, time.process_time() - start)
        return best

    small, large = cpu(2), cpu(4294967291)
    assert large < 5 * small, (small, large)


def test_walk_accumulators_are_reduced(monkeypatch):
    """Every left multiplication of the walk returns (d, ((L, A, B), ...))
    with d > 0, gcd(d, every A and B) = 1 and no zero term."""
    rs = RELATION_SETS["minimal-disk-m4"]()
    alg = HallAlgebra(rs.oracle_m, 2)
    seen = []
    left_mul = alg._left_mul

    def recorded(x, acc):
        out = left_mul(x, acc)
        seen.append(out)
        return out

    monkeypatch.setattr(alg, "_left_mul", recorded)
    alg.evaluate_many(sides(rs))
    assert len(seen) > 100
    for d, terms in seen:
        assert all(a or b for _L, a, b in terms)
        assert is_reduced(d, [v for _L, a, b in terms for v in (a, b)])
    assert_cache_reduced(alg)


def test_single_term_left_mul_is_the_cached_product(monkeypatch):
    """[X] * u_Y is the cached product tuple itself, with no sum; a term
    with another coefficient, or a second term, is summed by ``_combine``."""
    alg = HallAlgebra(3, 2)
    combined = []
    combine = alg._combine
    monkeypatch.setattr(alg, "_combine", lambda d, parts: combined.append(d) or combine(d, parts))
    x, y, z = (hall_oracle.class_id(alg, DerivedObject.simple(i, n))
               for i, n in ((1, 0), (2, 0), (1, 1)))
    out = alg._left_mul(x, (1, ((y, 1, 0),)))
    assert out is alg._product_cache[x, y] and out is alg._basis_product(x, y)
    assert combined == []
    assert alg._left_mul(x, (2, ((y, 1, 0),))) == combine(2, [(1, 0, out)])
    assert alg._left_mul(x, (1, ((y, 0, 1),))) == combine(1, [(0, 1, out)])
    both = alg._left_mul(x, (1, ((y, 1, 0), (z, 1, 0))))
    assert both == combine(1, [(1, 0, out), (1, 0, alg._basis_product(x, z))])
    assert len(combined) == 3


# -- random polynomials and elements ----------------------------------------

GENERATORS = [Generator("z", i, n) for i in (1, 2) for n in (-1, 0, 1)]

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=6)
coefficients = st.one_of(
    st.integers(-5, 5).map(RationalFunctionV.from_rational),
    rationals.map(RationalFunctionV.from_rational),
    # Laurent and non-Laurent Q(v) coefficients, none with a pole at sqrt(q)
    st.sampled_from([V, -(V ** -3), SELF_EXT, (V + 2) / (V ** 2 + ONE),
                     (V ** 2 - ONE) / (V + 3), Fraction(-3, 4) * (V - V ** -1)]),
)
words = st.lists(st.sampled_from(GENERATORS), max_size=4).map(tuple)
polynomials = st.dictionaries(words, coefficients, max_size=6).map(NCPolynomial)

objects = st.lists(st.tuples(st.integers(1, 2), st.integers(0, 1), st.integers(-1, 1)),
                   max_size=2).map(
    lambda parts: DerivedObject.of([(a, a + 1 + k, n) if a + 1 + k <= 3 else (a, 3, n)
                                    for a, k, n in parts]))


def elements(q, objects=objects):
    return st.dictionaries(objects, st.tuples(rationals, rationals), max_size=3).map(
        lambda terms: HallElement(q, {X: QuadraticScalar(q, a, b)
                                      for X, (a, b) in terms.items()}))


#: the summands of ``objects``, and those one shift higher
SUMMANDS = [(a, b, n) for a in (1, 2) for b in range(a + 1, 4) for n in range(-1, 3)]
#: summand s -> the summands t with Hom(t[-1], s) != 0: t = s[1] and the
#: t with Hom(t, s) != 0 or Ext^1(t, s) != 0
PARTNERS = {s: [t for t in SUMMANDS if ALGEBRAS[2].category.dhom_dims(
    DerivedObject(((t[0], t[1], t[2] - 1),)), DerivedObject((s,))).get(0)] for s in SUMMANDS}


def partners(x):
    """Objects Y (0 included) whose summands each have a nonzero Hom(t[-1], s)
    to a summand s of a term of x, or any object when x has no summand."""
    near = sorted({t for X in x.terms for s in X.summands for t in PARTNERS[s]})
    if not near:
        return objects
    return st.lists(st.sampled_from(near), max_size=2).map(DerivedObject.of)


@settings(max_examples=60, deadline=None)
@given(q=st.sampled_from(QS), polys=st.lists(polynomials, min_size=1, max_size=3))
def test_random_polynomials_match_per_word_oracle(q, polys):
    alg = ALGEBRAS[q]
    values = alg.evaluate_many(polys)
    assert values == [hall_oracle.evaluate(alg, p) for p in polys]


@settings(max_examples=60, deadline=None)
@given(data=st.data(), q=st.sampled_from(QS))
def test_random_products_match_oracle_loop(data, q):
    """The right factor's terms are drawn near the left factor's, so most
    basis products have a nonzero sweep Hom(Y[-1], X)."""
    alg = ALGEBRAS[q]
    x = data.draw(elements(q))
    y = data.draw(elements(q, partners(x)))
    assert alg.hall_product(x, y) == hall_oracle.hall_product(alg, x, y)


def test_empty_word_and_zero_polynomial():
    alg = ALGEBRAS[2]
    unit = HallElement.unit(2)
    values = alg.evaluate_many([NCPolynomial.scalar(SELF_EXT), NCPolynomial.zero(),
                                NCPolynomial.one()])
    # SELF_EXT = v^-1/(v^2 - 1) at v = sqrt(2) is sqrt(2)/2
    assert values == [unit.scale(QuadraticScalar(2, 0, Fraction(1, 2))),
                      HallElement.zero(2), unit]


def test_shared_suffix_is_multiplied_once(monkeypatch):
    """z1*z2*z1 and z2*z2*z1 share the suffix z2*z1: four left
    multiplications, not six."""
    alg = HallAlgebra(3, 2)
    calls = []
    left_mul = alg._left_mul
    monkeypatch.setattr(alg, "_left_mul", lambda x, acc: calls.append(x) or left_mul(x, acc))
    z = [Generator("z", i, 0) for i in (1, 2)]
    polys = [NCPolynomial.word((z[0], z[1], z[0])), NCPolynomial.word((z[1], z[1], z[0]))]
    values = alg.evaluate_many(polys)
    assert len(calls) == 4
    assert values == [hall_oracle.evaluate(alg, p) for p in polys]


def test_each_image_is_compiled_once(monkeypatch):
    """A relation set names each generator many times; ``evaluate_many``
    expands and compiles the image of each distinct generator once, and
    still gets the expand-first oracle's values."""
    rs = EXPANDED_SETS["minimal-disk-m5"]()
    alg = HallAlgebra(rs.oracle_m, 2)
    compiled, expanded = [], []
    program = alg._program
    monkeypatch.setattr(alg, "_program",
                        lambda image, *args: compiled.append(image) or program(image, *args))
    polys = [p for r in rs.relations for p in (r.lhs, r.rhs)]
    occurrences = [g for p in polys for word in p.terms for g in word]
    values = alg.evaluate_many(polys, lambda g: expanded.append(g) or rs.expand(g))
    assert len(expanded) == len(set(expanded)) == len(compiled) == len(set(occurrences))
    assert len(occurrences) > 2 * len(compiled)
    assert values == hall_oracle.evaluate_expanded(alg, polys, rs.expand)


def set_values(alg, rs):
    return alg.evaluate_many([p for r in rs.relations for p in (r.lhs, r.rhs)], rs.expand)


@pytest.mark.parametrize("q", [2, 3])
def test_walk_memo_is_keyed_by_image_not_by_symbol(q):
    """The walk memo lives on the algebra, across ``evaluate_many`` calls.
    Two relation sets with the same relations give E1 and E2 different
    images; on one algebra, in either order, each set's values are its
    values on a fresh algebra.  A memo keyed by the generator symbols
    would hand the second set the first set's prefixes."""
    E1, E2 = egen(1, 0), egen(2, 0)
    relations = (Relation("r1", E1 * E2 * E1, E2.scale(V)),
                 Relation("r2", E1 * E1 + E2, E2 * E1))
    images = [{1: zgen(1, 0), 2: zgen(2, 0)},
              {1: zgen(2, 0) * zgen(1, 0), 2: zgen(1, 1)}]
    sets = [RelationSet(f"images-{i}", relations, 3, lambda g, img=img: img[g.index])
            for i, img in enumerate(images)]
    fresh = [set_values(HallAlgebra(3, q), rs) for rs in sets]
    assert fresh[0] != fresh[1]
    for order in ((0, 1), (1, 0)):
        alg = HallAlgebra(3, q)
        for i in order:
            assert set_values(alg, sets[i]) == fresh[i], order


def test_cyclic_family_reuses_the_minimal_walk():
    """A cyclic family rotates the minimal presentation's relations, so on
    the minimal set's algebra it applies fewer new images than on a fresh
    one, and a set evaluated again applies none."""
    disk = MarkedDisk(FoliationData(5, (1, 0, 1, 0, 1)))
    minimal, family = minimal_disk_relations(disk, (0, 1)), cyclic_family(disk, 1)
    alone = HallAlgebra(5, 2)
    expected = set_values(alone, family)
    alg = HallAlgebra(5, 2)
    set_values(alg, minimal)
    before = len(alg._walk)
    assert set_values(alg, family) == expected
    assert len(alg._walk) - before < len(alone._walk)
    before = len(alg._walk)
    set_values(alg, family)
    set_values(alg, minimal)
    assert len(alg._walk) == before
