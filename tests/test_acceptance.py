"""Acceptance gate: the eleven end-to-end checks, one per test.

Each test prints a single PASS line on success (run with -v to get one
status line per criterion from pytest itself).  Several checks carry an
explicit wall-clock budget which is asserted as part of the test.
"""

import random
import time
from fractions import Fraction

import bruteforce
import hall_oracle
from diskhall.freealg import (Generator, NCPolynomial, q_bracket, zab, zgen)
from diskhall.hall import HallAlgebra, HallElement
from diskhall.presentation import (SELF_EXT, alpha_map, beta_map, cyclic_family,
                                   local_skein_relations, minimal_disk_relations,
                                   naive_presentation, pbw_normal_form,
                                   pbw_relations, phi_map, psi_map,
                                   quiver_relations, s_relations, shared_algebra,
                                   verify_relation_set)
from diskhall.repq import DerivedCategory, DerivedObject, FiniteField
from diskhall.scalar import ONE, V, QuadraticScalar, evaluate_at
from diskhall.surface import (FoliationData, GluingSpec, GradedChord, MarkedDisk,
                              glue, skein_commutator)

from rep_oracle import barcode, direct_sum, interval_rep, zero_rep
from test_repq import base_change, random_invertible, random_rep


def ok(n, message):
    print(f"criterion {n}: PASS - {message}")


def failures(report):
    return [r["label"] for r in report["results"] if not r["passed"]]


def test_criterion_01_base_case_coefficients():
    """[S]*[S[1]] minus the twisted reverse leaves 1/6 resp. 1/24 of [0]."""
    t0 = time.time()
    for presentation_q, field in ((2, 4), (3, 9)):
        alg = HallAlgebra(2, field)
        S = HallElement.basis(field, DerivedObject.simple(1))
        S1 = HallElement.basis(field, DerivedObject.simple(1, 1))
        lhs = alg.hall_product(S, S1) - alg.hall_product(S1, S).scale(
            Fraction(1, presentation_q ** 2))
        expected = Fraction(1, presentation_q * (presentation_q ** 2 - 1))
        assert lhs.terms == {DerivedObject.zero(): QuadraticScalar(field, expected)}
        assert expected in (Fraction(1, 6), Fraction(1, 24))
    # same identity in v-form over the prime fields themselves
    for q in (2, 3):
        alg = HallAlgebra(2, q)
        res = alg.verify_identity(
            q_bracket(zgen(1, 0), zgen(1, 1), V ** -2), NCPolynomial.scalar(SELF_EXT))
        assert res["passed"], res
    elapsed = time.time() - t0
    assert elapsed < 1.0, f"budget exceeded: {elapsed:.2f}s"
    ok(1, f"base-case coefficients 1/6 and 1/24 exact ({elapsed:.2f}s)")


def test_criterion_02_quiver_suite():
    t0 = time.time()
    total = 0
    for m in (2, 3, 4):
        rep = verify_relation_set(quiver_relations(m, (-1, 2)), (2, 3))
        assert rep["passed"], failures(rep)
        total += rep["total"]
    elapsed = time.time() - t0
    assert elapsed < 120, f"budget exceeded: {elapsed:.1f}s"
    ok(2, f"{total} quiver relations hold for m in 2..4, q in {{2,3}} ({elapsed:.1f}s)")


def test_criterion_03_arc_suite():
    t0 = time.time()
    total = 0
    for m in (4, 5):
        rep = verify_relation_set(s_relations(m, (-1, 2)), (2,))
        assert rep["passed"], failures(rep)
        total += rep["total"]
    elapsed = time.time() - t0
    assert elapsed < 300, f"budget exceeded: {elapsed:.1f}s"
    ok(3, f"{total} arc relations (S0-S4) hold for m in {{4,5}} ({elapsed:.1f}s)")


def test_criterion_04_interleaved_skein():
    count = 0
    for q in (2, 3):
        alg = shared_algebra(5, q)
        for a in range(1, 6):
            for b in range(a + 1, 6):
                for c in range(b + 1, 6):
                    for d in range(c + 1, 6):
                        for k in range(-2, 4):
                            r = skein_commutator(GradedChord(a, c, k),
                                                 GradedChord(b, d, 0))
                            res = alg.verify_identity(
                                _expand5(r.lhs), _expand5(r.rhs), r.label)
                            assert res["passed"], (q, r.label, res["diff"])
                            count += 1
    ok(4, f"{count} interleaved skein identities incl. zero cases at |k| >= 2")


def _expand5(p):
    def image(g):
        if g.family == "z" and isinstance(g.index, tuple):
            return zab(g.index[0], g.index[1], g.shift, 5)
        return NCPolynomial.generator(g)
    return p.substitute(image)


DISK_SHAPES = [(3, (1, 0, 0)), (3, (0, 1, 0)), (4, (0, 1, 0, 1)),
               (5, (1, 0, 1, 0, 1)), (5, (0, 0, 1, 1, 1))]


def test_criterion_05_minimal_disks():
    total = 0
    for m, h in DISK_SHAPES:
        disk = MarkedDisk(FoliationData(m, h))
        rep = verify_relation_set(minimal_disk_relations(disk, (-1, 1)), (2,))
        assert rep["passed"], (h, failures(rep))
        total += rep["total"]
        for i in range(1, m + 1):
            ladder = verify_relation_set(cyclic_family(disk, i), (2,))
            assert ladder["passed"], (h, i, failures(ladder))
            total += ladder["total"]
        # the generator dictionaries compose to the identity both ways
        psi, phi = psi_map(disk), phi_map(disk)
        for i in range(1, m):
            for n in (-1, 0, 1):
                e = NCPolynomial.generator(Generator("E", i, n))
                z = NCPolynomial.generator(Generator("z", i, n))
                assert e.substitute(psi).substitute(phi) == e
                assert z.substitute(phi).substitute(psi) == z
    ok(5, f"{total} minimal-disk identities pass; phi/psi mutually inverse")


def test_criterion_06_local_skein():
    rep = verify_relation_set(local_skein_relations((-2, 3)), (2,))
    assert rep["passed"], failures(rep)
    assert rep["total"] == 6
    ok(6, "local skein on (0,1,0,1): both delta branches and zeros, l in -2..3")


# the two triangles of criterion 07, glued along arcs (3, 1)
GLUED = {"disks": [{"m": 3, "h": [1, 0, 0]}] * 2,
         "gluings": [{"left": 0, "arc_i": 3, "right": 1, "arc_j": 1}]}


def test_criterion_07_gluing_and_pentagon():
    t1 = MarkedDisk(FoliationData(3, (1, 0, 0)))
    t2 = MarkedDisk(FoliationData(3, (1, 0, 0)))
    spec = GluingSpec(t1, 3, t2, 1)
    square = glue(spec)
    assert square.m == 4 and sum(square.foliation.h) == 2

    # alpha and beta invert each other on generators
    alpha, beta = alpha_map(spec), beta_map(spec)
    for i in range(1, 5):
        for s in (-1, 0, 1):
            g = NCPolynomial.generator(Generator("G", i, s))
            assert g.substitute(alpha).substitute(beta) == g
    for fam, rng in (("E", range(1, 3)), ("F", range(3, 5))):
        for i in rng:
            g = NCPolynomial.generator(Generator(fam, i, 0))
            assert g.substitute(beta).substitute(alpha) == g

    # beta-images of both triangles' relations and the seam identity
    rep = verify_relation_set(naive_presentation(GLUED, (-1, 1)), (2,))
    assert rep["passed"], failures(rep)
    psi_g = psi_map(square)
    alg = shared_algebra(4, 2)
    seam = alg.verify_identity(
        beta_map(spec)(Generator("E", 3, 1)).substitute(psi_g),
        beta_map(spec)(Generator("F", 2, 1)).substitute(psi_g))
    assert seam["passed"], seam

    # pentagon: three triangles glued in the two association orders
    ta, tb, tc = (MarkedDisk(FoliationData(3, h))
                  for h in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    sq_ab = glue(GluingSpec(ta, 3, tb, 1))
    pent_a = glue(GluingSpec(MarkedDisk(sq_ab.foliation), 4, tc, 1))
    sq_bc = glue(GluingSpec(tb, 3, tc, 1))
    pent_b = glue(GluingSpec(ta, 3, MarkedDisk(sq_bc.foliation), 1))
    assert pent_a.foliation.h == pent_b.foliation.h
    ra = minimal_disk_relations(pent_a, (0, 1))
    rb = minimal_disk_relations(pent_b, (0, 1))
    assert [(r.label, str(r.lhs), str(r.rhs)) for r in ra.relations] \
        == [(r.label, str(r.lhs), str(r.rhs)) for r in rb.relations]
    ok(7, f"{rep['total']} glued-square identities pass; pentagon orders agree")


def test_criterion_08_pbw():
    rep = verify_relation_set(pbw_relations(4), (2, 3))
    assert rep["passed"], failures(rep)

    pairs = [(1, 2), (2, 3), (1, 3)]
    alg = shared_algebra(3, 2)

    def expand(p):
        def image(g):
            i, j = g.index
            return zab(i, j, g.shift, 3)
        return p.substitute(image)

    def leftmost_nf(word):
        # independent rewriting strategy: always resolve the leftmost inversion
        queue = [(w, c) for w, c in word.terms.items()]
        out = NCPolynomial.zero()
        while queue:
            w, c = queue.pop()
            pos = next((i for i in range(len(w) - 1)
                        if w[i].index > w[i + 1].index), -1)
            if pos < 0:
                out = out + NCPolynomial.word(w, c)
                continue
            pair = pbw_normal_form(NCPolynomial.word((w[pos], w[pos + 1])))
            for w2, c2 in pair.terms.items():
                queue.append((w[:pos] + w2 + w[pos + 2:], c * c2))
        return out

    checked = 0
    words = [[p] for p in pairs]
    words += [[p, r] for p in pairs for r in pairs]
    words += [[p, r, s] for p in pairs for r in pairs for s in pairs]
    for idx in words:
        word = NCPolynomial.word([Generator("F", ij, 0) for ij in idx])
        nf = pbw_normal_form(word)
        for w in nf.terms:  # sortedness
            assert list(w) == sorted(w, key=lambda g: g.index)
        assert nf == leftmost_nf(word)  # order-independence
        assert alg.evaluate(expand(word)) == alg.evaluate(expand(nf))  # oracle-faithfulness
        checked += 1
    ok(8, f"(Ls a-f) hold at q in {{2,3}}; normal form confluent on "
          f"{checked} words")


def test_criterion_09_oracle_integrity():
    rng = random.Random(2024)
    algs = {m: shared_algebra(m, 2) for m in (2, 3, 4)}

    def random_object(m):
        out = []
        for _ in range(rng.randint(1, 2)):
            a = rng.randint(1, m - 1)
            b = rng.randint(a + 1, m)
            out.append((a, b, rng.randint(-1, 1)))
        return DerivedObject.of(out)

    for _ in range(200):
        m = rng.choice((2, 3, 4))
        alg = algs[m]
        X, Y, Z = (random_object(m) for _ in range(3))
        ex, ey, ez = (HallElement.basis(2, o) for o in (X, Y, Z))
        left = alg.hall_product(alg.hall_product(ex, ey), ez)
        right = alg.hall_product(ex, alg.hall_product(ey, ez))
        assert left == right, (X, Y, Z)
        prod = alg.hall_product(ex, ey)
        want = tuple(a + b for a, b in zip(hall_oracle.class_vector(X, m),
                                           hall_oracle.class_vector(Y, m)))
        for L in prod.terms:
            assert hall_oracle.class_vector(L, m) == want

    for q in (2, 3):
        F = FiniteField(q)
        for _ in range(250):
            M = random_rep(F, 4, rng)
            bars = barcode(M)
            N = direct_sum([interval_rep(F, 4, a, b) for a, b in bars]) \
                if bars else zero_rep(F, 4)
            assert barcode(N) == bars
            gs = [random_invertible(F, d, rng) for d in M.dims]
            assert barcode(base_change(M, gs)) == bars

    cat = DerivedCategory(4, 2)
    for i in range(1, 4):
        for j in range(1, 4):
            S_i, S_j = DerivedObject.simple(i), DerivedObject.simple(j)
            sym = hall_oracle.euler_form(cat, S_i, S_j) + hall_oracle.euler_form(cat, S_j, S_i)
            assert sym == (2 if i == j else -1 if abs(i - j) == 1 else 0)
    ok(9, "associativity x200, K0 additivity, barcode x500, Euler=Cartan")


def test_criterion_10_symbolic_identities():
    rng = random.Random(7)
    params = [ONE, V, V ** -1, V ** 2, V ** -2, 2 * V, (V + ONE) / V, V ** 3]

    def random_poly():
        out = NCPolynomial.zero()
        for _ in range(rng.randint(1, 3)):
            w = [Generator("z", rng.randint(1, 3), rng.randint(-2, 2))
                 for _ in range(rng.randint(0, 3))]
            out = out + NCPolynomial.word(w, rng.choice(params)
                                          * Fraction(rng.randint(1, 5)))
        return out

    for _ in range(100):
        x, y, z = (random_poly() for _ in range(3))
        a, b, c = (rng.choice(params) for _ in range(3))
        assert q_bracket(x, y, a) == -(q_bracket(y, x, a.inverse()).scale(a))
        total = (q_bracket(x, q_bracket(y, z, a * c), a * b)
                 + q_bracket(z, q_bracket(x, y, a * b * c), a.inverse()).scale(a)
                 + q_bracket(y, q_bracket(z, x, c), b.inverse()).scale(a * b))
        assert total.is_zero()
    ok(10, "q-antisymmetry and omni-Jacobi exact on 100 random elements")


def test_criterion_11_frozen_square_fixture():
    """The 3*sqrt(2) product, pinned by the standalone enumeration oracle."""
    frozen = bruteforce.hall_product({0: 1}, {0: 1}, 2)
    assert frozen == {((0, 2),): (Fraction(3), 1)}
    alg = HallAlgebra(2, 2)
    S = HallElement.basis(2, DerivedObject.simple(1))
    prod = alg.hall_product(S, S)
    SS = DerivedObject.of([(1, 2, 0), (1, 2, 0)])
    coeff = prod.terms[SS]
    assert (coeff.a, coeff.b) == (0, 3)
    assert len(prod.terms) == 1
    ok(11, "[S]*[S] = 3*sqrt(2)*[S+S] matches the brute-force enumeration")
