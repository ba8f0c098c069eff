"""Disk combinatorics: foliation data, gluing, chord crossings, skein emitters."""

import itertools

import pytest

from diskhall.freealg import NCPolynomial, zarc
from diskhall.presentation import naive_presentation
from diskhall.scalar import ONE, V
from diskhall.surface import (DISJOINT, EQUAL, INTERLEAVED, SHARED, FoliationData,
                              GluingSpec, GradedChord, MarkedDisk, SurfaceConfig,
                              angle, boundary_skein, crossing, glue,
                              load_config, normalized_gluing,
                              self_skein, skein_commutator, span, standard_form)


def test_foliation_validation():
    FoliationData(4, (0, 1, 0, 1))
    with pytest.raises(ValueError):
        FoliationData(4, (1, 1, 1, 1))  # sum must be m - 2
    with pytest.raises(ValueError):
        FoliationData(3, (1, 0))
    with pytest.raises(ValueError):
        FoliationData(1, (0,))


def test_foliation_cyclic_access_and_rotation():
    e = FoliationData(4, (0, 1, 0, 1))
    assert e.at(5) == e.at(1) == 0
    assert e.at(0) == e.at(4) == 1


def test_angle_telescopes():
    e = FoliationData(5, (1, 0, 1, 0, 1))
    assert angle(1, e) == 0
    for k in range(2, 6):
        assert angle(k, e) - angle(k - 1, e) == 1 - e.at(k - 1)


def test_span_complement():
    e = FoliationData(5, (1, 0, 1, 0, 1))
    for j in range(1, 6):
        assert span(j, j, e) == 0
        for k in range(1, 6):
            if j != k:
                assert span(j, k, e) + span(k, j, e) == 2


def test_standard_form():
    disk = standard_form()
    assert disk.m == 4
    assert disk.foliation.h == (0, 1, 0, 1)


def test_glue_two_triangles_is_square():
    """e(n-1) + f(n-1) on the seam: two (1,0,0)-triangles give a 4-gon."""
    t1 = MarkedDisk(FoliationData(3, (1, 0, 0)))
    t2 = MarkedDisk(FoliationData(3, (1, 0, 0)))
    spec = GluingSpec(t1, 3, t2, 1)
    e_rot, f_rot, glued = normalized_gluing(spec)
    assert glued.m == 4
    assert sum(glued.foliation.h) == 2
    # seam intervals add: g(n-1) = e(n-1) + f(n-1), g(m) = e(n) + f(n+m2-2)
    n = 3
    assert glued.foliation.at(n - 1) == e_rot.at(n - 1) + f_rot[n - 1]
    assert glued.foliation.at(4) == e_rot.at(n) + f_rot[n + t2.m - 2]
    assert glue(spec).family == "G"


def test_glue_preserves_weight_sum():
    for la in range(1, 4):
        for ra in range(1, 5):
            spec = GluingSpec(MarkedDisk(FoliationData(3, (0, 1, 0))), la,
                              MarkedDisk(FoliationData(4, (1, 0, 1, 0))), ra)
            g = glue(spec)
            assert g.m == 5 and sum(g.foliation.h) == 3


def test_crossing_classification():
    assert crossing(GradedChord(1, 3), GradedChord(2, 4)) == INTERLEAVED
    assert crossing(GradedChord(1, 3), GradedChord(3, 5)) == SHARED
    assert crossing(GradedChord(1, 2), GradedChord(3, 4)) == DISJOINT
    assert crossing(GradedChord(1, 4), GradedChord(2, 3)) == DISJOINT  # nested
    assert crossing(GradedChord(1, 3, 2), GradedChord(1, 3)) == EQUAL


def test_skein_commutator_shapes():
    x, y = GradedChord(1, 3, 0), GradedChord(2, 4, 0)
    r = skein_commutator(x, y)
    assert r.rhs == (zarc(1, 4, 0) * zarc(2, 3, 0)).scale(V - V ** -1)
    r1 = skein_commutator(GradedChord(1, 3, 1), GradedChord(2, 4, 0))
    assert r1.rhs == (zarc(1, 2, 1) * zarc(3, 4, 0)).scale(V ** -1 - V)
    for k in (-2, -1, 2, 3):
        rk = skein_commutator(GradedChord(1, 3, k), GradedChord(2, 4, 0))
        assert rk.rhs.is_zero()
    with pytest.raises(ValueError):
        skein_commutator(GradedChord(1, 2), GradedChord(3, 4))


def test_skein_commutator_antisymmetry():
    a = skein_commutator(GradedChord(1, 3, 0), GradedChord(2, 4, 0))
    b = skein_commutator(GradedChord(2, 4, 0), GradedChord(1, 3, 0))
    assert a.lhs == -b.lhs and a.rhs == -b.rhs


def test_boundary_skein_resolution_cases():
    # finger: (2,3) after (1,2) resolves at shift difference 0
    r = boundary_skein(GradedChord(2, 3, 0), GradedChord(1, 2, 0))
    assert r.rhs == zarc(1, 3, 0)
    # shared top interval resolves at shift difference 1
    r = boundary_skein(GradedChord(1, 4, 1), GradedChord(2, 4, 0))
    assert r.rhs == zarc(1, 2, 1)
    # shared bottom interval
    r = boundary_skein(GradedChord(1, 2, 1), GradedChord(1, 3, 0))
    assert r.rhs == zarc(2, 3, 0)
    # away from the canonical shift the bracket is a pure q-commutator
    r = boundary_skein(GradedChord(2, 3, 2), GradedChord(1, 2, 0))
    assert r.rhs.is_zero()


HEXAGON_CHORDS = [(a, b) for a in range(1, 7) for b in range(a + 1, 7)]


def _reversed_pairs(kind):
    """Every ordered pair (x, y) of graded hexagon chords meeting as ``kind``,
    at shifts -2..2."""
    for (a, b), (c, d) in itertools.product(HEXAGON_CHORDS, repeat=2):
        if crossing(GradedChord(a, b), GradedChord(c, d)) != kind:
            continue
        for s, t in itertools.product(range(-2, 3), repeat=2):
            yield GradedChord(a, b, s), GradedChord(c, d, t)


def _check_reversed(emit, kind):
    """The reversed identity is the canonical one for (y, x), scaled.

    f is read off the canonical relation y*x - f*x*y = R as minus the
    coefficient of the word x*y in its lhs, as the emitters once derived
    it; the reversed relation must be [x, y]_{f^-1} = -f^{-1} R."""
    count = 0
    for x, y in _reversed_pairs(kind):
        rev = emit(x, y)
        if not rev.label.endswith("(reversed)"):
            continue
        fwd = emit(y, x)
        (word,) = (x.element() * y.element()).terms
        finv = (-fwd.lhs.terms[word]).inverse()
        assert rev.lhs == fwd.lhs.scale(-finv), rev.label
        assert rev.rhs == fwd.rhs.scale(-finv), rev.label
        count += 1
    return count


def test_boundary_skein_reversed_is_consistent():
    assert _check_reversed(boundary_skein, SHARED) == 1500


def test_self_skein():
    x = GradedChord(1, 3, 0)
    r0 = self_skein(x, GradedChord(1, 3, 0))
    assert r0.rhs.is_zero()
    r1 = self_skein(x, GradedChord(1, 3, 1))
    assert r1.rhs == NCPolynomial.scalar(V ** -1 / (V ** 2 - ONE))
    r2 = self_skein(x, GradedChord(1, 3, 2))
    assert r2.rhs.is_zero()
    # negative differences come from inverting the positive relation
    rm = self_skein(x, GradedChord(1, 3, -2))
    assert rm.rhs.is_zero()
    assert _check_reversed(self_skein, EQUAL) == 150


def test_config_validation_and_loading():
    cfg = load_config({"disks": [{"m": 3, "h": [1, 0, 0]}, {"m": 3, "h": [0, 1, 0]}],
                       "gluings": [{"left": 0, "arc_i": 1, "right": 1, "arc_j": 2}]})
    assert len(cfg.disks) == 2 and cfg.disks[1].family == "F"
    with pytest.raises(ValueError):
        load_config({"disks": []})
    with pytest.raises(ValueError):
        load_config({"disks": [{"m": 3, "h": [1, 0, 0]}],
                     "gluings": [{"left": 0, "arc_i": 1, "right": 0, "arc_j": 1}]})
    with pytest.raises(ValueError):  # same arc glued twice
        load_config({"disks": [{"m": 3, "h": [1, 0, 0]}, {"m": 3, "h": [1, 0, 0]},
                               {"m": 3, "h": [1, 0, 0]}],
                     "gluings": [{"left": 0, "arc_i": 1, "right": 1, "arc_j": 1},
                                 {"left": 0, "arc_i": 1, "right": 2, "arc_j": 1}]})


def test_disks_sharing_a_family_rejected():
    """Two disks of one family would merge their generators, so the glued
    presentation would be checked on the wrong algebra."""
    t = MarkedDisk(FoliationData(3, (1, 0, 0)))
    cfg = SurfaceConfig((t, t), ((0, 3, 1, 1),))
    with pytest.raises(ValueError, match="family"):
        cfg.validate()
    with pytest.raises(ValueError, match="family"):
        naive_presentation(cfg, (0, 0))
    u = MarkedDisk(FoliationData(3, (1, 0, 0)), family="F")
    SurfaceConfig((t, u), ((0, 3, 1, 1),)).validate()


def test_closed_boundary_component_rejected():
    # gluing two bigons along both arcs closes the boundary circle
    with pytest.raises(ValueError, match="closed boundary"):
        load_config({"disks": [{"m": 2, "h": [0, 0]}, {"m": 2, "h": [0, 0]}],
                     "gluings": [{"left": 0, "arc_i": 1, "right": 1, "arc_j": 1},
                                 {"left": 0, "arc_i": 2, "right": 1, "arc_j": 2}]})


def test_enough_marked_intervals_detection():
    # gluing two triangles along two seams merges marked intervals of each disk
    folded = load_config({"disks": [{"m": 3, "h": [1, 0, 0]}, {"m": 3, "h": [1, 0, 0]}],
                          "gluings": [{"left": 0, "arc_i": 1, "right": 1, "arc_j": 1},
                                      {"left": 0, "arc_i": 2, "right": 1, "arc_j": 2}]})
    assert not folded.has_enough_marked_intervals()
    simple = load_config({"disks": [{"m": 3, "h": [1, 0, 0]}]})
    assert simple.has_enough_marked_intervals()
