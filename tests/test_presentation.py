"""Relation families, the disk/quiver dictionary, gluing maps, PBW rewriting."""

import warnings

import pytest

from diskhall.freealg import Generator, NCPolynomial, Relation, q_bracket, zab, zgen
from diskhall.presentation import (RelationSet, alpha_map, beta_map, cyclic_family,
                                   minimal_disk_relations, naive_presentation,
                                   pbw_normal_form, pbw_relations, phi_map,
                                   psi_map, quiver_relations, s_relations,
                                   shared_algebra, verify_relation_set)
from diskhall.scalar import V
from diskhall.surface import FoliationData, GluingSpec, MarkedDisk, standard_form


def test_relation_set_rejects_duplicate_labels():
    r = Relation("dup", zgen(1, 0), NCPolynomial.zero())
    with pytest.raises(ValueError, match="duplicate"):
        RelationSet("bad", (r, r))


def test_emission_only_set_cannot_be_verified():
    r = Relation("r", zgen(1, 0), zgen(1, 0))
    rs = RelationSet("emit", (r,))
    assert not rs.verifiable
    with pytest.raises(ValueError, match="emission-only"):
        verify_relation_set(rs)


def test_to_dict_shape():
    rs = quiver_relations(2, (0, 1))
    d = rs.to_dict()
    assert d["name"] == rs.name and d["verifiable"]
    assert all({"label", "lhs", "rhs"} <= set(row) for row in d["relations"])


def test_quiver_relations_verify_small():
    rep = verify_relation_set(quiver_relations(2, (-1, 1)), (2,))
    assert rep["passed"] and rep["failed"] == 0
    assert rep["total"] == len(quiver_relations(2, (-1, 1)).relations)


def test_s_relations_verify_small():
    rep = verify_relation_set(s_relations(3, (0, 1)), (2,))
    assert rep["passed"], [r["label"] for r in rep["results"] if not r["passed"]]


def test_verify_report_is_deterministic():
    rs = quiver_relations(2, (0, 1))
    assert verify_relation_set(rs, (2,)) == verify_relation_set(rs, (2,))


# -- psi / phi ---------------------------------------------------------------

def test_psi_phi_mutually_inverse_on_generators():
    for h in [(1, 0, 0), (0, 1, 0), (0, 1, 0, 1), (1, 0, 1, 0, 1)]:
        disk = MarkedDisk(FoliationData(len(h), h))
        psi, phi = psi_map(disk), phi_map(disk)
        for i in range(1, disk.m):
            for n in (-1, 0, 2):
                g = Generator("E", i, n)
                assert NCPolynomial.generator(g).substitute(psi).substitute(phi) \
                    == NCPolynomial.generator(g)
                z = Generator("z", i, n)
                assert NCPolynomial.generator(z).substitute(phi).substitute(psi) \
                    == NCPolynomial.generator(z)


def test_psi_of_last_arc_is_long_bracket():
    disk = standard_form()
    psi = psi_map(disk)
    img = psi(Generator("E", 4, 0))
    assert img == zab(1, 4, -disk.foliation.at(4), 4)


def test_minimal_disk_verifies_at_q2():
    disk = MarkedDisk(FoliationData(3, (1, 0, 0)))
    rep = verify_relation_set(minimal_disk_relations(disk, (-1, 1)), (2,))
    assert rep["passed"], [r["label"] for r in rep["results"] if not r["passed"]]


def test_cyclic_family_structure():
    disk = standard_form()
    for i in (1, 3):
        fam = cyclic_family(disk, i)
        assert len(fam.relations) == disk.m - 1
        rep = verify_relation_set(fam, (2,))
        assert rep["passed"]


# -- gluing maps -------------------------------------------------------------

def _triangle_spec():
    return GluingSpec(MarkedDisk(FoliationData(3, (1, 0, 0))), 3,
                      MarkedDisk(FoliationData(3, (1, 0, 0))), 1)


def test_alpha_beta_inverse_on_generators():
    spec = _triangle_spec()
    alpha, beta = alpha_map(spec), beta_map(spec)
    n, big = spec.left.m, spec.left.m + spec.right.m - 2
    # beta . alpha is the identity on every glued-disk generator
    for i in range(1, big + 1):
        for s in (-1, 0, 1):
            g = NCPolynomial.generator(Generator("G", i, s))
            assert g.substitute(alpha).substitute(beta) == g
    # alpha . beta is the identity on the unglued generators
    for i in range(1, n):
        g = NCPolynomial.generator(Generator("E", i, 0))
        assert g.substitute(beta).substitute(alpha) == g
    for i in range(n, big + 1):
        g = NCPolynomial.generator(Generator("F", i, 0))
        assert g.substitute(beta).substitute(alpha) == g


def test_beta_image_of_glued_arcs():
    beta = beta_map(_triangle_spec())
    img_e = beta(Generator("E", 3, 1))
    img_f = beta(Generator("F", 2, 1))
    # both are brackets purely in the glued family
    for p in (img_e, img_f):
        assert p.generators() and all(g.family == "G" for g in p.generators())


def test_gluing_set_covers_both_sides():
    rs = naive_presentation({"disks": [{"m": 3, "h": [1, 0, 0]}] * 2,
                             "gluings": [{"left": 0, "arc_i": 3, "right": 1, "arc_j": 1}]},
                            (-1, 0))
    labels = [r.label for r in rs.relations]
    assert any(l.startswith("disk0") for l in labels)
    assert any(l.startswith("disk1") for l in labels)
    assert any(l.startswith("(G1) g0") for l in labels)
    assert any(l.startswith("(G3) g0") for l in labels)
    assert rs.oracle_m == 4


def _two_disks(hl, al, hr, ar):
    return {"disks": [{"m": len(hl), "h": list(hl)}, {"m": len(hr), "h": list(hr)}],
            "gluings": [{"left": 0, "arc_i": al, "right": 1, "arc_j": ar}]}


TRIANGLE, SQUARE = (1, 0, 0), (0, 1, 0, 1)
# every arc pair of two triangles; for a triangle and the square, in both
# orders, pairs that put every arc of each side at the seam
GLUED_PAIRS = (
    [(hl, al, hr, ar) for hl in ((1, 0, 0), (0, 1, 0)) for hr in ((1, 0, 0), (0, 0, 1))
     for al in (1, 2, 3) for ar in (1, 2, 3)]
    + [(TRIANGLE, at, SQUARE, as_) for at, as_ in ((1, 1), (2, 2), (3, 3), (1, 4))]
    + [(SQUARE, as_, TRIANGLE, at) for at, as_ in ((1, 1), (2, 2), (3, 3), (1, 4))])


@pytest.mark.parametrize("hl, al, hr, ar", GLUED_PAIRS, ids=[
    f"{''.join(map(str, hl))}@{al}+{''.join(map(str, hr))}@{ar}"
    for hl, al, hr, ar in GLUED_PAIRS])
def test_naive_presentation_relabels_every_rotation(hl, al, hr, ar):
    """The raw arc labels reach beta's normal position whichever arcs are glued."""
    rs = naive_presentation(_two_disks(hl, al, hr, ar), (0, 0))
    assert rs.oracle_m == len(hl) + len(hr) - 2
    rep = verify_relation_set(rs, (2,))
    assert rep["passed"], [r["label"] for r in rep["results"] if not r["passed"]]


def test_naive_presentation_single_disk():
    rs = naive_presentation({"disks": [{"m": 3, "h": [0, 1, 0]}]}, (-1, 1))
    assert rs.verifiable
    assert verify_relation_set(rs, (2,))["passed"]


def test_naive_presentation_warns_when_intervals_collapse():
    cfg = {"disks": [{"m": 3, "h": [1, 0, 0]}, {"m": 3, "h": [1, 0, 0]}],
           "gluings": [{"left": 0, "arc_i": 1, "right": 1, "arc_j": 1},
                       {"left": 0, "arc_i": 2, "right": 1, "arc_j": 2}]}
    with pytest.warns(UserWarning, match="marked intervals"):
        naive_presentation(cfg, (0, 0))


def test_naive_presentation_three_disks_is_emission_only():
    cfg = {"disks": [{"m": 3, "h": [1, 0, 0]}] * 3,
           "gluings": [{"left": 0, "arc_i": 3, "right": 1, "arc_j": 1},
                       {"left": 1, "arc_i": 3, "right": 2, "arc_j": 1}]}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rs = naive_presentation(cfg, (0, 0))
    assert not rs.verifiable
    assert len(rs.relations) > 0


# -- PBW ---------------------------------------------------------------------

def F(i, j):
    return Generator("F", (i, j), 0)


def test_pbw_normal_form_sorts_words():
    nf = pbw_normal_form([(2, 3), (1, 2)])
    for w in nf.terms:
        assert list(w) == sorted(w, key=lambda g: g.index)


def test_pbw_normal_form_fixed_point():
    nf = pbw_normal_form([(1, 3), (1, 2), (2, 3)])
    assert pbw_normal_form(nf) == nf


def test_pbw_normal_form_matches_oracle():
    alg = shared_algebra(3, 2)

    def expand(p):
        def image(g):
            i, j = g.index
            return zab(i, j, g.shift, 3)
        return p.substitute(image)

    pairs = [(1, 2), (2, 3), (1, 3)]
    for a in pairs:
        for b in pairs:
            word = NCPolynomial.word([F(*a), F(*b)])
            nf = pbw_normal_form(word)
            assert alg.evaluate(expand(word)) == alg.evaluate(expand(nf)), (a, b)


def test_pbw_relations_small_suite():
    rep = verify_relation_set(pbw_relations(3), (2,))
    assert rep["passed"], [r["label"] for r in rep["results"] if not r["passed"]]
