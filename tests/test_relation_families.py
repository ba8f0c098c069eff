"""A digest of every relation family as polynomials, not as Hall values.

The golden report digests pin evaluated values, which a change to a
family's polynomials could leave intact.  This dump pins the families
themselves: the serialised relation sets, the three skein emitters on
every ordered chord pair of a hexagon, and the PBW normal form of every
short word.  It was recorded before the reversed skein identities were
solved from the canonical ones instead of re-derived, and before the arc
expanders were merged; a refactor of the relation layer must leave it as
it is.
"""

import hashlib
import itertools
import json

from diskhall.presentation import (chord_skein_set, cyclic_family, local_skein_relations,
                                   minimal_disk_relations, naive_presentation,
                                   pbw_normal_form, pbw_relations, quiver_relations,
                                   s_relations)
from diskhall.surface import (EQUAL, INTERLEAVED, SHARED, FoliationData, GradedChord,
                              MarkedDisk, boundary_skein, crossing, self_skein,
                              skein_commutator)

WINDOWS = [(0, 0), (-1, 1), (-2, 3)]

TRIANGLE = {"m": 3, "h": [1, 0, 0]}
CONFIGS = [
    {"disks": [TRIANGLE]},
    {"disks": [{"m": 4, "h": [0, 1, 0, 1]}, TRIANGLE],
     "gluings": [{"left": 0, "arc_i": 2, "right": 1, "arc_j": 1}]},
    {"disks": [TRIANGLE, TRIANGLE, TRIANGLE],
     "gluings": [{"left": 0, "arc_i": 3, "right": 1, "arc_j": 1},
                 {"left": 1, "arc_i": 2, "right": 2, "arc_j": 1}]},
]

EMITTERS = {INTERLEAVED: skein_commutator, SHARED: boundary_skein, EQUAL: self_skein}

DIGEST = "32c8afef269be12e02db76bdd04c84f41c2c80342e16be2dcb947d304707624c"


def _foliations(m, count=4):
    """The first ``count`` non-negative weight vectors of length m summing to
    m - 2, in lexicographic order."""
    hs = (h for h in itertools.product(range(m - 1), repeat=m) if sum(h) == m - 2)
    return [FoliationData(m, h) for h in itertools.islice(hs, count)]


def _sets():
    for window in WINDOWS:
        for m in range(2, 6):
            yield quiver_relations(m, window)
        for m in range(3, 6):
            yield s_relations(m, window)
        for m in range(3, 7):
            yield chord_skein_set(m, window)
        for m in range(3, 7):
            for e in _foliations(m):
                yield minimal_disk_relations(MarkedDisk(e), window)
        yield local_skein_relations(window)
        for config in CONFIGS:
            yield naive_presentation(config, window)
    for m in range(2, 6):
        yield pbw_relations(m)
    for m in range(3, 7):
        for e in _foliations(m):
            for i in range(1, m + 1):
                yield cyclic_family(MarkedDisk(e), i)


def dump():
    """Every relation family, one line per set, emitted relation or normal form."""
    lines = [json.dumps(rs.to_dict(), sort_keys=True) for rs in _sets()]
    chords = [(a, b) for a in range(1, 7) for b in range(a + 1, 7)]
    for (a, b), (c, d) in itertools.product(chords, repeat=2):
        emit = EMITTERS.get(crossing(GradedChord(a, b), GradedChord(c, d)))
        if emit is None:
            continue
        for s, t in itertools.product(range(-2, 3), repeat=2):
            lines.append(str(emit(GradedChord(a, b, s), GradedChord(c, d, t))))
    for m in range(2, 5):
        gens = [(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)]
        for length in range(4):
            for word in itertools.product(gens, repeat=length):
                lines.append(f"{word}: {pbw_normal_form(word)}")
    return lines


def test_relation_families_are_pinned():
    text = "\n".join(dump())
    assert hashlib.sha256(text.encode()).hexdigest() == DIGEST
