"""Relation families, the structural maps between them, and batch verification.

Each family of identities (quiver generators, arc elements, boundary-arc
generators of a marked disk, glued disks, PBW generators) is materialized
over a finite shift window as a ``RelationSet``.  A relation set that
knows how to expand its generators into quiver generators can be pushed
through the Hall-algebra oracle with ``verify_relation_set``.
"""

from __future__ import annotations

import warnings
from itertools import combinations
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from .freealg import (Generator, NCPolynomial, Relation, Value, egen, iterated_bracket,
                      q_bracket, zab, zarc, zgen)
from .hall import HallAlgebra, identity_report
from .scalar import ONE, V
from .surface import (SELF_EXT, SHARED, GluingSpec, GradedChord, MarkedDisk, SurfaceConfig,
                      angle, boundary_skein, crossing, glue, load_config, normalized_gluing,
                      self_extension, self_skein, skein_commutator, span, standard_form)

Window = Tuple[int, int]
DEFAULT_WINDOW: Window = (-2, 3)


class RelationSet(Value):
    """A named batch of labeled identities.

    ``generators`` are the (family, index) pairs its relations use.
    ``expand`` rewrites each generator as a polynomial in the quiver
    generators z_{i,n} of A_{oracle_m - 1}; sets without it (and without
    ``oracle_m``) are emission-only and cannot be verified.
    """

    __slots__ = ("name", "relations", "oracle_m", "expand")

    def __init__(self, name: str, relations: Tuple[Relation, ...],
                 oracle_m: Optional[int] = None,
                 expand: Optional[Callable[[Generator], NCPolynomial]] = None):
        labels = [r.label for r in relations]
        if len(set(labels)) != len(labels):
            dup = sorted({l for l in labels if labels.count(l) > 1})
            raise ValueError(f"duplicate relation labels: {dup[:3]}")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "relations", relations)
        object.__setattr__(self, "oracle_m", oracle_m)
        object.__setattr__(self, "expand", expand)

    @property
    def generators(self) -> Tuple[Tuple[str, object], ...]:
        return _used_generators(self.relations)

    @property
    def verifiable(self) -> bool:
        return self.oracle_m is not None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "generators": [f"{fam}[{','.join(map(str, idx)) if isinstance(idx, tuple) else idx}]"
                           for fam, idx in self.generators],
            "relations": [{"label": r.label, "lhs": str(r.lhs), "rhs": str(r.rhs)}
                          for r in self.relations],
            "verifiable": self.verifiable,
        }


def _used_generators(relations: Sequence[Relation]) -> Tuple[Tuple[str, object], ...]:
    seen = set()
    for r in relations:
        for g in list(r.lhs.generators()) + list(r.rhs.generators()):
            seen.add((g.family, g.index))
    return tuple(sorted(seen, key=lambda t: (t[0], t[1] if isinstance(t[1], tuple) else (t[1],))))


def _z_expander(m: int) -> Callable[[Generator], NCPolynomial]:
    """The expander of the quiver, arc, chord and PBW sets: an arc symbol
    X_{(a,b),n} of any family (z for arcs and chords, F for PBW generators)
    goes to zab(a, b, n, m), and a quiver generator z_{i,n} to itself."""
    def image(g: Generator) -> NCPolynomial:
        if isinstance(g.index, tuple):
            return zab(*g.index, g.shift, m)
        if g.family == "z":
            return zgen(g.index, g.shift)
        raise ValueError(f"cannot expand generator {g}")
    return image


def _cartan(i: int, j: int) -> int:
    if i == j:
        return 2
    return -1 if abs(i - j) == 1 else 0


# ---------------------------------------------------------------------------
# quiver-generator and arc-element relation families
# ---------------------------------------------------------------------------

def quiver_relations(m: int, window: Window = DEFAULT_WINDOW) -> RelationSet:
    """(H1) Serre/commutation, (H2) adjacent shifts, (H3) far shifts."""
    if m < 2:
        raise ValueError(f"need m >= 2, got {m}")
    lo, hi = window
    rels: List[Relation] = []
    verts = range(1, m)
    for n in range(lo, hi + 1):
        for i in verts:
            for j in verts:
                if i < j and _cartan(i, j) == 0:
                    rels.append(Relation(
                        f"(H1) [z{i},z{j}] n={n}",
                        q_bracket(zgen(i, n), zgen(j, n), ONE), NCPolynomial.zero()))
                if _cartan(i, j) == -1:
                    zi, zj = zgen(i, n), zgen(j, n)
                    rels.append(Relation(
                        f"(H1) Serre z{i},z{j} n={n}",
                        zi * zi * zj - (zi * zj * zi).scale(V + V ** -1) + zj * zi * zi,
                        NCPolynomial.zero()))
        if n + 1 <= hi:
            for i in verts:
                for j in verts:
                    rhs = (zgen(j, n + 1) * zgen(i, n)).scale(V ** (-_cartan(i, j)))
                    if i == j:
                        rhs = rhs + NCPolynomial.scalar(SELF_EXT)
                    rels.append(Relation(f"(H2) z{i},{n} z{j},{n + 1}",
                                         zgen(i, n) * zgen(j, n + 1), rhs))
        for k in range(2, hi - n + 1):
            for i in verts:
                for j in verts:
                    rels.append(Relation(
                        f"(H3) z{i},{n} z{j},{n + k}",
                        zgen(i, n) * zgen(j, n + k),
                        (zgen(j, n + k) * zgen(i, n)).scale(
                            V ** ((-1) ** k * _cartan(i, j)))))
    return RelationSet(f"quiver relations m={m}", tuple(rels),
                       oracle_m=m, expand=_z_expander(m))


def s_relations(m: int, window: Window = DEFAULT_WINDOW) -> RelationSet:
    """The arc-element table: finger (S0), skein (S1)/(S1'), interwoven (S2),
    distant (S3), and self-skein (S4) identities over zab elements."""
    if m < 3:
        raise ValueError(f"need m >= 3 for arc relations, got {m}")
    lo, hi = window
    rels: List[Relation] = []
    Z = zarc
    triples = list(combinations(range(1, m + 1), 3))
    quads = list(combinations(range(1, m + 1), 4))
    for n in range(lo, hi + 1):
        for a, b, c in triples:
            rels.append(Relation(f"(S0) ({a},{b},{c}) n={n}",
                                 q_bracket(Z(b, c, n), Z(a, b, n), V), Z(a, c, n)))
            if n - 1 >= lo:
                rels.append(Relation(f"(S1) ({a},{b},{c}) n={n}",
                                     q_bracket(Z(a, c, n), Z(b, c, n - 1), V), Z(a, b, n)))
            if n + 1 <= hi:
                rels.append(Relation(f"(S1') ({a},{b},{c}) n={n}",
                                     q_bracket(Z(a, b, n + 1), Z(a, c, n), V), Z(b, c, n)))
        for a, b, c, d in quads:
            if n - 1 >= lo:
                rels.append(Relation(f"(S2) ({a},{b},{c},{d}) n={n}",
                                     q_bracket(Z(a, d, n), Z(b, c, n - 1), ONE),
                                     NCPolynomial.zero()))
            for k in range(lo, hi + 1):
                rels.append(Relation(f"(S3) ({a},{b},{c},{d}) n={n} k={k}",
                                     q_bracket(Z(a, b, n), Z(c, d, k), ONE),
                                     NCPolynomial.zero()))
        for a in range(1, m + 1):
            for b in range(a + 1, m + 1):
                for k in range(1, hi - n + 1):
                    e, rhs = self_extension(k)
                    rels.append(Relation(f"(S4) ({a},{b}) n={n} k={k}",
                                         q_bracket(Z(a, b, n), Z(a, b, n + k), V ** e), rhs))
    return RelationSet(f"arc relations m={m}", tuple(rels), oracle_m=m, expand=_z_expander(m))


# ---------------------------------------------------------------------------
# marked-disk presentations and the maps phi / psi
# ---------------------------------------------------------------------------

def tau_angle(disk: MarkedDisk, i: int, k: int) -> int:
    """The twisted index tau^i<k> = sum_{j=1}^{k-1} (1 - h(i+j))."""
    return span(i + 1, i + k, disk.foliation)


def _E(disk: MarkedDisk, i: int, n: int) -> NCPolynomial:
    return egen(((i - 1) % disk.m) + 1, n, disk.family)


def psi_map(disk: MarkedDisk) -> Callable[[Generator], NCPolynomial]:
    """Send E_{i,n} to z_{i,n-<i>} (and the last arc to its bracket)."""
    h = disk.foliation
    m = disk.m

    def image(g: Generator) -> NCPolynomial:
        if g.family != disk.family or isinstance(g.index, tuple):
            raise ValueError(f"psi is not defined on generator {g}")
        i = ((g.index - 1) % m) + 1
        if i < m:
            return zgen(i, g.shift - angle(i, h))
        return zab(1, m, g.shift - h.at(m), m)
    return image


def phi_map(disk: MarkedDisk) -> Callable[[Generator], NCPolynomial]:
    """Send z_{i,n} to E_{i,n+<i>} for the quiver generators i < m."""
    h = disk.foliation
    m = disk.m

    def image(g: Generator) -> NCPolynomial:
        if g.family != "z" or isinstance(g.index, tuple) or not 1 <= g.index < m:
            raise ValueError(f"phi is not defined on generator {g}")
        return egen(g.index, g.shift + angle(g.index, h), disk.family)
    return image


def _convolution(disk: MarkedDisk, i: int) -> Relation:
    lhs = _E(disk, i, disk.foliation.at(i))
    rhs = iterated_bracket(
        [_E(disk, i + j, tau_angle(disk, i, j)) for j in range(disk.m - 1, 0, -1)])
    return Relation(f"(R2) convolution i={((i - 1) % disk.m) + 1}", lhs, rhs)


def minimal_disk_relations(disk: MarkedDisk, window: Window = DEFAULT_WINDOW) -> RelationSet:
    """(R1) self-extension, (R2) adjacent commutation + cyclic convolution,
    and (R3) far-commutativity for the boundary-arc generators."""
    m = disk.m
    h = disk.foliation
    lo, hi = window
    rels: List[Relation] = []
    for i in range(1, m + 1):
        for n in range(lo, hi + 1):
            for k in range(1, hi - n + 1):
                e, rhs = self_extension(k)
                rels.append(Relation(f"(R1) i={i} n={n} k={k}",
                                     q_bracket(_E(disk, i, n), _E(disk, i, n + k), V ** e),
                                     rhs))
        # adjacent pair (i+1, i): base shifts (k, h(i)); all suspensions in
        # window.  None in a bigon, where E_{i+1} is a shift of E_i and (R1)
        # relates the two.
        for t in range(lo, hi + 1) if m > 2 else ():
            for u in range(lo, hi + 1):
                k = t - u + h.at(i)
                if k == 1:
                    continue  # the convolution case
                exp = -1 if (k > 1) == (k % 2 == 0) else 1
                # k > 1: sign (-1)^(k+1); k < 1: sign (-1)^k
                rels.append(Relation(
                    f"(R2) i={i} shifts=({t},{u})",
                    q_bracket(_E(disk, i + 1, t), _E(disk, i, u), V ** exp),
                    NCPolynomial.zero()))
        rels.append(_convolution(disk, i))
        for j in range(i + 2, m + 1):
            if (j - i) % m < 2 or (i - j) % m < 2:
                continue
            for n in range(lo, hi + 1):
                for k in range(lo, hi + 1):
                    rels.append(Relation(
                        f"(R3) i={i} j={j} shifts=({n},{k})",
                        q_bracket(_E(disk, i, n), _E(disk, j, k), ONE),
                        NCPolynomial.zero()))
    return RelationSet(f"minimal disk m={m} h={h.h}", tuple(rels),
                       oracle_m=m, expand=psi_map(disk))


def cyclic_family(disk: MarkedDisk, i: int) -> RelationSet:
    """The ladder of m-1 shuffled convolution identities based at arc i."""
    m = disk.m
    rels: List[Relation] = []
    for k in range(0, m - 1):
        xs = [_E(disk, i + t, tau_angle(disk, i, t) + 1) for t in range(k, 0, -1)]
        lhs = iterated_bracket(xs + [_E(disk, i, disk.foliation.at(i))])
        rhs = iterated_bracket(
            [_E(disk, i + j, tau_angle(disk, i, j)) for j in range(m - 1, k, -1)])
        rels.append(Relation(f"cyclic rung k={k}", lhs, rhs))
    return RelationSet(f"cyclic family m={m} i={i}", tuple(rels),
                       oracle_m=m, expand=psi_map(disk))


def local_skein_relations(window: Window = DEFAULT_WINDOW) -> RelationSet:
    """The two-bracket commutator on the standard 4-gon, all suspensions.

    With X = [E_{2,1}, E_{1,h(1)}]_v and Y = [E_{3,1-h(2)}, E_{2,0}]_v,
    the commutator [X, s^l Y]_1 picks out exactly the l = 0 and l = 1
    resolutions.
    """
    disk = standard_form()
    h = disk.foliation
    X = q_bracket(egen(2, 1), egen(1, h.at(1)), V)
    Y = q_bracket(egen(3, 1 - h.at(2)), egen(2, 0), V)
    coeff = V - V ** -1
    rels = []
    for l in range(window[0], window[1] + 1):
        if l == 1:
            rhs = (egen(2, 1) * egen(4, h.at(4) + h.at(1))).scale(coeff)
        elif l == 0:
            rhs = -(egen(1, h.at(1)) * egen(3, 1 - h.at(2))).scale(coeff)
        else:
            rhs = NCPolynomial.zero()
        rels.append(Relation(f"local skein l={l}", q_bracket(X, Y.suspend(l), 1), rhs))
    return RelationSet("local skein (standard form)", tuple(rels),
                       oracle_m=4, expand=psi_map(disk))


def chord_skein_set(m: int, window: Window = DEFAULT_WINDOW) -> RelationSet:
    """Interior, boundary and self skein identities of the graded chords of
    an m-gon, with shift differences across the window."""
    shifts = range(window[0], window[1] + 1)
    rels = [skein_commutator(GradedChord(a, c, k), GradedChord(b, d))
            for a, b, c, d in combinations(range(1, m + 1), 4) for k in shifts]
    # boundary pairs on one shared interval, shift differences across the window
    chords = [GradedChord(a, b) for a, b in combinations(range(1, m + 1), 2)]
    rels += [boundary_skein(GradedChord(x.a, x.b, k), y)
             for x in chords for y in chords if crossing(x, y) == SHARED for k in shifts]
    rels += [self_skein(x, GradedChord(x.a, x.b, k)) for x in chords for k in shifts]
    return RelationSet(f"chord skein m={m}", tuple(rels), oracle_m=m, expand=_z_expander(m))


# ---------------------------------------------------------------------------
# gluing
# ---------------------------------------------------------------------------

def beta_map(spec: GluingSpec) -> Callable[[Generator], NCPolynomial]:
    """Rewrite both disks' generators in the glued disk's G generators.

    Unglued arcs map across by index; the two glued arcs become the
    suspended cyclic brackets of the G generators on their side.
    """
    e_rot, f_rot, glued = normalized_gluing(spec)
    n, m2 = spec.left.m, spec.right.m
    big = n + m2 - 2
    gfol = glued.foliation

    en1 = iterated_bracket([egen(k, span(1, k, gfol), "G")
                            for k in range(n - 1, 0, -1)]).suspend(1 - e_rot.at(n))
    fn1 = iterated_bracket([egen(k, span(n, k, gfol), "G")
                            for k in range(big, n - 1, -1)]).suspend(1 - f_rot[n - 1])

    def image(g: Generator) -> NCPolynomial:
        if g.family == "E" and 1 <= g.index <= n:
            if g.index <= n - 1:
                return egen(g.index, g.shift, "G")
            return en1.suspend(g.shift - 1)
        if g.family == "F" and n - 1 <= g.index <= big:
            if g.index >= n:
                return egen(g.index, g.shift, "G")
            return fn1.suspend(g.shift - 1)
        if g.family == "G":
            return NCPolynomial.generator(g)
        raise ValueError(f"beta is not defined on generator {g}")
    return image


def alpha_map(spec: GluingSpec) -> Callable[[Generator], NCPolynomial]:
    """Send each glued-disk generator back to the disk it came from."""
    n = spec.left.m
    big = n + spec.right.m - 2

    def image(g: Generator) -> NCPolynomial:
        if g.family != "G" or not 1 <= g.index <= big:
            raise ValueError(f"alpha is not defined on generator {g}")
        if g.index <= n - 1:
            return egen(g.index, g.shift, "E")
        return egen(g.index, g.shift, "F")
    return image


def naive_presentation(config: Union[SurfaceConfig, dict],
                       window: Window = DEFAULT_WINDOW) -> RelationSet:
    """Free product of the disk presentations modulo (G1) and (G3).

    This is the one place that glues presentations.  For a single disk the
    set is its minimal presentation.  For one gluing of two distinct disks
    it is verifiable through the glued disk: each raw arc label is
    relabelled to the normal position of ``beta_map``, then sent through
    ``beta_map`` and the glued disk's ``psi_map``.  Other configurations
    are emitted without an oracle assignment.
    """
    if isinstance(config, dict):
        config = load_config(config)
    else:
        config.validate()
    if not config.has_enough_marked_intervals():
        warnings.warn("configuration does not have enough marked intervals: "
                      "some disk's marked intervals are identified by the gluing")
    if len(config.disks) == 1 and not config.gluings:
        rs = minimal_disk_relations(config.disks[0], window)
        return RelationSet("naive presentation", rs.relations, rs.oracle_m, rs.expand)

    rels: List[Relation] = []
    for d, disk in enumerate(config.disks):
        rels.extend(Relation(f"disk{d} {r.label}", r.lhs, r.rhs)
                    for r in minimal_disk_relations(disk, window).relations)
    lo, hi = window
    for gi, (dl, al, dr, ar) in enumerate(config.gluings):
        L, R = config.disks[dl], config.disks[dr]
        for s in range(lo, hi + 1):
            rels.append(Relation(f"(G1) g{gi} s={s}",
                                 egen(al, s, L.family), egen(ar, s, R.family)))
        # the seam (its (G1) is above) and the arc pairs next to it, where no
        # far-commutativity holds
        skip = {((al + a - 1) % L.m + 1, (ar + b - 1) % R.m + 1)
                for a, b in ((0, 0), (1, -1), (0, -1), (0, 1), (-1, 0), (-1, 1), (1, 0))}
        for k in range(1, L.m + 1):
            for l in range(1, R.m + 1):
                if (k, l) in skip:
                    continue
                for s in range(lo, hi + 1):
                    for t in range(lo, hi + 1):
                        rels.append(Relation(
                            f"(G3) g{gi} {L.family}{k},{R.family}{l} shifts=({s},{t})",
                            q_bracket(egen(k, s, L.family), egen(l, t, R.family), ONE),
                            NCPolynomial.zero()))

    oracle_m = expand = None
    gluing = config.gluings[0] if len(config.gluings) == 1 else None
    # one gluing of two distinct disks is a disk, and is verified through it
    if len(config.disks) == 2 and gluing and gluing[0] != gluing[2]:
        dl, al, dr, ar = gluing
        left, right = config.disks[dl], config.disks[dr]
        spec = GluingSpec(MarkedDisk(left.foliation), al, MarkedDisk(right.foliation), ar)
        beta, psi_g = beta_map(spec), psi_map(glue(spec))
        n, m2 = left.m, right.m
        # raw arc i of a disk -> (family, first + (i - arc) % m) in beta's
        # normal position, where the seam is E_n on the left, F_{n-1} on the right
        normal = {left.family: ("E", 1, al + 1, n), right.family: ("F", n - 1, ar, m2)}

        def expand(g: Generator) -> NCPolynomial:
            family, first, arc, m = normal[g.family]
            return beta(Generator(family, first + (g.index - arc) % m, g.shift)
                        ).substitute(psi_g)

        oracle_m = n + m2 - 2

    return RelationSet("naive presentation", tuple(rels), oracle_m=oracle_m, expand=expand)


# ---------------------------------------------------------------------------
# PBW generators
# ---------------------------------------------------------------------------

def _F(i: int, j: int) -> NCPolynomial:
    return NCPolynomial.generator(Generator("F", (i, j), 0))


def pbw_relations(m: int) -> RelationSet:
    """The six reordering families (Ls a-f) for the generators F_{i,j}.

    Coefficients are written with v = the inverse of the formal square
    root of the field size, matching the oracle assignment
    F_{i,j} -> z_{(i,j),0}.
    """
    if m < 2:
        raise ValueError(f"need m >= 2, got {m}")
    rels: List[Relation] = []
    for a, b, c in combinations(range(1, m + 1), 3):
        rels.append(Relation(f"(Ls d) ({a},{b},{c})",
                             q_bracket(_F(b, c), _F(a, b), V), _F(a, c)))
        rels.append(Relation(f"(Ls e) ({a},{b},{c})",
                             q_bracket(_F(a, c), _F(b, c), V), NCPolynomial.zero()))
        rels.append(Relation(f"(Ls f) ({a},{b},{c})",
                             q_bracket(_F(a, c), _F(a, b), V ** -1), NCPolynomial.zero()))
        for d in range(c + 1, m + 1):
            rels.append(Relation(f"(Ls a) ({a},{b},{c},{d})",
                                 q_bracket(_F(a, c), _F(b, d), ONE),
                                 (_F(a, d) * _F(b, c)).scale(V - V ** -1)))
            rels.append(Relation(f"(Ls b) ({a},{b},{c},{d})",
                                 q_bracket(_F(a, b), _F(c, d), ONE), NCPolynomial.zero()))
            rels.append(Relation(f"(Ls c) ({a},{b},{c},{d})",
                                 q_bracket(_F(a, d), _F(b, c), ONE), NCPolynomial.zero()))
    return RelationSet(f"pbw m={m}", tuple(rels), oracle_m=m, expand=_z_expander(m))


def pbw_normal_form(word) -> NCPolynomial:
    """Rewrite a product of F_{i,j} into lexicographically sorted monomials.

    ``word`` is an NCPolynomial over F generators or a sequence of index
    pairs.  Rewriting picks the rightmost out-of-order adjacent pair and
    applies the matching (Ls) reordering until every monomial is sorted.
    """
    if not isinstance(word, NCPolynomial):
        word = NCPolynomial.word([Generator("F", tuple(ij), 0) for ij in word])

    def rewrite_pair(x: Generator, y: Generator) -> NCPolynomial:
        # returns X*Y as a combination with Y-side first
        (x1, x2), (y1, y2) = x.index, y.index
        X, Y = NCPolynomial.generator(x), NCPolynomial.generator(y)
        if x1 == y1 or x2 == y2:           # shared bottom or top interval
            return (Y * X).scale(V ** -1)
        if x1 == y2:                       # consecutive: resolve the finger
            return (Y * X).scale(V) + _F(y1, x2)
        if y1 < x1 < y2 < x2:              # interleaved
            return Y * X - (_F(y1, x2) * _F(x1, y2)).scale(V - V ** -1)
        return Y * X                        # disjoint or nested

    queue = [(w, c) for w, c in word.terms.items()]
    out = NCPolynomial.zero()
    while queue:
        w, c = queue.pop()
        pos = -1
        for idx in range(len(w) - 2, -1, -1):
            if w[idx].index > w[idx + 1].index:
                pos = idx
                break
        if pos < 0:
            out = out + NCPolynomial.word(w, c)
            continue
        replaced = rewrite_pair(w[pos], w[pos + 1])
        for w2, c2 in replaced.terms.items():
            queue.append((w[:pos] + w2 + w[pos + 2:], c * c2))
    return out


# ---------------------------------------------------------------------------
# batch verification
# ---------------------------------------------------------------------------

_ALGEBRAS: Dict[Tuple[int, int], HallAlgebra] = {}


def shared_algebra(m: int, q: int) -> HallAlgebra:
    """A process-wide algebra per (m, q), so product memos accumulate."""
    key = (m, q)
    if key not in _ALGEBRAS:
        _ALGEBRAS[key] = HallAlgebra(m, q)
    return _ALGEBRAS[key]


def verify_relation_set(rs: RelationSet, q_list: Sequence[int] = (2, 3)) -> dict:
    """Evaluate every relation at every q; aggregate an exact report."""
    if not rs.verifiable:
        raise ValueError(f"relation set {rs.name!r} is emission-only and "
                         "has no oracle assignment")

    sides = [p for r in rs.relations for p in (r.lhs, r.rhs)]
    results = []
    for q in q_list:
        # one pass over the words of every side, each generator replaced by
        # its image inside the pass
        values = shared_algebra(rs.oracle_m, q).evaluate_many(sides, rs.expand)
        results += [dict(identity_report(r.label, values[2 * k], values[2 * k + 1]), q=q)
                    for k, r in enumerate(rs.relations)]
    failed = [r for r in results if not r["passed"]]
    return {
        "name": rs.name,
        "q": list(q_list),
        "total": len(results),
        "failed": len(failed),
        "passed": not failed,
        "results": results,
    }
