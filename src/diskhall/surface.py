"""Marked disks, foliation data, gluing, and graded-chord skein bookkeeping.

Everything here is combinatorial: a disk is a cyclic sequence of marked
intervals carrying integer foliation data summing to m - 2; a chord is a
pair of interval indices with an integer shift.  Chords of a disk cross
iff their endpoints interleave, so no planar geometry is needed.

The two skein emitters return labeled symbolic relations over the arc
generators z_{(a,b),n}; they are verified elsewhere by expanding the
arcs into quiver generators and evaluating in a Hall algebra.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from .freealg import NCPolynomial, Relation, Value, q_bracket, zarc
from .scalar import ONE, RationalFunctionV, V

# the scalar correction v^{-1}/(v^2 - 1) at shift difference 1
SELF_EXT = V ** -1 / (V ** 2 - ONE)


def self_extension(k: int) -> Tuple[int, NCPolynomial]:
    """(e, R) of the self-extension rule [x_n, x_{n+k}]_{v^e} = R for k >= 1:
    e = 2(-1)^k, and R is SELF_EXT at k = 1 and 0 otherwise."""
    rhs = NCPolynomial.scalar(SELF_EXT) if k == 1 else NCPolynomial.zero()
    return 2 * (-1) ** k, rhs


class FoliationData(Value):
    """Integer weights on the marked intervals of a disk, summing to m - 2."""

    __slots__ = ("m", "h")

    def __init__(self, m: int, h: Sequence[int]):
        if m < 2:
            raise ValueError(f"need at least 2 marked intervals, got m={m}")
        h = tuple(h)
        if len(h) != m:
            raise ValueError(f"foliation vector has length {len(h)}, expected {m}")
        if sum(h) != m - 2:
            raise ValueError(f"foliation weights must sum to m - 2 = {m - 2}, got {sum(h)}")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "h", h)

    def at(self, i: int) -> int:
        """Weight at cyclic index i (1-based, any integer accepted)."""
        return self.h[(i - 1) % self.m]


def angle(k: int, e: FoliationData) -> int:
    """<k> = sum_{j=1}^{k-1} (1 - e(j)); angle(1) = 0."""
    if not 1 <= k <= e.m:
        raise ValueError(f"index {k} out of range 1..{e.m}")
    return span(1, k, e)


def span(j: int, k: int, e: FoliationData) -> int:
    """<j,k> = sum over the cyclic interval l = j, ..., k-1 of (1 - e(l)).

    Empty when j = k; wraps around the disk when k < j, so that
    <j,k> + <k,j> = 2 for distinct indices.
    """
    j0, k0 = (j - 1) % e.m, (k - 1) % e.m
    if k0 < j0:
        k0 += e.m
    return sum(1 - e.at(l + 1) for l in range(j0, k0))


class MarkedDisk(Value):
    """A disk with m marked intervals, foliation data, and a generator family."""

    __slots__ = ("foliation", "family")

    def __init__(self, foliation: FoliationData, family: str = "E"):
        object.__setattr__(self, "foliation", foliation)
        object.__setattr__(self, "family", family)

    @property
    def m(self) -> int:
        return self.foliation.m


def standard_form() -> MarkedDisk:
    """The 4-gon with weights (0,1,0,1); the base case for skein checks."""
    return MarkedDisk(FoliationData(4, (0, 1, 0, 1)))


class GradedChord(Value):
    """A chord between marked intervals a < b, suspended by ``shift``."""

    __slots__ = ("a", "b", "shift")

    def __init__(self, a: int, b: int, shift: int = 0):
        if not 1 <= a < b:
            raise ValueError(f"need 1 <= a < b, got ({a}, {b})")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "shift", shift)

    def element(self) -> NCPolynomial:
        return zarc(self.a, self.b, self.shift)

    def __str__(self):
        return f"z[({self.a},{self.b}),{self.shift}]"


class GluingSpec(Value):
    """Glue ``left_arc`` of the left disk onto ``right_arc`` of the right disk."""

    __slots__ = ("left", "left_arc", "right", "right_arc")

    def __init__(self, left: MarkedDisk, left_arc: int, right: MarkedDisk, right_arc: int):
        if not 1 <= left_arc <= left.m:
            raise ValueError(f"left arc {left_arc} out of range 1..{left.m}")
        if not 1 <= right_arc <= right.m:
            raise ValueError(f"right arc {right_arc} out of range 1..{right.m}")
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "left_arc", left_arc)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "right_arc", right_arc)


def normalized_gluing(spec: GluingSpec):
    """Rotate both disks so the glued arc sits in normal position.

    Returns (e, f, glued) where e is the left foliation re-read so the
    glued arc is its n-th interval, f maps indices n-1 .. n+m-2 to the
    right foliation re-read so the glued arc is interval n-1, and glued
    is the resulting (n + m - 2)-gon with family "G".
    """
    n, m2 = spec.left.m, spec.right.m
    e_rot = FoliationData(
        n, tuple(spec.left.foliation.at(k - n + spec.left_arc) for k in range(1, n + 1)))
    f_rot = {n - 1 + t: spec.right.foliation.at(spec.right_arc + t) for t in range(m2)}
    g = []
    for k in range(1, n + m2 - 1):
        if k <= n - 2:
            g.append(e_rot.at(k))
        elif k == n - 1:
            g.append(e_rot.at(n - 1) + f_rot[n - 1])
        elif k <= n + m2 - 3:
            g.append(f_rot[k])
        else:
            g.append(e_rot.at(n) + f_rot[n + m2 - 2])
    glued = MarkedDisk(FoliationData(n + m2 - 2, tuple(g)), family="G")
    return e_rot, f_rot, glued


def glue(spec: GluingSpec) -> MarkedDisk:
    """The disk obtained by gluing along the chosen pair of arcs."""
    return normalized_gluing(spec)[2]


# ---------------------------------------------------------------------------
# chord crossings and skein relations
# ---------------------------------------------------------------------------

DISJOINT = "disjoint"
SHARED = "shared-endpoint-interval"
INTERLEAVED = "interleaved"
EQUAL = "equal"


def crossing(x: GradedChord, y: GradedChord) -> str:
    """Classify how two chords of one disk meet (shifts are ignored)."""
    if (x.a, x.b) == (y.a, y.b):
        return EQUAL
    if x.a < y.a < x.b < y.b or y.a < x.a < y.b < x.b:
        return INTERLEAVED
    if len({x.a, x.b} & {y.a, y.b}) == 1:
        return SHARED
    return DISJOINT


def skein_commutator(x: GradedChord, y: GradedChord) -> Relation:
    """The interior-crossing skein identity [x, y]_1 = (resolution terms).

    With x = z_{(a,c),n} and y = z_{(b,d),n-k} interleaved, the right
    side is (v - v^{-1}) z_{(a,d),n} z_{(b,c),n} for k = 0,
    (v^{-1} - v) z_{(a,b),n} z_{(c,d),n-1} for k = 1, and 0 otherwise;
    other orderings follow by antisymmetry of the plain commutator.
    """
    if crossing(x, y) != INTERLEAVED:
        raise ValueError("no interior crossing")
    swapped = x.a > y.a
    first, second = (y, x) if swapped else (x, y)
    a, c = first.a, first.b
    b, d = second.a, second.b
    n = first.shift
    k = n - second.shift
    if k == 0:
        rhs = (zarc(a, d, n) * zarc(b, c, n)).scale(V - V ** -1)
    elif k == 1:
        rhs = (zarc(a, b, n) * zarc(c, d, n - 1)).scale(V ** -1 - V)
    else:
        rhs = NCPolynomial.zero()
    if swapped:
        rhs = -rhs
    lhs = q_bracket(x.element(), y.element(), ONE)
    return Relation(f"skein [{x}, {y}]_1 (k={k})", lhs, rhs)


def _reversed(name: str, x: GradedChord, y: GradedChord,
              f: RationalFunctionV, rhs: NCPolynomial) -> Relation:
    """The canonical y*x - f*x*y = R solved for x*y: [x, y]_{f^-1} = -f^{-1} R."""
    finv = f.inverse()
    return Relation(f"{name} [{x}, {y}] (reversed)",
                    q_bracket(x.element(), y.element(), finv), -rhs.scale(finv))


def _boundary_rule(x: GradedChord, y: GradedChord):
    """(f, R, label tag) of [x, y]_f = R for chords on one marked interval,
    or None when the pair is in the reversed role order.  Each pattern fixes
    the shift difference d0 at which R is the chord closing the triangle."""
    if x.a == y.b:                   # x = (b,c) after y = (a,b): finger
        d0, resolution = 0, zarc(y.a, x.b, x.shift)
    elif x.b == y.b and x.a < y.a:   # share top interval
        d0, resolution = 1, zarc(x.a, y.a, x.shift)
    elif x.a == y.a and x.b < y.b:   # share bottom interval
        d0, resolution = 1, zarc(x.b, y.b, y.shift)
    else:
        return None
    d = x.shift - y.shift
    if d == d0:
        return V, resolution, "_v"
    i = 1 - (d - d0)
    r = -1 if (i % 2 == 1) == (i >= 1) else 1   # (-1)^i for i >= 1, else (-1)^(1+i)
    return V ** r, NCPolynomial.zero(), f"_v^{r} (i={i})"


def boundary_skein(x: GradedChord, y: GradedChord) -> Relation:
    """The skein identity for chords meeting on one marked interval.

    At the canonical shift difference the bracket [x, y]_v resolves to
    the third side of the triangle; at every other shift the pair
    v-commutes, with exponent r = (-1)^i for intersection index
    i >= 1 and (-1)^(1+i) otherwise, where i = 1 - (d - d0).  A pair in
    the reversed role order is solved from the canonical identity
    [y, x]_f = R of (y, x): [x, y]_{f^-1} = -f^{-1} R.
    """
    if crossing(x, y) != SHARED:
        raise ValueError("chords do not meet on a single marked interval")
    rule = _boundary_rule(x, y)
    if rule is None:
        f, rhs, _ = _boundary_rule(y, x)
        return _reversed("boundary skein", x, y, f, rhs)
    f, rhs, tag = rule
    return Relation(f"boundary skein [{x}, {y}]{tag}",
                    q_bracket(x.element(), y.element(), f), rhs)


def self_skein(x: GradedChord, y: GradedChord) -> Relation:
    """The skein identity for two suspensions of the same chord.

    [z_{c,n}, z_{c,n+k}] obeys ``self_extension(k)`` for k >= 1 and
    commutes for k = 0.  A negative k is solved from the identity
    [y, x]_f = R of the pair in the other order: [x, y]_{f^-1} = -f^{-1} R.
    """
    if crossing(x, y) != EQUAL:
        raise ValueError("chords are not equal")
    k = y.shift - x.shift
    if k == 0:
        return Relation(f"self skein [{x}, {y}]_1",
                        q_bracket(x.element(), y.element(), ONE),
                        NCPolynomial.zero())
    e, rhs = self_extension(abs(k))
    if k < 0:
        return _reversed("self skein", x, y, V ** e, rhs)
    return Relation(f"self skein [{x}, {y}]_v^{e}",
                    q_bracket(x.element(), y.element(), V ** e), rhs)


# ---------------------------------------------------------------------------
# surface configurations (collections of disks with gluings)
# ---------------------------------------------------------------------------

class SurfaceConfig(Value):
    """Disks plus pairwise arc gluings; the ribbon data of a surface.

    Each gluing is a tuple (left disk, arc, right disk, arc).
    """

    __slots__ = ("disks", "gluings")

    def __init__(self, disks: Tuple[MarkedDisk, ...],
                 gluings: Tuple[Tuple[int, int, int, int], ...]):
        object.__setattr__(self, "disks", disks)
        object.__setattr__(self, "gluings", gluings)

    def interval_classes(self) -> Dict[Tuple[int, int], int]:
        """Union-find classes of marked intervals under the gluings.

        Gluing arc i (between intervals i and i+1) onto arc j identifies
        interval i with j+1 and i+1 with j, matching orientations.
        """
        parent = {}

        def find(a):
            while parent.get(a, a) != a:
                parent[a] = parent.get(parent[a], parent[a])
                a = parent[a]
            return a

        def union(a, b):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)

        for d, disk in enumerate(self.disks):
            for p in range(1, disk.m + 1):
                parent.setdefault((d, p), (d, p))
        for dl, al, dr, ar in self.gluings:
            ml, mr = self.disks[dl].m, self.disks[dr].m
            union((dl, al), (dr, ar % mr + 1))
            union((dl, al % ml + 1), (dr, ar))
        return {k: find(k) for k in parent}

    def validate(self):
        families = [disk.family for disk in self.disks]
        if len(set(families)) != len(families):
            raise ValueError(f"disks share a generator family: {families}")
        glued = set()
        for dl, al, dr, ar in self.gluings:
            for d, a in ((dl, al), (dr, ar)):
                if not 0 <= d < len(self.disks):
                    raise ValueError(f"gluing references disk {d}, have {len(self.disks)}")
                if not 1 <= a <= self.disks[d].m:
                    raise ValueError(f"arc {a} out of range for disk {d}")
                if (d, a) in glued:
                    raise ValueError(f"arc {a} of disk {d} glued more than once")
                glued.add((d, a))
            if (dl, al) == (dr, ar):
                raise ValueError("cannot glue an arc to itself")
        classes = self.interval_classes()
        members: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
        for k, r in classes.items():
            members.setdefault(r, []).append(k)
        for root, group in members.items():
            if all((d, p) in glued for d, p in group):
                raise ValueError(
                    "configuration has a closed boundary component "
                    "(a boundary circle without any marked interval)")

    def has_enough_marked_intervals(self) -> bool:
        """Whether every disk's marked intervals stay distinct after gluing."""
        classes = self.interval_classes()
        for d, disk in enumerate(self.disks):
            seen = set()
            for p in range(1, disk.m + 1):
                r = classes[(d, p)]
                if r in seen:
                    return False
                seen.add(r)
        return True


_FAMILIES = "EFGHIJKLMNOPQRSTUVWXYZ"


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _json_ints(obj, keys: Sequence[str], what: str) -> List:
    """The values of ``keys`` in the JSON object ``obj``: integers, or for
    the key "h" a list of integers.  Raises ValueError on any other shape."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be an object with keys {', '.join(keys)}")
    out = []
    for key in keys:
        if key not in obj:
            raise ValueError(f"{what} has no {key!r}")
        value = obj[key]
        if key == "h":
            ok = isinstance(value, list) and all(map(_is_int, value))
        else:
            ok = _is_int(value)
        if not ok:
            kind = "a list of integers" if key == "h" else "an integer"
            raise ValueError(f"{what}: {key!r} must be {kind}, got {value!r}")
        out.append(value)
    return out


def load_config(data: dict) -> SurfaceConfig:
    """Build and validate a SurfaceConfig from its JSON form.

    Expected shape: {"disks": [{"m": int, "h": [ints]}],
    "gluings": [{"left": i, "arc_i": a, "right": j, "arc_j": b}]}.
    Any other shape raises ValueError.
    """
    raw_disks = data.get("disks") if isinstance(data, dict) else None
    if not isinstance(raw_disks, list):
        raise ValueError("config must be an object with a 'disks' list")
    if not raw_disks:
        raise ValueError("config needs at least one disk")
    disks = []
    for idx, d in enumerate(raw_disks):
        m, h = _json_ints(d, ("m", "h"), f"disk {idx}")
        fam = _FAMILIES[idx] if idx < len(_FAMILIES) else f"E{idx}"
        disks.append(MarkedDisk(FoliationData(m, tuple(h)), family=fam))
    raw_gluings = data.get("gluings", [])
    if not isinstance(raw_gluings, list):
        raise ValueError("'gluings' must be a list")
    gluings = [tuple(_json_ints(g, ("left", "arc_i", "right", "arc_j"), f"gluing {idx}"))
               for idx, g in enumerate(raw_gluings)]
    cfg = SurfaceConfig(tuple(disks), tuple(gluings))
    cfg.validate()
    return cfg
