"""The cone of a star of interval modules onto one, in closed form.

Every cone the Hall kernel computes (``DerivedCategory._census``) is that
of a star: a morphism from a sum of shifted interval modules X_i onto one
y = M[c,d), with a one-dimensional Hom block from each X_i to y, every
block 1.  Put y at shift 0 (a translation moves the whole star); a
source is then either

* a Hom source M[a,b), with c <= a < d <= b, or
* an Ext source M[a,b)[-1], with a < c <= b < d.

Aut X clears the block of a source that is dominated by another source of
the same type, one with a' <= a and b' <= b: the composite through the
other source is nonzero, so the block is a multiple of it.  A cleared
source passes into the cone as X_i[1].  The sources left of one type form
a nested chain: their a_t increase and their b_t decrease.

The category is hereditary, so the cone C is H^{-1}[1] + H^0.  The
triangle X -> y -> C gives the exact sequence

    0 -> H^{-1} -> sum of the Hom sources -> M[c,d) -> H^0 -> sum of the Ext sources -> 0.

After clearing, a cleared Hom source maps by 0, so it lies in H^{-1}.  The
chain M[a_t, b_t) has image M[a_0, d), so the cokernel is M[c, a_0), and
its kernel is M[a_{t+1}, b_t) for each pair of neighbours t, t+1, plus
M[d, b_last).  With no Hom source, a_0 = d.

H^0 is an extension of the Ext sources by M[c, a_0), its class the Ext
blocks pushed along M[c,d) -> M[c,a_0).  An Ext source with b >= a_0 has
its class die there and splits off, like a cleared one, as M[a,b).  The
live ones form a chain a'_t, b'_t as above, and the extension is

    M[a'_0, a_0) + M[a'_{t+1}, b'_t) + M[c, b'_last).

The empty intervals among these are dropped.  ``tests/test_repq.py``
checks all of this against the F_q cone on every star with m <= 6 and at
most three sources.
"""

from typing import List, Sequence, Tuple

Summand = Tuple[int, int, int]


def _chain(intervals) -> Tuple[List[Tuple[int, int]], List[Tuple[int, int]]]:
    """The nested chain of the undominated intervals (a increasing, b
    decreasing) and the dominated ones, of which a repeat is one."""
    kept, cleared = [], []
    for a, b in sorted(intervals):
        (kept if not kept or b < kept[-1][1] else cleared).append((a, b))
    return kept, cleared


def star_cone(sources: Sequence[Summand], y: Summand) -> Tuple[Summand, ...]:
    """The summands, sorted, of the cone of the star ``sources`` -> ``y``
    with every block 1; each source has a degree-0 Hom block to y."""
    c, d, k = y
    hom, ext = [], []
    for a, b, n in sources:
        if n == k and c <= a < d <= b:
            hom.append((a, b))
        elif n == k - 1 and a < c <= b < d:
            ext.append((a, b))
        else:
            raise ValueError(f"no Hom block from {(a, b, n)} to {y}")
    chain, cleared = _chain(hom)
    a0 = chain[0][0] if chain else d
    kernel = [(chain[t + 1][0], chain[t][1]) for t in range(len(chain) - 1)]
    if chain:
        kernel.append((d, chain[-1][1]))
    live, dead = [], []
    for a, b in ext:
        (live if b < a0 else dead).append((a, b))
    ext_chain, ext_cleared = _chain(live)
    if ext_chain:
        h0 = ([(ext_chain[0][0], a0)]
              + [(ext_chain[t + 1][0], ext_chain[t][1]) for t in range(len(ext_chain) - 1)]
              + [(c, ext_chain[-1][1])])
    else:
        h0 = [(c, a0)]
    cone = ([(a, b, k + 1) for a, b in cleared + kernel if a < b]
            + [(a, b, k) for a, b in dead + ext_cleared + h0 if a < b])
    return tuple(sorted(cone))
