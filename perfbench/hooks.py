"""Per-module tracing of one diskhall process, installed from outside the package.

``install`` wraps public functions and methods of the loaded ``diskhall``
modules; nothing under ``src/`` is edited.  Each wrapped call pushes a frame
on one stack, so a call's self time is its duration minus the time its
wrapped callees took.  Boundary calls (relation sets, evaluation, products,
structure constants, the derived-category operations, ``rref``) are also
kept as spans with a parent link; hot leaves (field and scalar arithmetic)
only aggregate a call count and self time, since one span per call would
cost more than the call itself.

A name the package no longer defines is reported as missing, and so is
every metric of its prefix, even when other names of that prefix remain: a
metric measured over part of its functions would read as a gain.  The hooks
never make a run fail.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

SPAN, LEAF = "span", "leaf"

# (metric prefix, kind, module, attribute path); several paths may share a
# prefix, and a function is replaced under every module-level name that
# refers to it, which covers callers that imported it by name.
HOOKS = [
    ("scalar.qs_mul", LEAF, "diskhall.scalar", "QuadraticScalar.__mul__"),
    ("scalar.qs_mul", LEAF, "diskhall.scalar", "QuadraticScalar.__rmul__"),
    ("scalar.qs_init", LEAF, "diskhall.scalar", "QuadraticScalar.__init__"),
    ("scalar.evaluate_at", LEAF, "diskhall.scalar", "evaluate_at"),
    ("repq.field_op", LEAF, "diskhall.repq", "FiniteField.add"),
    ("repq.field_op", LEAF, "diskhall.repq", "FiniteField.sub"),
    ("repq.field_op", LEAF, "diskhall.repq", "FiniteField.neg"),
    ("repq.field_op", LEAF, "diskhall.repq", "FiniteField.mul"),
    ("repq.field_op", LEAF, "diskhall.repq", "FiniteField.inv"),
    ("repq.rref", SPAN, "diskhall.repq", "rref"),
    ("repq.enumerate_dhoms", SPAN, "diskhall.repq", "DerivedCategory.enumerate_dhoms"),
    ("repq.cone", SPAN, "diskhall.repq", "DerivedCategory.cone"),
    ("repq.identify", SPAN, "diskhall.repq", "DerivedCategory.identify"),
    ("repq.aut_count", SPAN, "diskhall.repq", "DerivedCategory.aut_count"),
    ("repq.dhom_dims", SPAN, "diskhall.repq", "DerivedCategory.dhom_dims"),
    ("hall.basis_product", SPAN, "diskhall.hall", "HallAlgebra._basis_product"),
    ("hall.structure_constant", SPAN, "diskhall.hall", "HallAlgebra.structure_constant"),
    ("hall.hall_product", SPAN, "diskhall.hall", "HallAlgebra.hall_product"),
    ("hall.evaluate", SPAN, "diskhall.hall", "HallAlgebra.evaluate"),
    ("hall.verify_identity", SPAN, "diskhall.hall", "HallAlgebra.verify_identity"),
    ("freealg.substitute", SPAN, "diskhall.freealg", "NCPolynomial.substitute"),
    ("surface.skein", SPAN, "diskhall.surface", "skein_commutator"),
    ("surface.skein", SPAN, "diskhall.surface", "boundary_skein"),
    ("surface.skein", SPAN, "diskhall.surface", "self_skein"),
    ("presentation.build", SPAN, "diskhall.presentation", "quiver_relations"),
    ("presentation.build", SPAN, "diskhall.presentation", "minimal_disk_relations"),
    ("presentation.build", SPAN, "diskhall.presentation", "cyclic_family"),
    ("presentation.build", SPAN, "diskhall.cli", "_local_skein_relations"),
    ("presentation.build", SPAN, "diskhall.cli", "_chord_skein_set"),
    ("presentation.verify", SPAN, "diskhall.presentation", "verify_relation_set"),
    ("cli.emit", SPAN, "diskhall.cli", "_emit"),
]

# memoizing functions, whose cache misses are counted
MISS_COUNTED = ("repq.dhom_dims", "hall.basis_product")


class Tracer:
    """Call stack, per-prefix aggregates, counters and spans of one process."""

    def __init__(self):
        self.clock = time.perf_counter
        # frame: [start, time covered by wrapped callees, span id]
        self.stack = [[0.0, 0.0, 0]]
        self.stats = {}          # prefix -> [calls, self seconds]
        self.counters = {}       # counter name -> int
        self.names = []          # span name table
        self.span_ids = array("q")      # id, parent id, name index per span
        self.span_times = array("d")    # start, end per span
        self.next_id = 1
        self.depth = {}          # prefix -> [calls of it now running]
        self.missing = []        # hook targets the package does not define
        self.incomplete = set()  # prefixes with at least one missing target
        self.broken = set()      # prefixes whose counters could not be read

    def count(self, name, n=1):
        self.counters[name] = self.counters.get(name, 0) + n

    def wrap(self, prefix, kind, fn, after=None):
        stats = self.stats.setdefault(prefix, [0, 0.0])
        stack, clock = self.stack, self.clock
        if kind == LEAF:
            @functools.wraps(fn)
            def leaf(*args, **kwargs):
                frame = [clock(), 0.0, stack[-1][2]]
                stack.append(frame)
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = clock() - frame[0]
                    stack.pop()
                    stack[-1][1] += dur
                    stats[0] += 1
                    stats[1] += dur - frame[1]
            return leaf

        if prefix not in self.names:
            self.names.append(prefix)
        name_idx = self.names.index(prefix)
        ids, times = self.span_ids, self.span_times
        depth = self.depth.setdefault(prefix, [0])

        @functools.wraps(fn)
        def span(*args, **kwargs):
            sid = self.next_id
            self.next_id = sid + 1
            parent = stack[-1][2]
            frame = [clock(), 0.0, sid]
            stack.append(frame)
            depth[0] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                dur = end - frame[0]
                depth[0] -= 1
                stack.pop()
                stack[-1][1] += dur
                stats[0] += 1
                stats[1] += dur - frame[1]
                ids.extend((sid, parent, name_idx))
                times.extend((frame[0], end))
            if after is not None:
                try:
                    after(args, result)
                except (AttributeError, TypeError, IndexError):
                    # the call's signature or result type changed: drop the
                    # counter, keep the run
                    self.broken.add(prefix)
            return result
        return span

    # -- counters attached to particular hooks ------------------------------

    def _after(self, prefix):
        if prefix in MISS_COUNTED:
            # a memo hit hands back the object stored on the first call, so a
            # result never returned before is a miss (references are kept so
            # that ids are not reused)
            seen = {}

            def miss(_args, result):
                if id(result) not in seen:
                    seen[id(result)] = result
                    self.count(prefix + ".misses")
            return miss
        if prefix == "repq.enumerate_dhoms":
            return lambda _args, result: self.count(prefix + ".morphisms", len(result))
        if prefix == "presentation.verify":
            return lambda args, _r: self.count("presentation.relations",
                                               len(args[0].relations))
        if prefix == "freealg.substitute":
            def outermost(_args, result):
                # only the outermost expansion of a polynomial counts, not the
                # substitutions an image function makes on the way
                if self.depth[prefix][0] == 0:
                    self.count("freealg.expanded_terms", len(result.terms))
            return outermost
        return None

    def install(self, hooks=HOOKS):
        """Wrap every hook whose target exists; record the others as missing."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "diskhall" or n.startswith("diskhall."))]
        wrapped = {}
        for prefix, kind, modname, path in hooks:
            owner = sys.modules.get(modname)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None) if owner is not None else None
            target = vars(owner).get(attr) if owner is not None else None
            if not callable(target):
                self.missing.append(f"{modname}.{path}")
                self.incomplete.add(prefix)
                continue
            if id(target) not in wrapped:
                wrapped[id(target)] = self.wrap(prefix, kind, target,
                                                self._after(prefix))
            replacement = wrapped[id(target)]
            setattr(owner, attr, replacement)
            if not outer:
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is target:
                            setattr(mod, name, replacement)

    # -- results --------------------------------------------------------------

    def summary(self) -> dict:
        return {
            "stats": {k: {"calls": c, "self_s": s} for k, (c, s) in self.stats.items()},
            "counters": dict(self.counters),
            "spans": len(self.span_times) // 2,
            "missing": self.missing,
            "incomplete": sorted(self.incomplete),
            "broken": sorted(self.broken),
        }

    def write_spans(self, path):
        """Spans as text lines: id, parent id, name, start, end (seconds)."""
        with open(path, "w") as fh:
            ids, times, names = self.span_ids, self.span_times, self.names
            for k in range(len(times) // 2):
                sid, parent, idx = ids[3 * k], ids[3 * k + 1], ids[3 * k + 2]
                fh.write(f"{sid} {parent} {names[idx]} "
                         f"{times[2 * k]:.9f} {times[2 * k + 1]:.9f}\n")
