"""Cold-process benchmark of the diskhall CLI.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Every measured run is a fresh
process, ``diskhall.cli <argv> --format json --out <file>``, importing the
checkout's ``src/``, so every run pays for cold memo caches as a CLI user
does.  Processes run one at a time (a closed loop with one client).

With ``--trace 0`` processes run while the next one is expected to end
within ``--seconds`` (at least one), and the end-to-end metrics are the
medians over them: ``wall_s`` (spawn to exit), ``identities_per_s``,
``setup_s`` (spawn until ``diskhall.cli`` is imported) and ``peak_rss_mb`` (the child's own peak RSS, from
``wait4``).  With ``--trace 1`` one traced process runs, then untraced ones
by the same rule; the traced one wraps the package's functions from
``hooks.py`` and gives the per-module metrics, and its wall time minus the
untraced median is the tracing overhead.  A traced run takes at least one
traced and one untraced process, which can be longer than ``--seconds``.

Every report is checked: exit code 0, status "pass", no failed identity, the
expected identity count, and the SHA-256 recorded from the seed code in
``digests.json``.  A process that fails any check counts all its identities
as failed; the run goes on.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Callable, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
CHILD = os.path.join(HERE, "child.py")
DIGESTS = os.path.join(HERE, "digests.json")

# a run never lasts longer than this, whatever --seconds says
HARD_LIMIT_S = 170.0
# seeds translate the shift window by -3..3
SHIFT_SPAN = 3


def window(lo: int, hi: int, t: int) -> str:
    return f"{lo + t}..{hi + t}"


def translation(seed: int) -> int:
    """Seed 0 is the untranslated window; seeds cycle through -3..3."""
    return (seed + SHIFT_SPAN) % (2 * SHIFT_SPAN + 1) - SHIFT_SPAN


@dataclass(frozen=True)
class Workload:
    name: str
    argv: Callable[[int], List[str]]   # CLI argv for a shift translation
    identities: int                    # identity rows one report must have
    seeded: bool = True                # does the seed translate the window?


# The shift functor is an autoequivalence, so a translated window does the
# same work.  The skein suite takes no seed: translating its window changes
# the relative chord shifts and therefore the work.
WORKLOADS = {w.name: w for w in [
    Workload("quiver-ext", lambda t: ["verify-quiver", "--m", "4", "--shifts",
                                      window(-1, 2, t), "--q", "4,8"], 148),
    Workload("disk-m5", lambda t: ["verify-disk", "--m", "5", "--h", "1,0,1,0,1",
                                   "--shifts", window(-1, 1, t), "--q", "2"], 117),
    Workload("skein", lambda t: ["verify-skein", "--shifts", "0..1", "--q", "2"],
             214, seeded=False),
]}

END_TO_END = {"wall_s": "s", "identities_per_s": "1/s", "setup_s": "s",
              "peak_rss_mb": "MB"}

# per-module metrics: (name, unit, source); a source ("stats", prefix, field)
# reads a hook's aggregate, ("counter", name, prefix) a counter that exists
# when the hook of ``prefix`` is installed
PER_LAYER = [
    ("scalar.qs_mul.calls", "count", ("stats", "scalar.qs_mul", "calls")),
    ("scalar.qs_mul.self_s", "s", ("stats", "scalar.qs_mul", "self_s")),
    ("scalar.qs_init.calls", "count", ("stats", "scalar.qs_init", "calls")),
    ("scalar.qs_init.self_s", "s", ("stats", "scalar.qs_init", "self_s")),
    ("scalar.evaluate_at.calls", "count", ("stats", "scalar.evaluate_at", "calls")),
    ("repq.field_op.calls", "count", ("stats", "repq.field_op", "calls")),
    ("repq.field_op.self_s", "s", ("stats", "repq.field_op", "self_s")),
    ("repq.rref.calls", "count", ("stats", "repq.rref", "calls")),
    ("repq.rref.self_s", "s", ("stats", "repq.rref", "self_s")),
    ("repq.enumerate_dhoms.calls", "count", ("stats", "repq.enumerate_dhoms", "calls")),
    ("repq.enumerate_dhoms.morphisms", "count",
     ("counter", "repq.enumerate_dhoms.morphisms", "repq.enumerate_dhoms")),
    ("repq.enumerate_dhoms.self_s", "s", ("stats", "repq.enumerate_dhoms", "self_s")),
    ("repq.cone.calls", "count", ("stats", "repq.cone", "calls")),
    ("repq.cone.self_s", "s", ("stats", "repq.cone", "self_s")),
    ("repq.identify.self_s", "s", ("stats", "repq.identify", "self_s")),
    ("repq.aut_count.calls", "count", ("stats", "repq.aut_count", "calls")),
    ("repq.aut_count.self_s", "s", ("stats", "repq.aut_count", "self_s")),
    ("repq.dhom_dims.calls", "count", ("stats", "repq.dhom_dims", "calls")),
    ("repq.dhom_dims.misses", "count",
     ("counter", "repq.dhom_dims.misses", "repq.dhom_dims")),
    ("hall.basis_product.calls", "count", ("stats", "hall.basis_product", "calls")),
    ("hall.basis_product.misses", "count",
     ("counter", "hall.basis_product.misses", "hall.basis_product")),
    ("hall.basis_product.hit_ratio", "ratio", ("hit_ratio", "hall.basis_product", None)),
    ("hall.structure_constant.calls", "count",
     ("stats", "hall.structure_constant", "calls")),
    ("hall.structure_constant.self_s", "s", ("stats", "hall.structure_constant", "self_s")),
    ("hall.hall_product.self_s", "s", ("stats", "hall.hall_product", "self_s")),
    ("hall.evaluate.self_s", "s", ("stats", "hall.evaluate", "self_s")),
    ("hall.verify_identity.self_s", "s", ("stats", "hall.verify_identity", "self_s")),
    ("freealg.substitute.calls", "count", ("stats", "freealg.substitute", "calls")),
    ("freealg.substitute.self_s", "s", ("stats", "freealg.substitute", "self_s")),
    ("freealg.expanded_terms", "count",
     ("counter", "freealg.expanded_terms", "freealg.substitute")),
    ("surface.skein.calls", "count", ("stats", "surface.skein", "calls")),
    ("surface.skein.self_s", "s", ("stats", "surface.skein", "self_s")),
    ("presentation.build.self_s", "s", ("stats", "presentation.build", "self_s")),
    ("presentation.relations", "count",
     ("counter", "presentation.relations", "presentation.verify")),
    ("presentation.verify.self_s", "s", ("stats", "presentation.verify", "self_s")),
    ("cli.emit.self_s", "s", ("stats", "cli.emit", "self_s")),
    ("cli.report_bytes", "B", ("report_bytes", None, None)),
    ("trace.spans", "count", ("spans", None, None)),
    ("trace.overhead_s", "s", ("overhead", None, None)),
]


# ---------------------------------------------------------------------------
# one child process
# ---------------------------------------------------------------------------

@dataclass
class Sample:
    """One child process: timings, resources and the outcome of the checks."""
    wall_s: float
    setup_s: Optional[float]
    peak_rss_mb: float
    attempted: int = 0
    failed: int = 0
    problem: Optional[str] = None
    report_bytes: int = 0


def spawn(cli_args: List[str], base: str, deadline: float,
          trace_out: Optional[str] = None) -> tuple:
    """Run one child to its exit (or kill it at ``deadline``).

    The child writes ``base.json`` (the report), ``base.err`` and
    ``base.stamp``.  Returns (exit code or None when killed, wall seconds,
    setup seconds or None, peak RSS in MB)."""
    stamp = base + ".stamp"
    cmd = [sys.executable, CHILD, SRC, stamp]
    if trace_out:
        cmd += ["--trace", trace_out]
    cmd += ["--"] + cli_args + ["--format", "json", "--out", base + ".json"]
    # a fixed hash seed makes set iteration, and so the traced counts, repeat
    env = dict(os.environ, PYTHONHASHSEED="0")
    with open(base + ".err", "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err,
                                cwd=ROOT, env=env)
    try:
        pidfd = os.pidfd_open(proc.pid)
        try:
            poller = select.poll()
            poller.register(pidfd, select.POLLIN)
            exited = poller.poll(max(0.0, deadline - start) * 1000)
            end = time.monotonic()
        finally:
            os.close(pidfd)
    except BaseException:
        # interrupted: leave no child behind
        proc.kill()
        proc.wait()
        raise
    if not exited:
        proc.kill()
    # wait4 on this pid alone: RUSAGE_CHILDREN would give the maximum over
    # every child so far, hiding a drop in a later run
    _pid, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    setup = None
    try:
        with open(stamp) as fh:
            setup = float(fh.read()) - start
    except (OSError, ValueError):
        pass
    code = proc.returncode if exited else None
    return code, end - start, setup, usage.ru_maxrss / 1024.0


def load_digests() -> dict:
    with open(DIGESTS) as fh:
        return json.load(fh)


def check_report(code, report: str, expected: int, digest: Optional[str]) -> Optional[str]:
    """The correctness gate of one process; None when the report is right."""
    if code is None:
        return "killed at the time limit"
    if code != 0:
        return f"exit code {code}"
    try:
        with open(report, "rb") as fh:
            raw = fh.read()
        payload = json.loads(raw)
        total = sum(r["total"] for r in payload["reports"])
        failed = sum(r["failed"] for r in payload["reports"])
        status = payload["status"]
    except (OSError, ValueError, KeyError, TypeError) as ex:
        return f"unreadable report: {ex!r}"
    if status != "pass" or failed:
        return f"status {status!r} with {failed} failed identities"
    if total != expected:
        return f"{total} identities, expected {expected}"
    if digest is not None and hashlib.sha256(raw).hexdigest() != digest:
        return "report differs from the one recorded from the seed code"
    return None


def run_workload_process(w: Workload, t: int, base: str, deadline: float,
                         digests: dict, trace_out: Optional[str] = None) -> Sample:
    code, wall, setup, rss = spawn(w.argv(t), base, deadline, trace_out)
    digest = digests.get(w.name, {}).get(str(t))
    problem = check_report(code, base + ".json", w.identities, digest)
    sample = Sample(wall, setup, rss, attempted=w.identities)
    if problem:
        sample.failed = w.identities
        with open(base + ".err", errors="replace") as fh:
            tail = fh.read()[-400:].strip()
        sample.problem = problem + (f"; stderr: {tail}" if tail else "")
    else:
        sample.report_bytes = os.path.getsize(base + ".json")
    return sample


# ---------------------------------------------------------------------------
# a run
# ---------------------------------------------------------------------------

def quartiles(values: List[float]) -> tuple:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def run_untraced(w: Workload, t: int, start: float, seconds: float, digests: dict,
                 workdir: str, log=print) -> List[Sample]:
    """Untraced processes one at a time, while the next one is expected to
    end within ``seconds`` of ``start``; at least one."""
    deadline = start + HARD_LIMIT_S
    first = time.monotonic()
    samples: List[Sample] = []
    while True:
        s = run_workload_process(w, t, os.path.join(workdir, f"run{len(samples)}"),
                                 deadline, digests)
        samples.append(s)
        if s.problem:
            log(f"untraced process {len(samples)} failed: {s.problem}")
        now = time.monotonic()
        cycle = (now - first) / len(samples)
        if now - start + cycle > min(seconds, HARD_LIMIT_S - 10):
            return samples


def measure(w: Workload, seed: int, seconds: float, digests: dict, workdir: str,
            log=print) -> dict:
    """Untraced run: processes while they fit in ``seconds``; medians."""
    t = translation(seed) if w.seeded else 0
    start = time.monotonic()
    samples = run_untraced(w, t, start, seconds, digests, workdir, log)
    attempted = sum(s.attempted for s in samples)
    failed = sum(s.failed for s in samples)
    series = {
        "wall_s": [s.wall_s for s in samples],
        "identities_per_s": [(s.attempted - s.failed) / s.wall_s for s in samples],
        "setup_s": [s.setup_s for s in samples if s.setup_s is not None],
        "peak_rss_mb": [s.peak_rss_mb for s in samples],
    }
    log(f"workload {w.name}, seed {seed} (shift translation {t}), "
        f"{len(samples)} processes in {time.monotonic() - start:.1f} s")
    metrics = {}
    for name, unit in END_TO_END.items():
        values = series[name]
        if not values:
            continue
        q1, med, q3 = quartiles(values)
        metrics[name] = {"value": med, "unit": unit}
        log(f"  {name:<18} {med:12.6f} {unit:<4} q1 {q1:.6f}  q3 {q3:.6f}  n={len(values)}")
    log(f"  {'fail_ratio':<18} {failed / attempted:12.6f} {'ratio':<4} "
        f"{failed} of {attempted} identities failed")
    return {"correct": failed == 0 and len(metrics) == len(END_TO_END),
            "attempted": attempted, "failed": failed, "metrics": metrics}


def per_layer_metrics(summary: dict, extra: dict) -> tuple:
    """The PER_LAYER metrics from a tracer summary and the values in
    ``extra``.  A metric is missing when a hook target of its prefix is gone
    (one of several is enough) or its counter could not be read.  Returns
    (metrics, names of the missing ones)."""
    stats, counters = summary["stats"], summary["counters"]
    incomplete = set(summary["incomplete"])
    unreadable = incomplete | set(summary["broken"])
    metrics, missing = {}, []
    for name, unit, (kind, key, sub) in PER_LAYER:
        if kind == "stats":
            value = stats.get(key, {}).get(sub) if key not in incomplete else None
        elif kind == "counter":
            value = counters.get(key, 0) if sub in stats and sub not in unreadable else None
        elif kind == "hit_ratio":
            calls = stats.get(key, {}).get("calls")
            misses = counters.get(key + ".misses", 0)
            value = (calls - misses) / calls if calls and key not in unreadable else None
        else:
            value = extra[kind]
        if value is None:
            missing.append(name)
            continue
        metrics[name] = {"value": value, "unit": unit}
    return metrics, missing


def traced(w: Workload, seed: int, seconds: float, digests: dict, workdir: str,
           log=print) -> dict:
    """One traced process, then untraced ones while they fit in ``seconds``
    (at least one); the per-module metrics.  The tracing overhead is the
    traced wall time minus the median untraced one."""
    t = translation(seed) if w.seeded else 0
    start = time.monotonic()
    trace_out = os.path.join(workdir, "trace.json")
    hooked = run_workload_process(w, t, os.path.join(workdir, "traced"),
                                  start + HARD_LIMIT_S, digests, trace_out)
    if hooked.problem:
        log(f"traced process failed: {hooked.problem}")
    plain = run_untraced(w, t, start, seconds, digests, workdir, log)
    untraced_wall = statistics.median(s.wall_s for s in plain)
    try:
        with open(trace_out) as fh:
            summary = json.load(fh)
        shutil.move(trace_out + ".spans", os.path.join(WORK, f"{w.name}.spans"))
    except (OSError, ValueError):
        summary = {"stats": {}, "counters": {}, "spans": 0, "missing": [],
                   "incomplete": [], "broken": []}
    extra = {"report_bytes": hooked.report_bytes or None, "spans": summary["spans"],
             "overhead": hooked.wall_s - untraced_wall}
    metrics, missing = per_layer_metrics(summary, extra)
    log(f"workload {w.name}, seed {seed} (shift translation {t}), traced, "
        f"in {time.monotonic() - start:.1f} s")
    log(f"  traced wall_s {hooked.wall_s:.6f} s, untraced median wall_s "
        f"{untraced_wall:.6f} s (n={len(plain)})")
    for name, m in metrics.items():
        v = m["value"]
        log(f"  {name:<34} {v:>14d} {m['unit']}" if isinstance(v, int)
            else f"  {name:<34} {v:>14.6f} {m['unit']}")
    if missing or summary["missing"]:
        log(f"  missing metrics: {missing}; hooks not found: {summary['missing']}")
    attempted = hooked.attempted + sum(s.attempted for s in plain)
    failed = hooked.failed + sum(s.failed for s in plain)
    log(f"  {'fail_ratio':<34} {failed / attempted:>14.6f} ratio  "
        f"{failed} of {attempted} identities failed")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "diskhall", "cli.py")):
        print(f"perfbench: no diskhall source tree under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    w = WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(dir=WORK) as workdir:
        if args.trace:
            result = traced(w, args.seed, args.seconds, load_digests(), workdir)
        else:
            result = measure(w, args.seed, args.seconds, load_digests(), workdir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
