"""Record alternating parent/change benchmark pairs as ``BENCH_<tag>.json``.

usage: python3 tools/bench_record.py --tag TAG
       python3 tools/bench_record.py --smoke

Standard library only.  The parent is the committed tree of ``HEAD`` and
the change is the working tree's files, as ``git add -A`` would stage them;
each is exported with ``git archive`` into a temporary directory under
``.perfbench/``, so both sides start as the same kind of fresh copy.  (The
working tree itself may hold bytecode caches from test runs, which the
measured processes do not write and which shorten its imports.)  For each
workload of ``BENCHMARK.json``, pair i (i = 1..PAIRS) runs the unmodified
``perfbench/run.py`` of each side once, with ``--seed i --seconds S
--trace 0`` where S is the benchmark's ``run_seconds``, and the side that
goes first alternates from pair to pair.  Each run prints the medians over
its processes; a pair compares those.

The output has the schema number, the Python version, ``nproc``, the
parent's revision and git tree, the git tree of the measured working tree
(its files, untracked ones included, as ``git add -A`` would stage them;
equal to the tree of the commit that records them) and, per workload and
end-to-end metric of ``BENCHMARK.json``,
``n``, ``min``, ``median``, ``q1`` and ``q3`` of each side over its pairs,
and ``change_wins``, the number of pairs in which the change reads better
(ties count for neither side).  A run that is not ``correct`` is listed
under ``failures`` and its pair is left out of the metrics.

``--smoke`` runs one pair of the first workload at ``--seconds 1``, writes
into a temporary directory and checks the file it wrote.  A failed git
command, as outside a git checkout, ends the run with exit code 2 and one
line that names it.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".perfbench")
SCHEMA = 2
PAIRS = 10
SMOKE_SECONDS = 1.0


def git(*args: str, env=None, raw=False):
    """The output of ``git *args`` run in ``ROOT``: stripped text, or bytes
    when ``raw``.  A failed call (say, outside a git checkout) ends the
    process with exit code 2 and one line naming the command and its error."""
    proc = subprocess.run(["git", *args], cwd=ROOT, env=env, capture_output=True)
    if proc.returncode:
        err = " ".join(proc.stderr.decode(errors="replace").split())
        print(f"bench_record: git {' '.join(args)} failed: {err}", file=sys.stderr)
        raise SystemExit(2)
    return proc.stdout if raw else proc.stdout.decode().strip()


def working_tree() -> str:
    """The git tree of the working tree's files, staged into a scratch index
    so that the repository's own index is left alone."""
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, GIT_INDEX_FILE=os.path.join(tmp, "index"))
        git("add", "-A", env=env)
        return git("write-tree", env=env)


def export(rev: str, dest: str) -> None:
    """The tree of ``rev``, a commit or a tree, under ``dest``."""
    tar = git("archive", "--format=tar", rev, raw=True)
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest)  # this repository's own tree


def run_side(root: str, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run of the checkout at ``root``: its JSON
    result, or {"correct": False, "problem": ...} when it has none."""
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, stdin=subprocess.DEVNULL, capture_output=True,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"correct": False,
                "problem": f"exit code {proc.returncode}: {proc.stderr[-400:].strip()}"}


def describe(values) -> dict:
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"n": len(values), "min": min(values), "median": med, "q1": q1, "q3": q3}


def summarise(pairs, metrics) -> dict:
    """Per metric, each side's statistics and the change's wins over
    ``pairs``, a list of (parent result, change result) that are correct;
    ``metrics`` maps a metric name to (unit, "lower" or "higher")."""
    out = {}
    for name, (unit, better) in metrics.items():
        both = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                for p, c in pairs if name in p["metrics"] and name in c["metrics"]]
        if not both:
            continue
        sign = 1 if better == "lower" else -1
        out[name] = {"unit": unit, "better": better,
                     "parent": describe([p for p, _c in both]),
                     "change": describe([c for _p, c in both]),
                     "change_wins": sum(1 for p, c in both if sign * (p - c) > 0)}
    return out


def record(workloads, pairs: int, seconds: float, metrics, log=print) -> dict:
    os.makedirs(WORK, exist_ok=True)
    result = {
        "schema": SCHEMA,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "parent": {"rev": git("rev-parse", "HEAD"), "tree": git("rev-parse", "HEAD^{tree}")},
        "change": {"tree": working_tree()},
        "pairs": pairs,
        "seconds": seconds,
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(dir=WORK, prefix="bench_record-") as tmp:
        sides = {side: os.path.join(tmp, side) for side in ("parent", "change")}
        export(result["parent"]["rev"], sides["parent"])
        export(result["change"]["tree"], sides["change"])
        for w in workloads:
            good, failures = [], []
            for seed in range(1, pairs + 1):
                order = ["parent", "change"] if seed % 2 else ["change", "parent"]
                got = {side: run_side(sides[side], w, seed, seconds) for side in order}
                for side in order:
                    if not got[side].get("correct"):
                        failures.append({"seed": seed, "side": side,
                                         "problem": got[side].get("problem", got[side])})
                if all(got[side].get("correct") for side in order):
                    good.append((got["parent"], got["change"]))
                wall = {s: got[s].get("metrics", {}).get("wall_s", {}).get("value")
                        for s in order}
                log(f"{w} pair {seed}: wall_s parent {wall['parent']} change {wall['change']}")
            result["workloads"][w] = {"metrics": summarise(good, metrics),
                                      "failures": failures}
    return result


def smoke_check(result: dict) -> list:
    """What is wrong with a one-pair smoke record, as a list of messages."""
    problems = []
    for name, w in result["workloads"].items():
        if w["failures"]:
            problems.append(f"{name}: failed runs {w['failures']}")
        for metric, m in w["metrics"].items():
            if not (m["parent"]["n"] == m["change"]["n"] == 1 and m["change_wins"] in (0, 1)):
                problems.append(f"{name}.{metric}: {m}")
        if not w["metrics"]:
            problems.append(f"{name}: no metrics")
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--tag")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    git("rev-parse", "HEAD")  # outside a git checkout there is no parent: stop first
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    metrics = {m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    if args.smoke:
        result = record(workloads[:1], 1, SMOKE_SECONDS, metrics)
        with tempfile.TemporaryDirectory(dir=WORK) as tmp:
            path = os.path.join(tmp, "BENCH_smoke.json")
            with open(path, "w") as fh:
                json.dump(result, fh, indent=1)
            with open(path) as fh:
                problems = smoke_check(json.load(fh))
        for p in problems:
            print(f"bench_record smoke: {p}", file=sys.stderr)
        print("bench_record smoke: " + ("FAIL" if problems else "ok"))
        return 1 if problems else 0
    if not args.tag:
        ap.error("--tag is required without --smoke")
    result = record(workloads, PAIRS, bench["run_seconds"], metrics)
    path = os.path.join(ROOT, f"BENCH_{args.tag}.json")
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
