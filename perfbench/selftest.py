"""Fast self-test of the benchmark itself, on tiny CLI inputs (a few seconds).

usage: python3 perfbench/selftest.py

Checks that a passing run reports every end-to-end metric, that a child
exiting non-zero or writing a report other than the recorded one shows up as
failed identities (and so in ``fail_ratio``), that two traced runs repeat
their counts exactly, that a metric whose hook prefix lost one of its
targets is reported as missing, that the metric names match
``BENCHMARK.json``, and that the benchmark refuses to run without a source
tree.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import types

import hooks
import run

TINY = run.Workload("tiny", lambda t: ["verify-quiver", "--m", "3", "--shifts",
                                       run.window(0, 1, t), "--q", "2"], 8)
# m = 1 is a usage error: the CLI exits with code 2
BROKEN = run.Workload("broken", lambda t: ["verify-quiver", "--m", "1", "--shifts",
                                           "0..1", "--q", "2"], 8)


def quiet(*_args):
    pass


def main() -> int:
    failures = []

    def check(ok, what):
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            failures.append(what)

    os.makedirs(run.WORK, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as wd:
        r = run.measure(TINY, 0, 0.1, {}, wd, log=quiet)
        check(r["correct"] and r["failed"] == 0 and r["attempted"] == 8,
              "tiny run passes its checks")
        check(set(r["metrics"]) == set(run.END_TO_END)
              and all(m["value"] > 0 for m in r["metrics"].values()),
              "tiny run reports every end-to-end metric, none zero")
        check(r["metrics"]["setup_s"]["value"] < r["metrics"]["wall_s"]["value"],
              "setup_s is shorter than wall_s")

        r = run.measure(BROKEN, 0, 0.1, {}, wd, log=quiet)
        check(not r["correct"] and r["failed"] == r["attempted"] > 0,
              "a child exiting non-zero gives fail_ratio 1")

        r = run.measure(TINY, 0, 0.1, {"tiny": {"0": "0" * 64}}, wd, log=quiet)
        check(not r["correct"] and r["failed"] == r["attempted"],
              "a report differing from the recorded digest counts as failed")

        a = run.traced(TINY, 0, 0.1, {}, wd, log=quiet)
        b = run.traced(TINY, 0, 0.1, {}, wd, log=quiet)
        check(a["correct"] and set(a["metrics"]) == {n for n, _u, _s in run.PER_LAYER},
              "traced run reports every per-module metric")
        counts = [n for n, unit, _s in run.PER_LAYER if unit == "count"]
        check(all(a["metrics"][n] == b["metrics"][n] for n in counts),
              "two traced runs give identical counts")
        check(a["metrics"]["repq.cone.calls"]["value"] > 0
              and a["metrics"]["presentation.relations"]["value"] == 8,
              "traced counts see the work of the run")

        # a prefix with one of its two targets gone: its metrics are missing,
        # not measured over the target that remains
        fake = types.ModuleType("perfbench_fake")
        sys.modules[fake.__name__] = fake
        for targets, reported in ((["present"], True), (["present", "gone"], False)):
            fake.present = lambda: None
            tracer = hooks.Tracer()
            tracer.install([("repq.cone", hooks.SPAN, fake.__name__, t) for t in targets])
            fake.present()
            metrics, missing = run.per_layer_metrics(
                tracer.summary(), {"report_bytes": 1, "spans": 1, "overhead": 1.0})
            if reported:
                check(metrics.get("repq.cone.calls", {}).get("value") == 1
                      and not tracer.missing,
                      "a hook with all its targets present is counted")
            else:
                check(tracer.missing == ["perfbench_fake.gone"]
                      and {"repq.cone.calls", "repq.cone.self_s"} <= set(missing)
                      and "repq.cone.calls" not in metrics,
                      "a prefix with one target gone reports its metrics as missing")

        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
            bench = json.load(fh)
        check([m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
              and [m["name"] for m in bench["per_layer"]] == [n for n, _u, _s in run.PER_LAYER]
              and [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS),
              "BENCHMARK.json names the metrics and workloads run.py reports")
        check(all(m["unit"] == run.END_TO_END[m["name"]] for m in bench["end_to_end"])
              and [m["unit"] for m in bench["per_layer"]] == [u for _n, u, _s in run.PER_LAYER],
              "BENCHMARK.json units match run.py")

        bare = os.path.join(wd, "bare")
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                               "skein", "--seed", "0", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=60)
        check(proc.returncode != 0 and "{" not in proc.stdout,
              "without a source tree the benchmark exits non-zero and prints no result")

    print("selftest: " + ("ok" if not failures else f"{len(failures)} failed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
