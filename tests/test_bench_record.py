"""The statistics of ``tools/bench_record.py`` on made-up pairs; the CI
smoke step runs the whole recorder once."""

import importlib.util
import os

import pytest

spec = importlib.util.spec_from_file_location(
    "bench_record", os.path.join(os.path.dirname(__file__), "..", "tools", "bench_record.py"))
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)

METRICS = {"wall_s": ("s", "lower"), "identities_per_s": ("1/s", "higher")}


def result(wall, rate):
    return {"correct": True, "metrics": {"wall_s": {"value": wall, "unit": "s"},
                                         "identities_per_s": {"value": rate, "unit": "1/s"}}}


def test_wins_follow_the_metric_direction_and_ties_count_for_neither():
    pairs = [(result(1.0, 10), result(0.9, 11)), (result(1.0, 10), result(1.0, 10)),
             (result(1.0, 10), result(1.2, 9)), (result(2.0, 5), result(0.5, 20))]
    out = bench_record.summarise(pairs, METRICS)
    assert out["wall_s"]["change_wins"] == out["identities_per_s"]["change_wins"] == 2
    assert out["wall_s"]["parent"] == {"n": 4, "min": 1.0, "median": 1.0, "q1": 1.0,
                                       "q3": 1.25}
    assert out["wall_s"]["change"]["median"] == 0.95
    assert out["identities_per_s"]["better"] == "higher"


def test_one_pair_and_a_missing_metric():
    parent, change = result(1.0, 10), result(0.8, 12)
    del change["metrics"]["identities_per_s"]
    out = bench_record.summarise([(parent, change)], METRICS)
    assert set(out) == {"wall_s"}
    assert out["wall_s"]["change"] == {"n": 1, "min": 0.8, "median": 0.8, "q1": 0.8, "q3": 0.8}
    record = {"workloads": {"w": {"metrics": out, "failures": []}}}
    assert bench_record.smoke_check(record) == []
    record["workloads"]["w"]["failures"] = [{"seed": 1, "side": "change", "problem": "x"}]
    assert len(bench_record.smoke_check(record)) == 1


def test_working_tree_is_the_tree_its_commit_would_have(tmp_path, monkeypatch):
    monkeypatch.setattr(bench_record, "ROOT", str(tmp_path))
    git = bench_record.git
    git("init", "-q")
    (tmp_path / ".gitignore").write_text("out/\n")
    (tmp_path / "a.py").write_text("x = 1\n")
    git("add", "-A")
    git("-c", "user.name=t", "-c", "user.email=t@t", "commit", "-qm", "a")
    assert bench_record.working_tree() == git("rev-parse", "HEAD^{tree}")
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "log").write_text("ignored\n")
    (tmp_path / "b.py").write_text("y = 2\n")
    dirty = bench_record.working_tree()
    assert dirty != git("rev-parse", "HEAD^{tree}")
    assert git("status", "--porcelain") == "?? b.py"
    git("add", "-A")
    git("-c", "user.name=t", "-c", "user.email=t@t", "commit", "-qm", "b")
    assert dirty == git("rev-parse", "HEAD^{tree}")


def test_both_sides_run_from_fresh_exports(tmp_path, monkeypatch):
    """Each side runs from a ``git archive`` export: the change side has the
    working tree's files, untracked ones included, and none of its ignored
    files (such as bytecode caches), just as the parent side."""
    monkeypatch.setattr(bench_record, "ROOT", str(tmp_path))
    monkeypatch.setattr(bench_record, "WORK", str(tmp_path / ".perfbench"))
    git = bench_record.git
    git("init", "-q")
    (tmp_path / ".gitignore").write_text("__pycache__/\n.perfbench/\n")
    (tmp_path / "a.py").write_text("x = 1\n")
    git("add", "-A")
    git("-c", "user.name=t", "-c", "user.email=t@t", "commit", "-qm", "a")
    (tmp_path / "b.py").write_text("y = 2\n")
    (tmp_path / "__pycache__").mkdir()
    (tmp_path / "__pycache__" / "a.pyc").write_text("cache\n")
    seen = {}

    def run_side(root, workload, seed, seconds):
        seen[len(seen)] = (root, sorted(os.listdir(root)))
        return result(1.0, 1.0)

    monkeypatch.setattr(bench_record, "run_side", run_side)
    bench_record.record(["w"], 1, 1.0, METRICS, log=lambda line: None)
    (parent, parent_files), (change, change_files) = seen[0], seen[1]
    assert str(tmp_path) not in (parent, change) and parent != change
    assert parent_files == [".gitignore", "a.py"]
    assert change_files == [".gitignore", "a.py", "b.py"]


def test_outside_a_git_checkout_one_line_and_exit_2(tmp_path, monkeypatch, capsys):
    """In a directory that is no git checkout (such as a ``git archive``
    export) the recorder names the failed git call in one line, exits 2
    and writes nothing."""
    monkeypatch.setattr(bench_record, "ROOT", str(tmp_path))
    monkeypatch.setattr(bench_record, "WORK", str(tmp_path / ".perfbench"))
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path.parent))
    with pytest.raises(SystemExit) as exit_info:
        bench_record.main(["--smoke"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("bench_record: git rev-parse HEAD failed: ")
    assert list(tmp_path.iterdir()) == []
