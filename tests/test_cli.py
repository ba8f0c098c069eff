"""Command-line interface: exit codes, output formats, determinism."""

import json
import os
import resource
import subprocess
import sys
import time

import pytest

import diskhall
from diskhall import cli
from diskhall.cli import main
from diskhall.surface import load_config


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_quiver_passes(capsys):
    code, out, _ = run(capsys, "verify-quiver", "--m", "2", "--shifts", "0..1",
                       "--q", "2")
    assert code == 0
    assert "verify-quiver: pass" in out


def test_negative_shift_window_is_accepted(capsys):
    code, out, _ = run(capsys, "verify-quiver", "--m", "2", "--shifts", "-1..1",
                       "--q", "2")
    assert code == 0


@pytest.mark.parametrize("argv", [
    ("verify-quiver", "--m", "3", "--shifts", "3000000000..3000000001", "--q", "2"),
    ("verify-disk", "--m", "4", "--h", "1,0,1,0", "--shifts", "-3000000001..-3000000000",
     "--q", "3"),
])
def test_shifts_beyond_32_bits_pass(capsys, argv):
    """Class ids carry their lowest shift, with no bound on it: windows
    beyond +-2^31 verify like any other."""
    code, out, _ = run(capsys, *argv, "--format", "json")
    payload = json.loads(out)
    assert code == 0 and payload["status"] == "pass"
    assert all(r["failed"] == 0 and r["total"] > 0 for r in payload["reports"])


def test_json_output_schema(capsys):
    code, out, _ = run(capsys, "verify-quiver", "--m", "2", "--shifts", "0..1",
                       "--q", "2", "--format", "json")
    payload = json.loads(out)
    assert code == 0
    assert payload["schema"] == 1
    assert payload["status"] == "pass"
    assert payload["reports"][0]["failed"] == 0


def test_output_is_deterministic(capsys):
    args = ("verify-quiver", "--m", "3", "--shifts", "0..1", "--q", "2",
            "--format", "json")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify-quiver", "--m", "2", "--shifts", "0..0",
                       "--q", "2", "--format", "json", "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["schema"] == 1


@pytest.mark.parametrize("argv", [
    ("verify-quiver", "--m", "3", "--shifts", "0..0", "--q", "2"),
    ("presentation", "{config}", "--q", "2", "--shifts", "0..0"),
], ids=["report", "presentation-text"])
def test_unwritable_out_is_a_usage_error(tmp_path, capsys, argv):
    cfg = tmp_path / "disk.json"
    cfg.write_text(json.dumps({"disks": [{"m": 3, "h": [1, 0, 0]}]}))
    argv = [str(cfg) if a == "{config}" else a for a in argv]
    for target in (tmp_path / "missing" / "x.json", tmp_path):
        code, out, err = run(capsys, *argv, "--out", str(target))
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot write {target}")
        assert "Traceback" not in err


def test_unwritable_out_is_refused_before_computing(tmp_path, capsys, monkeypatch):
    def verify(*_args):
        raise AssertionError("verified before checking --out")

    monkeypatch.setattr(cli, "verify_relation_set", verify)
    missing = tmp_path / "missing" / "x.json"
    for target in (missing, tmp_path):
        code, out, err = run(capsys, "verify-disk", "--m", "5", "--h", "1,0,1,0,1",
                             "--shifts", "-1..1", "--q", "2", "--out", str(target))
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot write {target}: ")
    assert list(tmp_path.iterdir()) == []


def test_usage_errors_exit_2(capsys):
    assert run(capsys, "verify-quiver", "--m", "1")[0] == 2
    assert run(capsys, "verify-quiver", "--q", "6")[0] == 2
    assert run(capsys, "verify-quiver", "--shifts", "3..1")[0] == 2
    code, _, err = run(capsys, "verify-disk", "--m", "4", "--h", "1,1,1,1")
    assert code == 2
    assert "sum m - 2" in err


def test_verify_disk(capsys):
    code, out, _ = run(capsys, "verify-disk", "--m", "3", "--h", "1,0,0",
                       "--q", "2", "--shifts", "0..1")
    assert code == 0
    assert "cyclic family" in out


def test_multiply_square_fixture(capsys):
    code, out, _ = run(capsys, "multiply", "z[1,0]", "z[1,0]", "--m", "2",
                       "--q", "2")
    assert code == 0
    assert "3*sqrt(2)*[M[1,2) + M[1,2)]" in out


def test_multiply_parse_errors(capsys):
    assert run(capsys, "multiply", "z[9,0]", "z[1,0]", "--m", "3")[0] == 2
    assert run(capsys, "multiply", "w[1,0]", "z[1,0]", "--m", "3")[0] == 2


def test_presentation_single_disk(tmp_path, capsys):
    cfg = tmp_path / "disk.json"
    cfg.write_text(json.dumps({"disks": [{"m": 3, "h": [1, 0, 0]}]}))
    code, out, _ = run(capsys, "presentation", str(cfg), "--q", "2",
                       "--shifts", "0..1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["presentation"]["verifiable"]
    assert payload["reports"][0]["failed"] == 0


def test_presentation_emit_only(tmp_path, capsys):
    cfg = tmp_path / "disk.json"
    cfg.write_text(json.dumps({"disks": [{"m": 3, "h": [0, 1, 0]}]}))
    code, out, _ = run(capsys, "presentation", str(cfg), "--emit-only",
                       "--shifts", "0..0", "--format", "json")
    assert code == 0
    assert json.loads(out)["reports"] == []


def test_presentation_bad_config(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    assert run(capsys, "presentation", str(cfg))[0] == 2
    missing = tmp_path / "missing.json"
    assert run(capsys, "presentation", str(missing))[0] == 2


def test_field_without_default_modulus(capsys):
    code, out, _ = run(capsys, "verify-quiver", "--m", "3", "--shifts", "0..0",
                       "--q", "16")
    assert code == 0
    assert "2/2 passed (q=16)" in out


def test_repeated_q_values_are_verified_once(capsys):
    code, out, _ = run(capsys, "verify-quiver", "--m", "3", "--shifts", "0..0",
                       "--q", "3,2,3,2", "--format", "json")
    report = json.loads(out)["reports"][0]
    assert code == 0
    assert report["q"] == [3, 2]
    assert report["total"] == 4


@pytest.mark.parametrize("q", [2 ** 40, 10 ** 18 + 3])
def test_q_above_the_bound_is_rejected_at_once(capsys, q):
    """2^40 (a prime power) and 10^18 + 3 (a prime) would take minutes in
    the modulus search or the trial division; both are refused first."""
    start = time.perf_counter()
    code, out, err = run(capsys, "verify-quiver", "--m", "3", "--shifts", "0..0",
                         "--q", f"2,{q}")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert "2^32" in err


def test_largest_prime_below_the_bound_is_accepted(capsys):
    code, out, _ = run(capsys, "verify-quiver", "--m", "3", "--shifts", "0..0",
                       "--q", "4294967291")
    assert code == 0
    assert "2/2 passed (q=4294967291)" in out
    assert cli.MAX_Q == 2 ** 32


def test_exact_results_past_the_int_str_limit_are_printed(capsys):
    """z[1,0]^61 at the largest q has coefficients of more than 4300 digits,
    Python's default int-to-str limit; they print in full, and the limit
    is back in place when main returns."""
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    products = []
    for lhs, rhs in ((60, 1), (30, 31)):
        code, out, _ = run(capsys, "multiply", " ".join(["z[1,0]"] * lhs),
                           " ".join(["z[1,0]"] * rhs), "--m", "2", "--q", "4294967291",
                           "--format", "json")
        assert code == 0
        products.append(json.loads(out)["products"])
    assert products[0] == products[1]
    assert max(len(t["coeff"]["a"]) for t in products[0][0]["terms"]) > 4300
    code, out, _ = run(capsys, "multiply", "z[1,0]", "1e4300", "--m", "3", "--q", "2",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["products"][0]["terms"][0]["coeff"]["a"] == "1" + "0" * 4300
    if limit is not None:
        assert sys.get_int_max_str_digits() == limit


@pytest.mark.parametrize("token", ["1e5000", "1e-5000", "1e99999999", "7" * 5000,
                                   "1/" + "3" * 5000])
def test_coefficient_past_the_digit_limit_is_a_usage_error(capsys, token):
    start = time.perf_counter()
    code, out, err = run(capsys, "multiply", "z[1,0]", token, "--m", "3", "--q", "2")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert "too large" in err


def test_bad_arc_is_a_usage_error(capsys):
    code, _, err = run(capsys, "multiply", "z[(1,5),0]", "z[1,0]", "--m", "3")
    assert code == 2
    assert "1 <= a < b <= m" in err


def test_internal_error_exits_3(capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_verify_quiver", broken)
    code, out, err = run(capsys, "verify-quiver", "--m", "3", "--q", "2")
    assert code == 3
    assert out == ""
    assert "Traceback" in err
    assert err.endswith("\ninternal error: RuntimeError: boom\n")


def test_help_documents_exit_codes(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    out = capsys.readouterr().out
    for code in "0123":
        assert f"\n  {code}  " in out


def test_bigon_disk_is_a_usage_error(capsys):
    """In a bigon E_1 and E_2 are shifts of one z_1, so (R2) does not apply."""
    code, out, err = run(capsys, "verify-disk", "--m", "2", "--h", "0,0", "--q", "2")
    assert code == 2
    assert out == ""
    assert "need m >= 3" in err


def test_lone_bigon_presentation_is_a_usage_error(tmp_path, capsys):
    """A lone bigon is rejected as in verify-disk; load_config still accepts
    bigons, which are valid pieces of a gluing."""
    raw = {"disks": [{"m": 2, "h": [0, 0]}]}
    assert load_config(raw).disks[0].m == 2
    cfg = tmp_path / "bigon.json"
    cfg.write_text(json.dumps(raw))
    code, out, err = run(capsys, "presentation", str(cfg), "--q", "2",
                         "--shifts", "0..0")
    assert code == 2
    assert out == ""
    assert "need m >= 3" in err


BIGON_PIECES = {
    "bigon+triangle": {"disks": [{"m": 2, "h": [0, 0]}, {"m": 3, "h": [1, 0, 0]}],
                       "gluings": [{"left": 0, "arc_i": 1, "right": 1, "arc_j": 2}]},
    "bigon+bigon": {"disks": [{"m": 2, "h": [0, 0]}, {"m": 2, "h": [0, 0]}],
                    "gluings": [{"left": 0, "arc_i": 1, "right": 1, "arc_j": 2}]},
}


@pytest.mark.parametrize("raw", BIGON_PIECES.values(), ids=BIGON_PIECES.keys())
def test_gluing_with_a_bigon_piece_passes(tmp_path, capsys, raw):
    """A bigon glued to a disk has no adjacent (R2) commutations: its E_2 is
    a shift of E_1, so every identity emitted for it holds."""
    cfg = tmp_path / "surface.json"
    cfg.write_text(json.dumps(raw))
    for window in ("0..0", "-1..1"):
        code, out, _ = run(capsys, "presentation", str(cfg), "--q", "2,3",
                           f"--shifts={window}")
        assert code == 0, out
        assert out.startswith("presentation: pass\n")
        assert "disk0 (R2) i=" not in out


def test_disk_glued_to_itself_is_emission_only(tmp_path, capsys):
    """Two disks with one gluing that joins a disk to itself is not a glued
    disk, so no oracle checks it."""
    raw = {"disks": [{"m": 4, "h": [0, 1, 0, 1]}, {"m": 3, "h": [1, 0, 0]}],
           "gluings": [{"left": 0, "arc_i": 1, "right": 0, "arc_j": 3}]}
    cfg = tmp_path / "surface.json"
    cfg.write_text(json.dumps(raw))
    with pytest.warns(UserWarning, match="marked intervals"):
        code, out, err = run(capsys, "presentation", str(cfg), "--q", "2",
                             "--shifts", "0..0")
    assert code == 2
    assert out == ""
    assert "--emit-only" in err


def test_removed_options_are_usage_errors(capsys):
    """``--jobs`` is gone, and ``multiply`` takes no shift window: both are
    unknown options, exit 2."""
    for argv in (["verify-quiver", "--m", "3", "--shifts", "0..1", "--q", "2", "--jobs", "1"],
                 ["multiply", "z[1,0]", "z[1,0]", "--m", "2", "--q", "2",
                  "--shifts", "0..0"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert "unrecognized arguments" in capsys.readouterr().err


def test_large_field_uses_bounded_memory(tmp_path):
    """q = 10007 computes (output recorded from the per-operation field code)
    and stays far below the ~800 MB one full q x q table would take.  The
    address-space cap makes a regression fail fast instead of exhausting
    memory."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(diskhall.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out_path, err_path = tmp_path / "out.txt", tmp_path / "err.txt"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "diskhall.cli", "multiply", "z[1,0] z[2,0]",
             "z[2,0] z[1,0]", "--m", "3", "--q", "10007"],
            stdout=out, stderr=err, env=env,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)))
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    assert proc.returncode == 0, err_path.read_text()
    assert out_path.read_text() == (
        "multiply: pass\n"
        "  q=10007: 100160064*[M[1,2) + M[1,2) + M[2,3) + M[2,3)]"
        " + 10008*[M[1,2) + M[1,3) + M[2,3)]\n")
    assert usage.ru_maxrss < 200 * 1024  # kilobytes on Linux


@pytest.mark.parametrize("raw", [
    {"disks": [{"m": 3, "h": [1, 0, 0]}] * 2, "gluings": [[0, 1, 2, 3]]},
    {"disks": [{"m": 3}]},
    {"disks": {"m": 3}},
    {"disks": [{"m": 3, "h": [1, 0, 0]}] * 2,
     "gluings": [{"left": 0, "arc_i": 3, "right": 1}]},
], ids=["gluing-as-list", "disk-without-h", "disks-as-object", "gluing-without-arc_j"])
def test_malformed_config_is_a_usage_error(tmp_path, capsys, raw):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(raw))
    code, out, err = run(capsys, "presentation", str(cfg), "--q", "2",
                         "--shifts", "0..0")
    assert code == 2
    assert out == ""
    assert "internal error" not in err


CHAIN_OF_TRIANGLES = {
    "disks": [{"m": 3, "h": [1, 0, 0]}] * 3,
    "gluings": [{"left": 0, "arc_i": 3, "right": 1, "arc_j": 1},
                {"left": 1, "arc_i": 3, "right": 2, "arc_j": 1}]}
ANNULUS = {
    "disks": [{"m": 4, "h": [0, 1, 0, 1]}] * 2,
    "gluings": [{"left": 0, "arc_i": 1, "right": 1, "arc_j": 1},
                {"left": 0, "arc_i": 3, "right": 1, "arc_j": 3}]}


@pytest.mark.parametrize("raw", [CHAIN_OF_TRIANGLES, ANNULUS],
                         ids=["three-triangles", "annulus"])
def test_unchecked_presentation_is_never_a_pass(tmp_path, capsys, raw):
    """No oracle checks these configs: without --emit-only the command is a
    usage error; with it the status is "emitted", not "pass"."""
    cfg = tmp_path / "surface.json"
    cfg.write_text(json.dumps(raw))
    code, out, err = run(capsys, "presentation", str(cfg), "--q", "2",
                         "--shifts", "0..0")
    assert code == 2
    assert out == ""
    assert "--emit-only" in err
    code, out, _ = run(capsys, "presentation", str(cfg), "--emit-only",
                       "--shifts", "0..0")
    assert code == 0
    assert out.startswith("presentation: emitted\n")
    code, out, _ = run(capsys, "presentation", str(cfg), "--emit-only",
                       "--shifts", "0..0", "--format", "json")
    payload = json.loads(out)
    assert code == 0
    assert payload["status"] == "emitted"
    assert payload["reports"] == []
    assert not payload["presentation"]["verifiable"]
