"""Command-line front end: batch relation verification and products.

Subcommands
    verify-quiver   the (H1)-(H3) families for the shifted quiver generators
    verify-disk     (R1)-(R3) plus the cyclic ladders for one marked disk
    verify-skein    interior/boundary/local skein identities
    multiply        evaluate a product of generators in the Hall algebra
    presentation    verify a surface presentation, or emit it with --emit-only

Exit codes: 0 all checks pass (or, with presentation --emit-only, the
presentation was emitted unchecked), 1 at least one identity failed,
2 usage or validation error (including a presentation no oracle checks,
without --emit-only), 3 internal error.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import re
import sys
from fractions import Fraction

from .freealg import NCPolynomial, zab, zgen
from .presentation import (cyclic_family, minimal_disk_relations, naive_presentation,
                           quiver_relations, shared_algebra, verify_relation_set)
# perfbench/hooks.py traces the skein sets under these names in this module
from .presentation import chord_skein_set as _chord_skein_set
from .presentation import local_skein_relations as _local_skein_relations
from .scalar import is_prime_power
from .surface import FoliationData, MarkedDisk, load_config


EXIT_CODES = """exit codes:
  0  every identity holds (presentation --emit-only: emitted, nothing checked)
  1  at least one identity failed
  2  usage or validation error
  3  internal error (an unexpected exception)"""


class UsageError(Exception):
    pass


#: the largest q accepted: past it, factoring q and searching for an
#: irreducible modulus of F_q take longer than any check is worth
MAX_Q = 2 ** 32

#: the most digits, and the largest decimal exponent, of a coefficient token
#: (Python's default int/str conversion limit): a larger token is rejected
#: before its integers are built
MAX_DIGITS = 4300


def _parse_window(text: str):
    m = re.fullmatch(r"(-?\d+)\.\.(-?\d+)", text.strip())
    if not m:
        raise UsageError(f"bad shift window {text!r}; expected lo..hi")
    lo, hi = int(m.group(1)), int(m.group(2))
    if lo > hi:
        raise UsageError(f"bad shift window {text!r}: {lo} > {hi}")
    return lo, hi


def _parse_qs(text: str):
    out = []
    for part in text.split(","):
        part = part.strip()
        try:
            q = int(part)
        except ValueError:
            raise UsageError(f"bad q value {part!r}")
        if q > MAX_Q:  # before the trial division of is_prime_power
            raise UsageError(f"q = {q} exceeds the largest supported q, 2^32")
        if q < 2 or not is_prime_power(q):
            raise UsageError(f"q = {q} is not a prime power >= 2")
        if q not in out:
            out.append(q)
    return out


def _parse_ints(text: str):
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise UsageError(f"bad integer list {text!r}")


def _emit(payload: dict, fmt: str, out_path):
    if fmt == "json":
        text = json.dumps(payload, indent=2, sort_keys=False) + "\n"
    else:
        lines = [f"{payload['command']}: {payload['status']}"]
        for rep in payload.get("reports", []):
            lines.append(f"  [{rep['name']}] {rep['total'] - rep['failed']}/"
                         f"{rep['total']} passed (q={','.join(map(str, rep['q']))})")
            for row in rep["results"]:
                if not row["passed"]:
                    lines.append(f"    FAIL q={row['q']} {row['label']}: "
                                 f"diff = {row['diff']}")
        for extra in payload.get("lines", []):
            lines.append(f"  {extra}")
        text = "\n".join(lines) + "\n"
    _write(text, out_path)


def _write(text: str, out_path):
    if not out_path:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w") as fh:
            fh.write(text)
    except OSError as ex:
        raise UsageError(f"cannot write {out_path}: {ex.strerror or ex}")


def _check_out(out_path):
    """Reject an ``--out`` that is a directory or lies in a missing one
    before anything is computed; ``_write`` reports any other failure."""
    if out_path and os.path.isdir(out_path):
        raise UsageError(f"cannot write {out_path}: {os.strerror(errno.EISDIR)}")
    if out_path and not os.path.isdir(os.path.dirname(out_path) or "."):
        raise UsageError(f"cannot write {out_path}: {os.strerror(errno.ENOENT)}")


def _finish(payload, args):
    _emit(payload, args.format, args.out)
    return 0 if payload["status"] == "pass" else 1


def _report_payload(command: str, reports):
    status = "pass" if all(r["passed"] for r in reports) else "fail"
    return {"schema": 1, "command": command, "status": status, "reports": reports}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_verify_quiver(args) -> int:
    if args.m < 2:
        raise UsageError(f"need m >= 2 for the quiver suite, got m = {args.m}")
    rs = quiver_relations(args.m, args.shifts)
    rep = verify_relation_set(rs, args.q)
    return _finish(_report_payload("verify-quiver", [rep]), args)


def cmd_verify_disk(args) -> int:
    if args.h is None:
        raise UsageError("verify-disk requires --h")
    if args.m < 3:  # in a bigon E_1, E_2 are shifts of one z_1; (R2) does not apply
        raise UsageError(f"need m >= 3 for a marked disk, got m = {args.m}")
    if len(args.h) != args.m or sum(args.h) != args.m - 2:
        raise UsageError(
            f"foliation data must have m = {args.m} entries with sum m - 2 = "
            f"{args.m - 2}; got {list(args.h)} (sum {sum(args.h)})")
    disk = MarkedDisk(FoliationData(args.m, args.h))
    reports = [verify_relation_set(minimal_disk_relations(disk, args.shifts), args.q)]
    for i in range(1, args.m + 1):
        reports.append(verify_relation_set(cyclic_family(disk, i), args.q))
    return _finish(_report_payload("verify-disk", reports), args)


def cmd_verify_skein(args) -> int:
    reports = [verify_relation_set(_local_skein_relations(args.shifts), args.q)]
    for m in (4, 5):
        reports.append(verify_relation_set(_chord_skein_set(m, args.shifts), args.q))
    return _finish(_report_payload("verify-skein", reports), args)


# a pattern, not a compiled one: only ``multiply`` parses generators, and re
# caches what it compiles
_GEN_RE = r"([A-Za-z]+)\[(?:\((\d+),(\d+)\)|(\d+)),(-?\d+)\]"


def _parse_expr(text: str, m: int) -> NCPolynomial:
    out = NCPolynomial.one()
    toks = [t for t in re.split(r"[\s*]+", text.strip()) if t]
    if not toks:
        raise UsageError("empty expression")
    for tok in toks:
        mm = re.fullmatch(_GEN_RE, tok)
        if mm:
            fam, a, b, i, n = mm.groups()
            if fam != "z":
                raise UsageError(f"unknown generator family {fam!r}; use z[i,n]")
            if a is not None:
                try:
                    out = out * zab(int(a), int(b), int(n), m)
                except ValueError as ex:
                    raise UsageError(str(ex))
            else:
                idx = int(i)
                if not 1 <= idx < m:
                    raise UsageError(f"generator index {idx} out of range 1..{m - 1}")
                out = out * zgen(idx, int(n))
            continue
        mantissa, _, exponent = tok.lower().partition("e")
        try:
            if (sum(map(str.isdigit, mantissa)) > MAX_DIGITS
                    or abs(int(exponent or 0)) > MAX_DIGITS):
                raise UsageError(f"coefficient {tok!r} is too large: more than "
                                 f"{MAX_DIGITS} digits or an exponent beyond {MAX_DIGITS}")
            out = out.scale(Fraction(tok))
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"cannot parse token {tok!r}")
    return out


def cmd_multiply(args) -> int:
    if args.m < 2:
        raise UsageError(f"need m >= 2, got m = {args.m}")
    qs = args.q
    lhs = _parse_expr(args.lhs, args.m)
    rhs = _parse_expr(args.rhs, args.m)
    lines = []
    terms = []
    for q in qs:
        alg = shared_algebra(args.m, q)
        value = alg.evaluate(lhs * rhs)
        lines.append(f"q={q}: {value}")
        terms.append({"q": q, "value": str(value),
                      "terms": [{"object": str(obj), "coeff": {"a": str(c.a),
                                                               "b": str(c.b), "q": q}}
                                for obj, c in value.sorted_terms()]})
    payload = {"schema": 1, "command": "multiply", "status": "pass",
               "lines": lines, "products": terms}
    _emit(payload, args.format, args.out)
    return 0


def cmd_presentation(args) -> int:
    try:
        with open(args.config) as fh:
            raw = json.load(fh)
    except OSError as ex:
        raise UsageError(f"cannot read config: {ex}")
    except json.JSONDecodeError as ex:
        raise UsageError(f"config is not valid JSON: {ex}")
    try:
        cfg = load_config(raw)
    except ValueError as ex:
        raise UsageError(str(ex))
    # bigons are valid gluing pieces, but a lone one is not a marked disk
    # with (R1)-(R3), as in verify-disk
    if len(cfg.disks) == 1 and not cfg.gluings and cfg.disks[0].m < 3:
        raise UsageError(
            f"need m >= 3 for a single marked disk, got m = {cfg.disks[0].m}")
    rs = naive_presentation(cfg, args.shifts)
    if not rs.verifiable and not args.emit_only:
        raise UsageError(
            "no oracle checks this configuration (only a lone disk or one gluing "
            "of two disks is verified); pass --emit-only to emit it unchecked")
    payload = {"schema": 1, "command": "presentation", "status": "emitted",
               "presentation": rs.to_dict(), "reports": []}
    if not args.emit_only:
        rep = verify_relation_set(rs, args.q)
        payload["reports"] = [rep]
        payload["status"] = "pass" if rep["passed"] else "fail"
    if args.format == "text":
        lines = [f"presentation: {payload['status']}",
                 f"  generators: {len(rs.generators)}  relations: {len(rs.relations)}"
                 f"  verifiable: {rs.verifiable}"]
        lines += [f"  {r}" for r in rs.relations]
        _write("\n".join(lines) + "\n", args.out)
    else:
        _emit(payload, "json", args.out)
    return 1 if payload["status"] == "fail" else 0


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _add_common(p, with_m=True, with_shifts=True):
    if with_m:
        p.add_argument("--m", type=int, default=3, help="number of marked intervals")
    p.add_argument("--q", type=str, default="2,3",
                   help="comma-separated prime powers <= 2^32 (default 2,3)")
    if with_shifts:
        p.add_argument("--shifts", type=str, default="-2..3",
                       help="shift window lo..hi (default -2..3)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", type=str, default=None, help="write report to a file")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="diskhall",
        description="Exact verification of shifted-generator relation families "
                    "in derived Hall algebras of type-A quivers.",
        epilog=EXIT_CODES, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-quiver", help="(H1)-(H3) relation suite")
    _add_common(p)
    p.set_defaults(func=cmd_verify_quiver)

    p = sub.add_parser("verify-disk", help="(R1)-(R3) and cyclic ladders")
    _add_common(p)
    p.add_argument("--h", type=str, default=None,
                   help="comma-separated foliation weights (sum m-2)")
    p.set_defaults(func=cmd_verify_disk)

    p = sub.add_parser("verify-skein", help="interior/boundary/local skein suite")
    _add_common(p, with_m=False)
    p.set_defaults(func=cmd_verify_skein)

    p = sub.add_parser("multiply", help="product of two expressions in the Hall algebra")
    p.add_argument("lhs")
    p.add_argument("rhs")
    _add_common(p, with_shifts=False)
    p.set_defaults(func=cmd_multiply)

    p = sub.add_parser("presentation", help="verify or emit a surface presentation")
    p.add_argument("config", help="surface config JSON file")
    _add_common(p, with_m=False)
    p.add_argument("--emit-only", action="store_true",
                   help='emit without verification, with status "emitted"; '
                        "needed for configs no oracle checks (anything but a lone "
                        "disk or one gluing of two disks)")
    p.set_defaults(func=cmd_presentation)
    return ap


def _merge_dash_values(argv):
    """Join `--shifts -1..2` style pairs so argparse accepts the value."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in ("--shifts", "--h", "--q") and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    ap = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = ap.parse_args(_merge_dash_values(list(argv)))
    # exact results are printed in full, however many digits they have; the
    # old limit comes back on return, since main also runs in-process
    digits = getattr(sys, "get_int_max_str_digits", lambda: None)()
    try:
        if digits is not None:
            sys.set_int_max_str_digits(0)
        args.q = _parse_qs(args.q)
        if hasattr(args, "shifts"):
            args.shifts = _parse_window(args.shifts)
        if getattr(args, "h", None) is not None:
            args.h = _parse_ints(args.h)
        _check_out(args.out)
        return args.func(args)
    except UsageError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    except Exception as ex:
        import traceback  # only a crash needs it; a successful run skips the import
        traceback.print_exc()
        print(f"internal error: {type(ex).__name__}: {ex}", file=sys.stderr)
        return 3
    finally:
        if digits is not None:
            sys.set_int_max_str_digits(digits)


if __name__ == "__main__":
    sys.exit(main())
