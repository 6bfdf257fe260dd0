"""Command-line entry point.

Subcommands: field-info, kloosterman, verify, search, invariants,
check-pair.  Machine-readable JSON goes to stdout, a short human
summary to stderr.

Exit codes: 0 when every assertion holds or the search completed with
the expected outcome, 2 when a verified claim was violated (the loud
failure channel), 1 for usage or I/O errors.

The report is one line of canonical JSON (sorted keys, no spaces): a
manifest carrying the tool version, the arguments, a timestamp, the
wall time of the subcommand (elapsed_ms) and the digest, sha256 of the
canonical JSON of the result.  The result holds no wall time and no
worker count (--workers is recorded in the manifest's argv), so
identical logical inputs give identical results and digests.  The
result is encoded once: that text is hashed for the digest and spliced
into the report, which is byte for byte the canonical JSON of
{"manifest": ..., "result": ...}.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import inspect
import json
import sys
import time
from typing import Optional

from . import __version__
from .gf2n import make_field, parse_field_spec
from .inverse_perm import kernel_structure_check
from .kloosterman import kloosterman_all, kloosterman_zeros, qform_table
from .linmap import LinearizedPoly
from .search import full_search, identity_L1_search, normalized_search
from .verify import CLAIMS, invariants_suite, run_claim

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; the contract reserves 2 for claim
    # violations, so route usage problems through exit code 1
    def error(self, message):
        raise UsageError(message)


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _digest(text: str) -> str:
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()


def result_digest(result: dict) -> str:
    return _digest(canonical_json(result))


def _emit(args, argv, ctx, result: dict, summary: str, elapsed_s: float) -> None:
    text = canonical_json(result)
    manifest = {
        "tool": "invperm",
        "version": __version__,
        "subcommand": args.subcommand,
        "argv": list(argv),
        "field": ctx.spec,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        # reports carry no floats; wall time is integer milliseconds
        "elapsed_ms": int(round(elapsed_s * 1000)),
        "digest": _digest(text),
    }
    # canonical_json({"manifest": manifest, "result": result}), with the
    # result encoded once
    print(f'{{"manifest":{canonical_json(manifest)},"result":{text}}}')
    print(summary, file=sys.stderr)


# -- subcommands ------------------------------------------------------------
#
# Each cmd_* takes the parsed arguments and the field of --field and
# returns (result, summary, ok); run() emits the report and maps ok to
# the exit code.


def cmd_field_info(args, ctx):
    result = {
        "n": ctx.n,
        "modulus": f"{ctx.modulus:#x}",
        "spec": ctx.spec,
        "order": ctx.order,
        "generator": f"{ctx.generator:x}",
        "trace_of_one": ctx.trace(1),
    }
    return result, f"GF(2^{ctx.n}) with modulus {ctx.modulus:#x}", True


def cmd_kloosterman(args, ctx):
    census = kloosterman_zeros(ctx)
    if args.csv:
        ks = kloosterman_all(ctx)
        qt = qform_table(ctx)
        with open(args.csv, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["a_hex", "K", "tr", "Q"])
            for a in ctx.elements():
                w.writerow([f"{a:x}", int(ks[a]), ctx.trace(a), int(qt[a])])
    result = census.to_json_dict()
    if args.dump_sums:
        result["sums"] = kloosterman_all(ctx).tolist()
    return result, f"{census.zero_count} Kloosterman zeros in {ctx.spec}", True


def cmd_verify(args, ctx):
    kw = {}
    if args.samples is not None:
        if args.samples < 1:
            raise UsageError(f"--samples must be at least 1; got {args.samples}")
        if "samples" not in inspect.signature(CLAIMS[args.claim]).parameters:
            raise UsageError(f"claim {args.claim} takes no --samples")
        kw["samples"] = args.samples
    res = run_claim(args.claim, ctx.n, ctx.modulus, **kw)
    summary = f"{args.claim}: {'ok' if res.ok else 'VIOLATED'} ({res.cases} cases)"
    return res.to_json_dict(), summary, res.ok


def _expected_witnesses(mode: str, n: int) -> Optional[bool]:
    """Expected 'witnesses exist' verdict, where the theory pins one down."""
    if mode in ("normalized", "identity-l1") and n >= 5:
        return False
    if mode in ("full", "identity-l1") and n in (3, 4):
        return True
    return None


def cmd_search(args, ctx):
    runner = {
        "full": full_search,
        "normalized": normalized_search,
        "identity-l1": identity_L1_search,
    }[args.mode]
    progress = None
    if args.progress:
        # one JSON line per completed partition, so interrupted runs
        # leave an audit trail
        def progress(record):
            print(canonical_json(record), file=sys.stderr, flush=True)

    report = runner(ctx.n, ctx.modulus, workers=args.workers, progress=progress)
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["l1", "l2"])
            for l1, l2 in report.witnesses:
                w.writerow([l1, l2])
    result = report.to_json_dict()
    expected = _expected_witnesses(args.mode, ctx.n)
    violated = expected is not None and (report.witness_count > 0) != expected
    violated = violated or report.audit_violations > 0
    result["expected_witnesses"] = expected
    result["verdict"] = "violated" if violated else "ok"
    summary = (
        f"search {args.mode} on {ctx.spec}: {report.witness_count} witnesses "
        f"({report.examined} candidates)"
    )
    return result, summary, not violated


def cmd_invariants(args, ctx):
    results = invariants_suite(ctx.n, ctx.modulus)
    ok = all(r.ok for r in results)
    result = {"suite": [r.to_json_dict() for r in results], "ok": ok}
    lines = ", ".join(f"{r.claim}={'ok' if r.ok else 'FAIL'}" for r in results)
    return result, lines, ok


def cmd_check_pair(args, ctx):
    try:
        l1 = LinearizedPoly.from_text(ctx, args.l1)
        l2 = LinearizedPoly.from_text(ctx, args.l2)
    except ValueError as exc:
        raise UsageError(f"bad coefficient list: {exc}") from exc
    report = kernel_structure_check(l1, l2)
    summary = f"is_permutation={report.is_permutation} criterion={report.kloosterman_criterion}"
    # a mismatch between the criterion and direct bijectivity breaks the
    # exact permutation characterization: loud failure
    return report.to_json_dict(), summary, report.criterion_consistent


def build_parser() -> _Parser:
    p = _Parser(prog="invperm", description=__doc__)
    p.add_argument("--version", action="version", version=f"invperm {__version__}")
    sub = p.add_subparsers(dest="subcommand", required=True)

    def add_common(sp):
        sp.add_argument("--field", required=True, help='field spec "n" or "n:0xHEX"')

    sp = sub.add_parser("field-info", help="inspect one concrete field")
    add_common(sp)
    sp.set_defaults(fn=cmd_field_info)

    sp = sub.add_parser("kloosterman", help="Kloosterman zero census")
    sp.add_argument("action", choices=["census"])
    add_common(sp)
    sp.add_argument("--dump-sums", action="store_true")
    sp.add_argument("--csv", help="write per-element rows (a_hex, K, tr, Q)")
    sp.set_defaults(fn=cmd_kloosterman)

    sp = sub.add_parser("verify", help="run one claim against its oracle")
    sp.add_argument("claim", choices=sorted(CLAIMS))
    add_common(sp)
    sp.add_argument("--samples", type=int, default=None)
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("search", help="permutation-pair searches")
    sp.add_argument("mode", choices=["full", "normalized", "identity-l1"])
    add_common(sp)
    sp.add_argument("--workers", type=int, default=1)
    sp.add_argument("--csv", help="dump witnesses to CSV")
    sp.add_argument(
        "--progress", action="store_true",
        help="stream one JSON progress line per completed partition to stderr",
    )
    sp.set_defaults(fn=cmd_search)

    sp = sub.add_parser("invariants", help="cross-cutting invariant bundle")
    add_common(sp)
    sp.set_defaults(fn=cmd_invariants)

    sp = sub.add_parser("check-pair", help="full report for one (L1, L2) pair")
    add_common(sp)
    sp.add_argument("--l1", required=True, help="comma-separated hex coefficients")
    sp.add_argument("--l2", required=True, help="comma-separated hex coefficients")
    sp.set_defaults(fn=cmd_check_pair)
    return p


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        ctx = make_field(*parse_field_spec(args.field))
        t0 = time.perf_counter()
        result, summary, ok = args.fn(args, ctx)
        _emit(args, argv, ctx, result, summary, time.perf_counter() - t0)
        return EXIT_OK if ok else EXIT_VIOLATION
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
