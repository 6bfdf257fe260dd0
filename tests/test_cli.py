"""CLI contract: subcommands, JSON schema, digests, exit codes."""

import hashlib
import json
import os
import subprocess
import sys
from importlib.resources import files
from pathlib import Path

import jsonschema
import pytest

from invperm import cli
from invperm.gf2n import MAX_N, MIN_N

SCHEMA = json.loads((files("invperm") / "schemas/report.schema.json").read_text())


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    doc = json.loads(captured.out) if captured.out else None
    return code, doc, captured.err


def test_field_info(capsys):
    code, doc, err = run_cli(capsys, "field-info", "--field", "5")
    assert code == 0
    jsonschema.validate(doc, SCHEMA)
    assert doc["result"]["spec"] == "5:0x25"
    assert "GF(2^5)" in err


def test_field_info_explicit_modulus(capsys):
    code, doc, _ = run_cli(capsys, "field-info", "--field", "5:0x29")
    assert code == 0
    assert doc["result"]["modulus"] == "0x29"


def test_kloosterman_census(capsys, tmp_path):
    csv_path = tmp_path / "sums.csv"
    code, doc, _ = run_cli(
        capsys, "kloosterman", "census", "--field", "5", "--dump-sums",
        "--csv", str(csv_path),
    )
    assert code == 0
    jsonschema.validate(doc, SCHEMA)
    assert doc["result"]["zero_count"] >= 1
    assert len(doc["result"]["sums"]) == 32
    assert doc["result"]["sums"][0] == 0
    rows = csv_path.read_text().strip().splitlines()
    assert rows[0] == "a_hex,K,tr,Q"
    assert len(rows) == 33
    # zero rows in the census actually have K = 0 in the dump
    dumped = {r.split(",")[0]: int(r.split(",")[1]) for r in rows[1:]}
    for z in doc["result"]["zeros"]:
        assert dumped[z] == 0


@pytest.mark.parametrize("claim", ["theorem3", "lemma2", "lemma4", "prop3", "theorem8"])
def test_verify_claims_exit_zero(capsys, claim):
    n = "5" if claim != "theorem3" else "6"
    code, doc, err = run_cli(capsys, "verify", claim, "--field", n)
    assert code == 0
    jsonschema.validate(doc, SCHEMA)
    assert doc["result"]["ok"] is True
    assert "ok" in err


def test_verify_proposition2_with_samples(capsys):
    code, doc, _ = run_cli(
        capsys, "verify", "proposition2", "--field", "5", "--samples", "2000"
    )
    assert code == 0
    assert doc["result"]["cases_checked"] == 2000


def test_verify_corrupted_oracle_exits_two(capsys, monkeypatch):
    # force a violation through a corrupted oracle: the exit-code
    # contract must flag it loudly (test builds only)
    import invperm.verify as v

    orig = v.kloosterman_all

    def corrupt(ctx):
        ks = orig(ctx).copy()
        ks[3] += 8  # break the mod-16 class of one element
        return ks

    monkeypatch.setattr(v, "kloosterman_all", corrupt)
    code, doc, err = run_cli(capsys, "verify", "theorem3", "--field", "6")
    assert code == 2
    assert doc["result"]["ok"] is False
    assert doc["result"]["violations"]
    assert "VIOLATED" in err


def test_search_full_n3(capsys, tmp_path):
    csv_path = tmp_path / "wit.csv"
    code, doc, _ = run_cli(
        capsys, "search", "full", "--field", "3", "--csv", str(csv_path)
    )
    assert code == 0
    jsonschema.validate(doc, SCHEMA)
    assert doc["result"]["witness_count"] == 4704
    assert doc["result"]["expected_witnesses"] is True
    assert len(csv_path.read_text().strip().splitlines()) == 4705


def test_search_identity_l1_n4(capsys):
    code, doc, _ = run_cli(capsys, "search", "identity-l1", "--field", "4")
    assert code == 0
    jsonschema.validate(doc, SCHEMA)
    assert doc["result"]["witness_count"] == 5


def test_search_workers_flag_same_digest(capsys):
    _, doc1, _ = run_cli(capsys, "search", "identity-l1", "--field", "4")
    _, doc2, _ = run_cli(
        capsys, "search", "identity-l1", "--field", "4", "--workers", "2"
    )
    assert doc1["manifest"]["digest"] == doc2["manifest"]["digest"]
    assert doc1["result"] == doc2["result"]


@pytest.mark.parametrize(
    "argv",
    [
        ["field-info", "--field", "5"],
        ["kloosterman", "census", "--field", "6"],
        ["verify", "prop3", "--field", "5"],
        ["search", "identity-l1", "--field", "4", "--workers", "2"],
        ["invariants", "--field", "4"],
        ["check-pair", "--field", "4", "--l1", "1,0,0,0", "--l2", "0,1,0,1"],
    ],
    ids=lambda argv: argv[0],
)
def test_report_is_one_canonical_line_with_digest_of_result(capsys, argv):
    # the printed report is the canonical JSON of the envelope, and the
    # digest hashes the printed result as is: wall time lives in the
    # manifest and no worker count appears anywhere in the result
    assert cli.run(argv) == 0
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert out == cli.canonical_json(doc) + "\n"
    payload = cli.canonical_json(doc["result"])
    assert doc["manifest"]["digest"] == "sha256:" + hashlib.sha256(payload.encode()).hexdigest()
    elapsed = doc["manifest"]["elapsed_ms"]
    assert type(elapsed) is int and elapsed >= 0
    assert '"elapsed_ms":' not in payload and '"workers":' not in payload
    jsonschema.validate(doc, SCHEMA)


def test_digest_is_stable_across_runs(capsys):
    _, doc1, _ = run_cli(capsys, "verify", "prop3", "--field", "4")
    _, doc2, _ = run_cli(capsys, "verify", "prop3", "--field", "4")
    assert doc1["manifest"]["digest"] == doc2["manifest"]["digest"]


def test_invariants(capsys):
    code, doc, _ = run_cli(capsys, "invariants", "--field", "4")
    assert code == 0
    jsonschema.validate(doc, SCHEMA)
    assert doc["result"]["ok"] is True


def test_invariants_above_pair_table_range(capsys):
    # prop2-random reads the n <= 8 product table; above it the suite
    # records 0 cases, as walsh-parseval does
    code, doc, _ = run_cli(capsys, "invariants", "--field", "9")
    assert code == 0
    suite = {r["claim"]: r for r in doc["result"]["suite"]}
    assert suite["prop2-random"]["cases_checked"] == 0


def test_verify_proposition2_above_n8_exits_one(capsys):
    code, doc, err = run_cli(capsys, "verify", "proposition2", "--field", "9")
    assert code == 1
    assert doc is None
    assert "proposition2" in err


def test_check_pair_inverse_map(capsys):
    # L1 = x, L2 = 0: the map is the field inverse itself, a permutation
    code, doc, _ = run_cli(
        capsys, "check-pair", "--field", "4", "--l1", "1,0,0,0", "--l2", "0,0,0,0"
    )
    assert code == 0
    jsonschema.validate(doc, SCHEMA)
    assert doc["result"]["is_permutation"] is True
    assert doc["result"]["kloosterman_criterion"] is True


def test_check_pair_zero_pair(capsys):
    code, doc, _ = run_cli(
        capsys, "check-pair", "--field", "4", "--l1", "0,0,0,0", "--l2", "0,0,0,0"
    )
    assert code == 0
    assert doc["result"]["is_permutation"] is False


def test_check_pair_any_n5_pair_is_not_permutation(capsys):
    code, doc, _ = run_cli(
        capsys, "check-pair", "--field", "5", "--l1", "3,1,0,4,2", "--l2", "7,0,5,0,1"
    )
    assert code == 0
    assert doc["result"]["is_permutation"] is False


def test_usage_errors_exit_one(capsys):
    assert cli.run(["search", "full"]) == 1  # missing --field
    capsys.readouterr()
    assert cli.run(["verify", "nosuchclaim", "--field", "4"]) == 1
    capsys.readouterr()
    code, _, err = run_cli(capsys, "check-pair", "--field", "4", "--l1", "zz", "--l2", "0")
    assert code == 1 and "usage error" in err
    # out-of-range field size is an input error, not a crash
    assert cli.run(["field-info", "--field", "40"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("l1", ["1,0", "1,0,0,0,0"])
def test_check_pair_wrong_coefficient_count_exits_one(capsys, l1):
    code, doc, err = run_cli(capsys, "check-pair", "--field", "4", "--l1", l1, "--l2", "0,0,0,0")
    assert code == 1
    assert doc is None
    assert "need exactly 4 coefficients" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["field-info", "--field", "5:0xzz"], "bad modulus in field spec '5:0xzz'"),
        (["field-info", "--field", f"{MAX_N + 1}:{(1 << (MAX_N + 1)) | 9:#x}"],
         f"n={MAX_N + 1} out of range [{MIN_N}, {MAX_N}]"),
        (["check-pair", "--field", "5", "--l1", "20,0,0,0,0", "--l2", "1,0,0,0,0"],
         "element 32 out of range for GF(2^5)"),
        (["verify", "theorem8", "--field", "4"], "applies for n >= 5"),
        (["field-info", "--field", "5:"], "bad modulus in field spec '5:'"),
        (["verify", "lemma2", "--field", "11"], "lemma2 supports n <= 10"),
    ],
)
def test_bad_input_exits_one_with_message(capsys, argv, message):
    code, doc, err = run_cli(capsys, *argv)
    assert code == 1
    assert doc is None
    assert message in err


def test_negative_modulus_exits_one():
    # int("-0x25", 16) is -37, a negative modulus; a degree check that let
    # it through would loop forever in trial division, so the CLI runs in
    # a child process with a timeout, where such a regression fails
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "invperm.cli", "field-info", "--field", "5:-0x25"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "modulus -0x25 does not have degree 5" in proc.stderr


def test_reducible_modulus_exits_one(capsys):
    code, doc, err = run_cli(capsys, "kloosterman", "census", "--field", "5:0x21")
    assert code == 1
    assert doc is None
    assert "modulus 0x21 is reducible" in err


def test_search_full_rejects_workers(capsys):
    # the full search runs in one process; a worker count it would
    # ignore is an input error, not a claim in the report
    code, doc, err = run_cli(capsys, "search", "full", "--field", "3", "--workers", "2")
    assert code == 1
    assert doc is None
    assert "workers" in err


def test_search_rangeerror_message(capsys):
    code, _, err = run_cli(capsys, "search", "full", "--field", "5")
    assert code == 1
    assert "normalized" in err


def test_kloosterman_modulus_flag(capsys):
    # the census takes its modulus from the field spec
    code, doc, _ = run_cli(capsys, "kloosterman", "census", "--field", "5:0x29")
    assert code == 0
    assert doc["result"]["modulus"] == "0x29"
    assert doc["result"]["zero_count"] >= 1


def test_conflicting_modulus_exits_one(capsys):
    # the field spec is the only way to name a modulus: a --modulus flag
    # is bad input, whether or not it agrees with the spec
    for spec, flag in (("5:0x25", "0x29"), ("5:0x29", "0x29"), ("5", "0x29")):
        code, doc, err = run_cli(capsys, "field-info", "--field", spec, "--modulus", flag)
        assert code == 1
        assert doc is None
        assert "--modulus" in err


def test_search_progress_stream(capsys):
    for mode, n in (("full", "3"), ("full", "4"), ("normalized", "5")):
        code, doc, err = run_cli(capsys, "search", mode, "--field", n, "--progress")
        assert code == 0
        records = [json.loads(l) for l in err.splitlines() if l.startswith("{")]
        assert records
        # one schema for every search: partitions done out of a known total
        assert all(set(r) == {"partition", "partitions"} for r in records)
        assert records[0]["partition"] == 1
        last = records[-1]
        assert last["partition"] == last["partitions"] == doc["result"]["partitions"]


@pytest.mark.parametrize("mode", ["normalized", "identity-l1"])
@pytest.mark.parametrize("workers", ["0", "-3"])
def test_search_rejects_workers_below_one(capsys, mode, workers):
    code, doc, err = run_cli(capsys, "search", mode, "--field", "5", "--workers", workers)
    assert code == 1
    assert doc is None
    assert "workers" in err


@pytest.mark.parametrize("claim", ["theorem3", "lemma2", "prop3", "theorem8"])
def test_verify_samples_on_exhaustive_claim_exits_one(capsys, claim):
    # these claims take no sample count: an input error, not a traceback
    code, doc, err = run_cli(capsys, "verify", claim, "--field", "5", "--samples", "10")
    assert code == 1
    assert doc is None
    assert "--samples" in err


@pytest.mark.parametrize("samples", ["0", "-4"])
def test_verify_samples_below_one_exits_one(capsys, samples):
    # zero samples would report ok on 0 cases
    code, doc, err = run_cli(
        capsys, "verify", "proposition2", "--field", "5", "--samples", samples
    )
    assert code == 1
    assert doc is None
    assert "--samples" in err


@pytest.mark.parametrize("claim,n", [("proposition2", "3"), ("proposition2", "4"), ("lemma4", "5")])
def test_verify_samples_in_exhaustive_mode_exits_one(capsys, claim, n):
    # these runs check every case, so a sample count would be ignored
    code, doc, err = run_cli(capsys, "verify", claim, "--field", n, "--samples", "5")
    assert code == 1
    assert doc is None
    assert "samples" in err


def test_audit_catches_corrupted_kloosterman_table(capsys, monkeypatch):
    # with every K(a) nonzero the funnel rejects every pair, permutations
    # included; the audit re-checks rejected rows with build_F, which does
    # not read the corrupted table, so it must report violations
    import numpy as np

    from invperm import search

    monkeypatch.setattr(search, "kloosterman_all", lambda ctx: np.ones(ctx.order, dtype=np.int64))
    rep = search.full_search(2)
    assert rep.witness_count == 0
    assert rep.audit_violations > 0
    # n = 2 pins no expected witness count, so only the audit can flag it
    code, doc, _ = run_cli(capsys, "search", "full", "--field", "2")
    assert code == 2
    assert doc["result"]["expected_witnesses"] is None
    assert doc["result"]["audit"]["violations"] > 0
    assert doc["result"]["verdict"] == "violated"


def test_proposition2_reports_corrupted_kloosterman_table(capsys, monkeypatch):
    # with every K(a) nonzero the criterion rejects every pair, so each of
    # the 4704 permutations at n = 3 is a mismatch; verify keeps the first
    # 16, as coefficient texts that rebuild to permutations
    import numpy as np

    from invperm import search, verify
    from invperm.gf2n import make_field
    from invperm.inverse_perm import build_F
    from invperm.linmap import LinearizedPoly

    monkeypatch.setattr(search, "kloosterman_all", lambda ctx: np.ones(ctx.order, dtype=np.int64))
    res = verify.verify_proposition2(3)
    assert len(res.violations) == verify.MAX_VIOLATIONS == 16
    ctx = make_field(3)
    for v in res.violations:
        l1, l2 = (LinearizedPoly.from_text(ctx, v[k]) for k in ("l1", "l2"))
        assert build_F(l1, l2).is_permutation()
    code, doc, _ = run_cli(capsys, "verify", "proposition2", "--field", "3")
    assert code == 2
    assert doc["result"]["ok"] is False


@pytest.mark.parametrize("mode", ["full", "identity-l1"])
def test_search_reads_divisible_by_16(capsys, monkeypatch, mode):
    # with every element failing the mod-16 test, no candidate passes
    # mod16-necessary: the pair batches of full n = 4 and the fixed-L1
    # coset of identity-l1 n = 4 (10 and 5 survivors with the real test)
    # lose every witness, and the expected-witness verdict fails loudly
    from functools import lru_cache

    import numpy as np

    from invperm import search

    monkeypatch.setattr(search, "divisible_by_16", lambda ctx, a: np.zeros(np.shape(a), dtype=bool))
    # a fresh cache, so no fixed-L1 env built with the real test is reused
    fresh = lru_cache(maxsize=None)(search._fixed_l1_env.__wrapped__)
    monkeypatch.setattr(search, "_fixed_l1_env", fresh)
    code, doc, _ = run_cli(capsys, "search", mode, "--field", "4")
    assert code == 2
    stages = {s["name"]: s["survivors"] for s in doc["result"]["stages"]}
    assert stages["kernel-intersection"] > 0
    assert stages["mod16-necessary"] == 0
    assert doc["result"]["witness_count"] == 0
    assert doc["result"]["verdict"] == "violated"
