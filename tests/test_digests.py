"""Report digests of fast runs, pinned (default modulus unless the field
names one).

A change to the search or verify internals must leave these answers
byte-identical; a deliberate change to a report has to update its pin.
"""

import json

import pytest

from invperm import cli

DIGESTS = {
    "search normalized 5": "e5408324afca8ad1ea61b6b7a7f8a24d65e0470e03ebc8fc0546bc29cdcdcfb9",
    "search identity-l1 3": "20a8246214513077159d51cf27b2b90f316d50f9f10f1324b308d7304f153904",
    "search identity-l1 4": "959ad700fb101bc6f752739ddb83764d1e37e3103026bbab49dca6baebaeecaf",
    "search identity-l1 6": "9498ac779c6c7614e4f0041968f98b628f2ceea0d560d62e633a4dd6d532baa0",
    "search normalized 6": "f0a638c4b53f76d6de3d1a356bbb73f7fe059f43bf8ca2d7bb8268a5ee1cab63",
    "search normalized 7": "3a440d43388abb430a73101989c4f5a804263dc992e936ab08e71be3ed872fdd",
    "search normalized 7:0x89": "a50af2b95133232461a1b3ff46170e9e90a7ccaefedf20a12785e3c5f54a7f6d",
    "search identity-l1 5": "f0dc08ffb25c0638cc5e464f3e2cf7f88a7de3e77f9cad8d815a25076c774cdb",
    "search identity-l1 5:0x29": "e9cc9cf35e313571a60d813b55b3660b05559e21ac60e3b8f6cb4df1e274b95b",
    "search full 2": "12ce87a29e6850b35c4da4bfef5d20b66a81824101172c0d4cdfaa8da41cf926",
    "search full 3": "1c0e90bc6f8254d466b92ee2c35cca44f10a5c07c79cdb6b408944cd089d516a",
    "search full 4": "4b2b051f63fe38f003ec584450eb56419986155be45133047020eec995bfec73",
    "search full 4:0x19": "a0d0411a0d95c73d8cc24742e83d260ae458e193300cfa8271b725bbda23f8c6",
    "verify proposition2 2": "4b132a1c31dcc5385e0b9a602510dba988fed39287d367d5cff0815abec6b530",
    "verify proposition2 3": "f1649736cf9581e47bd6ecb3c9bfb321e4e73ef0bafd5a07c1390594c33dcb93",
    "verify proposition2 4": "7ea69d4d96970d5a22ca7d159544d3cf741a87e9e875bc0b69748b00ccf71681",
    "verify proposition2 4:0x19": "bf1ebdac20ff7523c1024544766fc2c0979c3d2fd4a682fceeb9560bd25d7be9",
    "verify proposition2 5": "de59c0472fb6edefdb2a8f6a2e2fa77c73cd99e5b5ad225a111176f52d0f436f",
    "verify proposition2 6": "512a7aac0c75042e257d6208acc03f7ae01525cd83f65cf384315fe2716c323f",
    "kloosterman census 15:0x8003": "2bd2da507828e951ba65900f2e7e88e8d797cb1f5406a9ce1dc1ef40d64ee1db",
    "kloosterman census 15:0x8011": "aba684c151c6210ae3f2aaf32cc6b55e95aa07b7127015d03abaca1691d5df4b",
    "kloosterman census 6": "8fd20a6fa3100f2205b6a341e5f4dc358691b18059922f7961b94e5b412118e7",
    "field-info 5": "dd46a955b763152ec7d16d67c61fbb3c708c9c3bd23ba79f4520bc88c1d4ea8f",
    "verify theorem3 8": "f2c097b6c14bc45322b85bfd70b4c5d20e402bc111c3d86e9d3d1284cc5d625e",
    "verify lemma2 4": "39df1cdfe98752a4412f0908dc15740f905acc4909cd8805e4a1bc51f1474039",
    "verify lemma4 5": "406a4da22ae51993f1c15baf8fa593aa47096b476729322df596fd4751f1ffef",
    "verify prop3 5": "fa47446d7127bf5042b08bd50109b28ae1ef26f4bdb8e86f540916fd5f7fd258",
    "verify theorem8 5": "4b690793435b40e4e50f08a1778ad8e706bc816775c4487e0105b62a42e1e90a",
    "invariants 4": "6afeffe237139af69dcde22e8696133414202e55c156207f74806eef34a627de",
    "check-pair 4 --l1 1,0,0,0 --l2 0,1,0,1": "4284a009d4b005bafd4116b9e0d354b456c4bbb7a33f1b52523fe3074b709ce6",
}


def _argv(run: str) -> list:
    """The argv of a pin's name: its field is the first word that starts
    with a digit, and goes after --field."""
    words = run.split()
    i = next(i for i, w in enumerate(words) if w[0].isdigit())
    return words[:i] + ["--field", words[i]] + words[i + 1 :]


@pytest.mark.parametrize("run", sorted(DIGESTS))
def test_result_digest_pinned(capsys, run):
    assert cli.run(_argv(run)) == 0
    doc = json.loads(capsys.readouterr().out)
    assert cli.result_digest(doc["result"]) == "sha256:" + DIGESTS[run]
    assert doc["manifest"]["digest"] == "sha256:" + DIGESTS[run]
