"""Search drivers: exhaustive dichotomy, canonical orbits, filter pipelines."""

import multiprocessing
import random
from concurrent.futures import ProcessPoolExecutor
from functools import lru_cache, partial
from itertools import combinations, islice

import numpy as np
import pytest

from invperm import gf2mat, search
from invperm.gf2n import FieldContext, alternate_modulus, make_field, span_table
from invperm.inverse_perm import build_F, perm_criterion_kloosterman, recurrence_coeffs
from invperm.kloosterman import kloosterman_all, qform_table
from invperm.linmap import LinearizedPoly


def _tables_from_coeffs(ctx: FieldContext, coeffs: np.ndarray) -> np.ndarray:
    """(B, 2^n) value tables of sum_i c_i x^(2^i) for (B, n) coefficient rows.

    The n basis images L(2^j) take n^2 product lookups; the rest of each
    table is their XOR span, as in LinearizedPoly.table().
    """
    n, mf = ctx.n, ctx.mul_table.reshape(-1)
    out = np.zeros((coeffs.shape[0], ctx.order), dtype=np.int64)
    for j in range(n):
        image = np.zeros(coeffs.shape[0], dtype=np.int64)
        for i in range(n):
            image ^= mf[(coeffs[:, i] << n) | int(ctx.pow2k_table[i][1 << j])]
        out[:, 1 << j : 2 << j] = out[:, : 1 << j] ^ image[:, None]
    return out


def brute_force_witnesses_n3():
    """Independent enumeration of all nonzero pairs at n = 3.

    Loops m2-outer / m1-inner (the search loops m1-outer) and uses the
    plain per-pair truth-table route, so an enumeration or indexing bug
    in the search cannot hide here.
    """
    ctx = make_field(3)
    maps = [LinearizedPoly(ctx, (m & 7, (m >> 3) & 7, (m >> 6) & 7)) for m in range(512)]
    tabs = [m.table() for m in maps]
    inv = ctx.inv_table
    ref = np.arange(8)
    out = set()
    for m2 in range(1, 512):
        for m1 in range(1, 512):
            f = tabs[m1][inv] ^ tabs[m2]
            if np.array_equal(np.sort(f), ref):
                out.add((maps[m1].to_text(), maps[m2].to_text()))
    return out


def test_full_search_n3_matches_independent_enumeration(full3_report):
    rep = full3_report
    assert rep.space == 511 * 511
    # frozen by the double enumeration below: both loop orders agree
    assert rep.witness_count == 4704
    assert set(rep.witnesses) == brute_force_witnesses_n3()


def test_full_search_n3_witnesses_are_permutations(full3_report):
    ctx = make_field(3)
    rng = random.Random(0)
    sample = rng.sample(list(full3_report.witnesses), 50)
    for l1_text, l2_text in sample:
        l1 = LinearizedPoly.from_text(ctx, l1_text)
        l2 = LinearizedPoly.from_text(ctx, l2_text)
        assert build_F(l1, l2).is_permutation()
        assert perm_criterion_kloosterman(l1, l2)


def test_full_search_n3_contains_identity_l1_witnesses(full3_report, identity3_report):
    assert identity3_report.witness_count == 7
    assert set(identity3_report.witnesses) <= set(full3_report.witnesses)


def test_full_search_rejects_large_n():
    with pytest.raises(ValueError, match="n <= 4"):
        search.full_search(5)


def test_stage_attrition_monotone(full3_report, full4_report, identity4_report):
    for rep in (full3_report, full4_report, identity4_report):
        counts = [s for _, s in rep.stages]
        assert counts == sorted(counts, reverse=True)
        assert rep.stages[-1][0] == "bijective"
        assert rep.stages[-1][1] == rep.witness_count
        assert rep.audit_violations == 0


def test_every_search_audits(full3_report, full4_report, identity3_report, normalized5_report):
    full2 = search.full_search(2)
    for rep in (full2, full3_report, full4_report, identity3_report, normalized5_report):
        assert 0 < rep.audit_sampled <= search.AUDIT_CAP
        assert rep.audit_violations == 0


def test_audit_catches_a_funnel_that_rejects_everything(monkeypatch):
    # the audit's oracle shares no state with the funnel: when bijectivity
    # rejects every row, the sampled permutations show up as violations
    # (at n = 3 the first 8 rows of each sampled L1 are no permutations)
    monkeypatch.setattr(search, "_permutes", lambda tab: np.zeros(len(tab), dtype=bool))
    rep = search.full_search(2)
    assert rep.witness_count == 0
    assert 0 < rep.audit_violations <= rep.audit_sampled


@pytest.mark.parametrize("run", [
    lambda: search.full_search(3),
    lambda: search.identity_L1_search(5),
    lambda: search.normalized_search(7),
], ids=["full-3", "identity-l1-5", "normalized-7"])
def test_audit_calls_build_F_once_per_pair(run, monkeypatch):
    calls = []

    def counted(l1, l2):
        calls.append(1)
        return build_F(l1, l2)

    monkeypatch.setattr(search, "build_F", counted)
    rep = run()
    assert len(calls) == rep.audit_sampled > 0


def _block_results_by_run(counts, runs, kept, budget):
    """Reference for _block_results: the audit rule run by run, scanning
    each run whole; a candidate c decodes to the pair (c, -c)."""
    kept, left, out = set(kept), budget, []
    for c, run in zip(counts, runs):
        rejected = [m for m in run if m not in kept][:8]
        if left is not None:
            rejected, left = rejected[:left], left - len(rejected[:left])
        out.append({
            "counts": c,
            "witnesses": [(m, -m) for m in run if m in kept],
            "audit": [(m, -m) for m in rejected],
        })
    return out


@pytest.mark.parametrize("seed", range(12))
def test_block_results_match_per_run_loop(seed):
    # random layouts: runs over an array of candidates or over a range of
    # indices, of any length (empty ones and ones shorter than 8 too),
    # with witnesses at random or filling a run's first 8 + w rows, and
    # batches with no survivors; with and without an audit budget
    rng = np.random.default_rng(seed)
    size = int(rng.integers(0, 400))
    cuts = np.sort(rng.integers(0, size + 1, int(rng.integers(0, 30))))
    bounds = np.concatenate([[0], cuts, [size]])
    if seed % 2:  # candidates are their positions, from a random first
        rows, first = None, int(rng.integers(0, 3))
        bounds += first
        cands = np.arange(first, first + size)
    else:
        rows = cands = np.sort(rng.choice(4 * size + 1, size, replace=False))
    runs = [cands[lo - bounds[0] : hi - bounds[0]].tolist() for lo, hi in zip(bounds[:-1], bounds[1:])]
    alive = cands[rng.random(size) < 0.6]
    kept = set()
    if seed % 3:  # else no survivors
        kept.update(alive[rng.random(alive.size) < 0.3].tolist())
        for run in runs:
            if rng.random() < 0.3:  # a run whose head is all witnesses
                kept.update(run[:12])
    alive = np.union1d(alive, sorted(kept)).astype(np.int64)
    bij = np.isin(alive, sorted(kept))
    counts = [{"run": i} for i in range(len(runs))]
    decoded = []

    def pairs(sel):
        decoded.append(sel.size)
        return [(m, -m) for m in sel.tolist()]

    for budget in (None, 0, 5, 100):
        decoded.clear()
        got = search._block_results(counts, bounds, alive, bij, pairs, rows, budget)
        want = _block_results_by_run(counts, runs, alive[bij].tolist(), budget)
        assert got == want
        assert decoded == [sum(len(r["witnesses"]) + len(r["audit"]) for r in want)]


def test_full_search_decodes_only_reported_rows(full3_report, monkeypatch):
    # the audit budget: only the witnesses and the 256 audit rows that
    # the report keeps are decoded to pairs, and the merged audit is the
    # first 8 rejected pairs of each of the first 32 L1 runs
    decoded, merged = [], []
    batch_pairs, report = search._batch_pairs, search._report

    def spied_pairs(ctx, batch, rows):
        decoded.append(rows.size)
        return batch_pairs(ctx, batch, rows)

    def spied_report(ctx, results, **fields):
        merged.extend(results)
        return report(ctx, results, **fields)

    monkeypatch.setattr(search, "_batch_pairs", spied_pairs)
    monkeypatch.setattr(search, "_report", spied_report)
    assert search.full_search(3) == full3_report
    assert sum(decoded) <= 4704 + search.AUDIT_CAP
    ctx = make_field(3)
    maps = [LinearizedPoly(ctx, tuple((w >> (3 * i)) & 7 for i in range(3))) for w in range(512)]
    want = []
    for l1 in maps[1:33]:
        rejected = (l2 for l2 in maps[1:] if not build_F(l1, l2).is_permutation())
        want += [(l1.coeffs, l2.coeffs) for l2 in islice(rejected, 8)]
    assert [pair for res in merged for pair in res["audit"]] == want


def test_gaussian_binomial_and_counts():
    assert search.gaussian_binomial(4, 1) == 15
    assert search.gaussian_binomial(4, 2) == 35
    assert search.canonical_pair_count(2) == 1 + 15 + 35
    assert search.canonical_pair_count(3) == 2110
    assert search.canonical_pair_count(4) == 308993


def rref_matrices(n):
    """Oracle: every reduced-row-echelon n x 2n matrix (row ints), one at a
    time, rank 0..n, pivot sets in combinations order, then free-bit
    assignments in increasing order."""
    width = 2 * n
    for r in range(n + 1):
        for pivots in combinations(range(width), r):
            free = [
                (k, c)
                for k in range(r)
                for c in range(pivots[k] + 1, width)
                if c not in pivots
            ]
            base = [1 << pivots[k] for k in range(r)]
            for assign in range(1 << len(free)):
                rows = list(base)
                for t, (k, c) in enumerate(free):
                    if (assign >> t) & 1:
                        rows[k] |= 1 << c
                yield rows + [0] * (n - r)


@lru_cache(maxsize=None)
def oracle_rows(n):
    return np.array(list(rref_matrices(n)), dtype=np.int64)


def canonical_pairs(n, modulus=None):
    """Oracle: one representative (L1, L2) per left-action orbit, built
    per row with from_matrix."""
    ctx = make_field(n, modulus)
    for rows in rref_matrices(n):
        yield (
            LinearizedPoly.from_matrix(ctx, [row & ctx.mask for row in rows]),
            LinearizedPoly.from_matrix(ctx, [row >> n for row in rows]),
        )


def stacked_rows(ctx, w1, w2):
    """The stacked n x 2n matrices [M1 | M2] (row ints) of the maps named
    by packed coefficient words, read by evaluation as LinearizedPoly.matrix
    reads them: bit j of row i is bit i of L(2^j), with L(2^j) from the
    product-table oracle _tables_from_coeffs, not from from_matrix."""
    n = ctx.n
    words, at = np.unique(np.stack([w1, w2]), return_inverse=True)
    coeffs = (words[:, None] >> (n * np.arange(n))) & ctx.mask
    images = _tables_from_coeffs(ctx, coeffs)[:, 1 << np.arange(n)]  # (maps, j)
    bits = (images[:, None, :] >> np.arange(n)[:, None]) & 1  # (maps, i, j)
    mats = (bits << np.arange(n)).sum(axis=2)
    m1, m2 = mats[at.reshape(2, -1)]
    return m1 | (m2 << n)


def fields(n):
    """GF(2^n) at the default modulus and, where n has one, the alternate."""
    return [make_field(n, m) for m in dict.fromkeys([None, alternate_modulus(n)])]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_rref_rows_match_oracle(n):
    # row for row: batch boundaries, and with them the audit picks,
    # depend on the order
    for ctx in fields(n):
        words = search._rref_words(ctx)
        assert words.dtype == np.int64 and words.shape == (2, search.canonical_pair_count(n))
        assert np.array_equal(stacked_rows(ctx, *words), oracle_rows(n))


def test_rref_rows_built_once_and_read_only():
    # every canonical pass in one field reads the same array, so none may
    # write it; each field has its own
    words = [search._rref_words(ctx) for ctx in fields(3)]
    for ctx, w in zip(fields(3), words):
        assert search._rref_words(ctx) is w
        with pytest.raises(ValueError, match="read-only"):
            w[0, 0] = 1
    assert not np.array_equal(*words)


def _rref_words_by_span_table(ctx):
    """Reference for _rref_words: per pivot pattern, its pivot word XOR a
    span_table of its free units, the patterns concatenated."""
    n, width = ctx.n, 2 * ctx.n
    units = np.zeros((n, width, 2), dtype=np.int64)
    for k, j in np.ndindex(n, n):
        m = LinearizedPoly.from_matrix(ctx, [1 << j if i == k else 0 for i in range(n)])
        units[k, j, 0] = units[k, n + j, 1] = sum(c << (n * i) for i, c in enumerate(m.coeffs))
    units = units.reshape(n * width, 2)
    parts = []
    for r in range(n + 1):
        for pivots in combinations(range(width), r):
            free = [k * width + c for k in range(r) for c in range(pivots[k] + 1, width) if c not in pivots]
            base = np.bitwise_xor.reduce(units[[k * width + p for k, p in enumerate(pivots)]])
            parts.append(base ^ span_table(units[free]))
    return np.concatenate(parts).T


@pytest.mark.parametrize("n", [2, 3, 4])
def test_rref_words_match_span_table_reference(n):
    for ctx in fields(n):
        words = search._rref_words(ctx)
        assert np.array_equal(words, _rref_words_by_span_table(ctx))
        assert words.flags.c_contiguous and not words.flags.writeable


@pytest.mark.parametrize("alternate", [False, True])
def test_canonical_batch_boundaries_n4(alternate):
    ctx = make_field(4, alternate_modulus(4) if alternate else None)
    batches = list(search.canonical_batches(ctx))
    assert [len(b["stacked"]) for b in batches] == [search.BLOCK] * 4 + [46849]
    for b in batches:
        assert np.array_equal(b["stacked"], np.stack([b["w1"], b["w2"]], axis=1))
    w1, w2 = (np.concatenate([b[w] for b in batches]) for w in ("w1", "w2"))
    assert np.array_equal(stacked_rows(ctx, w1, w2), oracle_rows(4))


@pytest.mark.parametrize("n", [2, 3])
def test_rref_enumeration_count_and_orbit_stabilizer(n):
    for ctx in fields(n):
        count = 0
        total = 0
        for rows in stacked_rows(ctx, *search._rref_words(ctx)).tolist():
            count += 1
            r = gf2mat.rank(rows, 2 * n)
            orbit = 1
            for i in range(r):
                orbit *= (1 << n) - (1 << i)
            total += orbit
        assert count == search.canonical_pair_count(n)
        # orbit sizes over all representatives add up to the full pair space
        assert total == 1 << (2 * n * n)


def test_rref_enumeration_yields_distinct_rrefs():
    for ctx in fields(2) + fields(3):
        seen = set()
        for rows in stacked_rows(ctx, *search._rref_words(ctx)).tolist():
            key = tuple(rows)
            assert key not in seen
            seen.add(key)
            red, _ = gf2mat.rref(list(rows), 2 * ctx.n)
            assert list(rows)[: len(red)] == red  # already reduced


def test_canonical_key_invariance():
    ctx = make_field(3)
    rng = random.Random(5)
    for _ in range(50):
        l1 = LinearizedPoly.random(ctx, rng)
        l2 = LinearizedPoly.random(ctx, rng)
        key = search.canonical_key(l1, l2)
        a = LinearizedPoly.from_matrix(ctx, gf2mat.random_invertible(3, rng))
        key2 = search.canonical_key(a.compose(l1), a.compose(l2))
        assert key == key2
    # the pair (identity, 0) is already canonical
    ident = LinearizedPoly.identity(ctx)
    zero = LinearizedPoly.zero(ctx)
    key = search.canonical_key(ident, zero)
    assert list(key) == ident.matrix()  # [I | 0] in rref form


def test_canonical_pairs_stream(ctx_n=3):
    ctx = make_field(ctx_n)
    keys = set()
    count = 0
    for l1, l2 in canonical_pairs(ctx_n):
        count += 1
        if count % 37 == 0:  # spot-check self-canonicity on a stride
            keys.add(search.canonical_key(l1, l2))
    assert count == search.canonical_pair_count(ctx_n)
    assert len(keys) == count // 37  # all sampled representatives distinct


def _batch_sources():
    # GF(4) has only one modulus, so n = 2 has no alternate case
    cases = [("canonical", n) for n in (2, 3, 4)] + [("all-pairs", n) for n in (2, 3)]
    for source, n in cases + [("random", n) for n in (5, 6, 7, 8)]:
        for alternate in (False, True):
            if alternate and alternate_modulus(n) is None:
                continue
            name = f"{n}-{alternate}" if source == "canonical" else f"{source}-{n}-{alternate}"
            yield pytest.param(source, n, alternate, id=name)


@pytest.mark.parametrize("source,n,alternate", _batch_sources())
def test_canonical_batches_match_maps(source, n, alternate):
    # the packed coefficient words w1, w2 of every batch source decode,
    # through the part decoders, to the tables and adjoint tables of the
    # maps they name, and through _batch_pairs to their coefficients.
    # Canonical words name the halves
    # [M1 | M2] of the oracle's rref matrices, read from the words by
    # evaluation (stacked_rows) and as maps through from_matrix: every row
    # at n = 2, 3 and the first batch at n = 4.  All-pairs rows pair each nonzero packed coefficient word, in
    # order, with every word from 1 up: every batch at n = 2, 3, one batch
    # at n = 2 and four at n = 3.  Random rows are the seeded coefficient
    # stream: its first 200 rows.
    ctx = make_field(n, alternate_modulus(n) if alternate else None)
    maps = {}

    def expect(key):
        if key not in maps:
            if source == "canonical":
                l = LinearizedPoly.from_matrix(ctx, list(key))
            elif source == "all-pairs":  # key is the packed coefficient word
                l = LinearizedPoly(ctx, tuple((key >> (n * i)) & ctx.mask for i in range(n)))
            else:
                l = LinearizedPoly(ctx, key)
            maps[key] = (l.coeffs, l.table(), l.adjoint().table())
        return maps[key]

    def halves(stacked):
        return tuple(r & ctx.mask for r in stacked), tuple(r >> n for r in stacked)

    nmaps = (1 << (n * n)) - 1
    if source == "canonical":
        batches, named, lo = search.canonical_batches(ctx), [], 0
        for batch in batches if n < 4 else [next(batches)]:
            want = oracle_rows(n)[lo : lo + len(batch["w1"])]
            assert np.array_equal(stacked_rows(ctx, batch["w1"], batch["w2"]), want)
            named.append((batch, [halves(s) for s in want.tolist()]))
            lo += len(want)
    elif source == "all-pairs":
        named, l1 = [], 1
        for batch in search.all_pair_batches(ctx):
            runs = len(batch["w1"]) // nmaps
            named.append((batch, [(k, w) for k in range(l1, l1 + runs) for w in range(1, nmaps + 1)]))
            l1 += runs
        assert len(named) == {2: 1, 3: 4}[n] and l1 == nmaps + 1
    else:
        rng = np.random.default_rng(0)
        c1, c2 = (rng.integers(0, ctx.order, (200, n), dtype=np.int64) for _ in range(2))
        if n == 8:
            assert np.unique(np.concatenate([c1, c2])).size == 256  # every byte value
        named = [
            (
                next(search.random_pair_batches(ctx, 200, 0)),
                list(zip(map(tuple, c1.tolist()), map(tuple, c2.tolist()))),
            )
        ]
    rows = zero_rows = 0
    for batch, pairs in named:
        assert len(pairs) == len(batch["w1"]) == len(batch["w2"]) == len(batch["nonzero"])
        assert batch["w1"].dtype == batch["w2"].dtype == np.int64
        dec = search._part_decoders(ctx)
        both = np.ones(len(pairs), dtype=bool)  # both maps nonzero
        coeffs = []
        for h, w in enumerate(("w1", "w2")):
            keys = [pair[h] for pair in pairs]
            index = {key: i for i, key in enumerate(dict.fromkeys(keys))}
            at = np.array([index[key] for key in keys])
            oracle = [expect(key) for key in index]
            for p, part in enumerate(("table", "adjoint"), 1):
                want = np.array([o[p] for o in oracle])[at]
                assert np.array_equal(dec[part](batch[w]), want)
            coeffs.append([oracle[i][0] for i in at.tolist()])
            both &= np.array([any(o[0]) for o in oracle])[at]
        assert search._batch_pairs(ctx, batch, np.arange(len(pairs))) == list(zip(*coeffs))
        assert np.array_equal(batch["nonzero"], both)
        zero_rows += int(np.count_nonzero(~both))
        rows += len(pairs)
    if source == "canonical":
        # rank-deficient representatives with a zero half
        assert zero_rows > 0
    expected = {
        "canonical": search.canonical_pair_count(n) if n < 4 else search.BLOCK,
        "all-pairs": nmaps * nmaps,
        "random": 200,
    }
    assert rows == expected[source]


def test_map_rows_reject_wide_fields():
    # field elements above n = 8 do not fit the uint8 map rows, and the
    # n^2 bits of a map do not fit a packed word
    ctx = make_field(9)
    with pytest.raises(ValueError, match="n <= 8"):
        search._map_rows(ctx, [LinearizedPoly.identity(ctx)])
    with pytest.raises(ValueError, match="n <= 8"):
        next(search.random_pair_batches(ctx, 10, 0))


@pytest.mark.parametrize("n", range(2, 9))
def test_coeff_decoder_rows_match_oracle(n):
    # a word decodes to the table and adjoint table of the map it names,
    # its packed coefficients (bit t of c_i at n*i + t), and _batch_pairs
    # reads the coefficients back; the tables are the product-table
    # oracle's, probe the adjoint table at _PROBE from n = 4
    ctx = make_field(n)
    coeffs = np.random.default_rng(n).integers(0, ctx.order, (40, n))
    coeffs[0], coeffs[1] = 0, ctx.mask
    words = [sum(d << (n * i) for i, d in enumerate(row)) for row in coeffs.tolist()]
    words = np.array(words, dtype=np.uint64).view(np.int64)  # n = 8 sets the sign bit
    adjoint = [LinearizedPoly(ctx, tuple(c)).adjoint().coeffs for c in coeffs.tolist()]
    adjoint_tables = _tables_from_coeffs(ctx, np.array(adjoint))
    got = {part: decode(words) for part, decode in search._part_decoders(ctx).items()}
    assert set(got) == {"table", "adjoint"} | ({"probe"} if n >= 4 else set())
    assert all(rows.dtype == np.uint8 for rows in got.values())
    batch = {"w1": words, "w2": words[::-1]}
    rows = [tuple(c) for c in coeffs.tolist()]
    assert search._batch_pairs(ctx, batch, np.arange(40)) == list(zip(rows, rows[::-1]))
    assert search._batch_pairs(ctx, batch, np.arange(0)) == []
    assert np.array_equal(got["table"], _tables_from_coeffs(ctx, coeffs))
    assert np.array_equal(got["adjoint"], adjoint_tables)
    if n >= 4:
        assert np.array_equal(got["probe"], adjoint_tables[:, search._PROBE])


class _ByteSpanMap:
    """Oracle of search._SpanMap: origin XOR the images of the set bits of
    m, 8 index bits per span table, XORed element by element in the
    rows' own dtype."""

    def __init__(self, origin, images):
        self.origin = origin
        self.spans = [span_table(images[lo : lo + 8]) for lo in range(0, len(images), 8)]

    def __call__(self, ms):
        out = np.repeat(self.origin[None], ms.size, axis=0)
        for k, tab in enumerate(self.spans):
            out ^= np.take(tab, (ms >> (8 * k)) & 0xFF, axis=0)
        return out


def _assert_same_rows(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert np.array_equal(got, want)


def test_span_map_words_match_byte_oracle():
    # rows of every byte width 1..40 decode to the values, dtype and shape
    # of the oracle's decode; 19 images make two full 8-bit chunks and a
    # partial one
    rng = np.random.default_rng(0)
    ms = np.concatenate([[0, (1 << 19) - 1], rng.integers(0, 1 << 19, 200)]).astype(np.int64)
    for width in range(1, 41):
        origin = rng.integers(0, 256, width, dtype=np.uint8)
        images = rng.integers(0, 256, (19, width), dtype=np.uint8)
        fast, oracle = search._SpanMap(origin, images), _ByteSpanMap(origin, images)
        for idx in (ms, ms[:0]):
            _assert_same_rows(fast(idx), oracle(idx))


def test_span_map_scalar_word_rows():
    # packed uint64 words (scalar origin, one word per image) decode in
    # their own dtype
    rng = np.random.default_rng(1)
    words = rng.integers(0, 1 << 63, 12, dtype=np.uint64)
    fast, oracle = search._SpanMap(words[0], words[1:]), _ByteSpanMap(words[0], words[1:])
    ms = np.arange(1 << 11, dtype=np.int64)
    for idx in (ms, ms[:0], ms.astype(np.uint64)):
        _assert_same_rows(fast(idx), oracle(idx))


def test_all_in_matches_row_all():
    # one AND-and-compare per row equals the byte-wise all() of the
    # lookups, for row widths 1..130, byte and int64 entries, and no rows
    rng = np.random.default_rng(2)
    table = rng.random(256) < 0.9
    inside = np.flatnonzero(table)
    for width in range(1, 131):
        rows = rng.integers(0, 256, (200, width))
        # rows 50..99 lie in the table, rows 0..49 miss it at one entry
        rows[:100] = rng.choice(inside, (100, width))
        rows[np.arange(50), rng.integers(width, size=50)] = rng.choice(np.flatnonzero(~table), 50)
        for r in (rows.astype(np.uint8), rows, rows[:0].astype(np.uint8)):
            want = np.take(table, r).all(axis=1)
            _assert_same_rows(search._all_in(table, r), want)


@pytest.mark.parametrize("q", [4, 8, 16, 32, 64, 128, 256])
def test_permutes_matches_sorted_rows(q):
    # the one-hot OR equals sorted(row) == list(range(q)) on permutations,
    # on rows with exactly one value repeated (and so one missing), and on
    # constant rows, for one 32-bit word (q <= 32) and for q / 32 words
    rng = np.random.default_rng(q)
    perms = np.array([rng.permutation(q) for _ in range(60)])
    repeated = perms.copy()
    for row in repeated:
        a, b = rng.choice(q, 2, replace=False)
        row[a] = row[b]
    constant = np.repeat(rng.integers(0, q, (20, 1)), q, axis=1)
    constant[:2] = [[0], [q - 1]]
    rows = np.concatenate([perms, repeated, constant]).astype(np.uint8)
    want = [sorted(row) == list(range(q)) for row in rows.tolist()]
    assert want == [True] * 60 + [False] * 80
    assert search._permutes(rows).tolist() == want
    assert search._permutes(rows[:0]).shape == (0,)


@pytest.mark.parametrize("n", range(3, 9))
def test_lifted_r_stages_match_product_then_lookup(n):
    # the pair decoder's probe and R rows are pair indices of the adjoint
    # values, read through tables lifted by the product table: entry for
    # entry, the same as multiplying L1*(b) L2*(b), then looking R up
    ctx = make_field(n)
    batch = next(search.random_pair_batches(ctx, 300, seed=n))
    rows = np.arange(300)
    l1s, l2s = (
        np.array([LinearizedPoly(ctx, c).adjoint().table() for c in coeffs])
        for coeffs in zip(*search._batch_pairs(ctx, batch, rows))
    )
    r = ctx.mul_vec(l1s, l2s)
    lifted = search._pair_decoder(ctx, batch, n >= 4)[0]
    plain = search._criterion_stages(ctx, None, "probe" if n >= 4 else None, "r")
    assert [name for name, _, _ in lifted] == [name for name, _, _ in plain]
    for (_, decode, table), (_, part, want) in zip(lifted[1:], plain[1:]):
        got = table[decode(rows)]
        assert got.shape == (300, len(search._PROBE) if part == "probe" else ctx.order)
        assert np.array_equal(got, want[r[:, search._PROBE] if part == "probe" else r])


def test_criterion_mismatches_canonical_n4():
    # the exact criterion and bijectivity agree on every nonzero canonical
    # pair at n = 4; the batches check 308,860 of the 308,993
    # representatives (the rest have a zero half)
    ctx = make_field(4)
    results = list(search.criterion_mismatches(ctx, search.canonical_batches(ctx)))
    assert sum(checked for checked, _ in results) == 308860
    assert [bad for _, bad in results] == [[]] * 5


def test_funnel_chunks_do_not_change_results(full3_report, full4_report, monkeypatch):
    # the funnel hands its decoders a few candidates at a time; chunks of
    # 1000, which split every canonical and all-pairs batch unevenly, give
    # the same report.  So do n = 3 batches of one
    # L1 each: the audit rule takes the first 8 rejected of each L1's run
    # however many runs share a batch
    monkeypatch.setattr(search, "_CHUNK", 1000)
    assert search.full_search(4) == full4_report
    assert search.full_search(3) == full3_report
    monkeypatch.undo()
    monkeypatch.setattr(search, "BLOCK", 511)
    assert [len(b["w1"]) for b in search.all_pair_batches(make_field(3))] == [511] * 511
    assert search.full_search(3) == full3_report


@pytest.mark.parametrize("n", [3, 4])
def test_kernel_stage_keeps_pairs_of_full_rank(n, full3_report, full4_report):
    # ker L1* and ker L2* meet trivially exactly when the stacked n x 2n
    # matrix [M1 | M2] has rank n, so the kernel-intersection stage keeps
    # exactly the nonzero pairs of rank n: at n = 3 the 63*62*60 rank-3
    # matrices less the 2*168 with a zero half, at n = 4 the [8, 4]_2
    # canonical representatives of rank 4 less [I | 0] and [0 | I]
    ctx = make_field(n)
    if n == 3:
        mats = [None] + [
            LinearizedPoly(ctx, tuple((w >> (n * i)) & ctx.mask for i in range(n))).matrix()
            for w in range(1, 1 << (n * n))
        ]

        def stacked(batch):
            pairs = zip(batch["w1"].tolist(), batch["w2"].tolist())
            return [[a | (b << n) for a, b in zip(mats[w1], mats[w2])] for w1, w2 in pairs]

        batches, want_total = search.all_pair_batches(ctx), 63 * 62 * 60 - 2 * 168
    else:
        stacked = lambda batch: stacked_rows(ctx, batch["w1"], batch["w2"]).tolist()
        batches, want_total = search.canonical_batches(ctx), search.gaussian_binomial(8, 4) - 2
    total = 0
    for batch in batches:
        rows = np.flatnonzero(batch["nonzero"])
        (name, kernel, table), *_ = search._pair_decoder(ctx, batch, n >= 4)[0]
        assert name == "kernel-intersection"
        got = rows[search._all_in(table, kernel(rows))]
        mats_of = stacked(batch)
        want = [i for i in rows.tolist() if gf2mat.rank(mats_of[i], 2 * n) == n]
        assert got.tolist() == want
        total += len(want)
    assert total == want_total
    report = full3_report if n == 3 else full4_report
    assert dict(report.stages)["kernel-intersection"] == want_total


@pytest.mark.parametrize("n", range(2, 9))
def test_tables_from_coeffs_match_maps(n):
    ctx = make_field(n)
    coeffs = np.random.default_rng(n).integers(0, ctx.order, (40, n))
    tables = _tables_from_coeffs(ctx, coeffs)
    for row, table in zip(coeffs.tolist(), tables):
        assert np.array_equal(table, LinearizedPoly(ctx, tuple(row)).table())


def test_canonical_search_n4(full4_report):
    rep = full4_report
    assert rep.mode == "canonical"
    assert rep.examined == search.canonical_pair_count(4)
    assert rep.witness_count == 10  # frozen canonical-representative count
    ctx = make_field(4)
    for l1_text, l2_text in rep.witnesses:
        l1 = LinearizedPoly.from_text(ctx, l1_text)
        l2 = LinearizedPoly.from_text(ctx, l2_text)
        assert build_F(l1, l2).is_permutation()
    # witness existence transfers to the whole orbit: left-composing with
    # a random bijection keeps the permutation property
    rng = random.Random(9)
    l1 = LinearizedPoly.from_text(ctx, rep.witnesses[0][0])
    l2 = LinearizedPoly.from_text(ctx, rep.witnesses[0][1])
    for _ in range(10):
        a = LinearizedPoly.from_matrix(ctx, gf2mat.random_invertible(4, rng))
        assert build_F(a.compose(l1), a.compose(l2)).is_permutation()


def test_identity_search_witness_counts(identity3_report, identity4_report):
    assert identity3_report.witness_count == 7
    assert identity4_report.witness_count == 5
    ctx3, ctx4 = make_field(3), make_field(4)
    for rep, ctx in ((identity3_report, ctx3), (identity4_report, ctx4)):
        for l1_text, l2_text in rep.witnesses:
            l1 = LinearizedPoly.from_text(ctx, l1_text)
            assert l1 == LinearizedPoly.identity(ctx)
            l2 = LinearizedPoly.from_text(ctx, l2_text)
            assert build_F(l1, l2).is_permutation()
            assert perm_criterion_kloosterman(l1, l2)  # cross-oracle


def test_identity_search_rejects_large_n():
    with pytest.raises(ValueError, match="2 <= n <= 6"):
        search.identity_L1_search(7)


def test_normalized_search_range():
    with pytest.raises(ValueError, match="5 <= n <= 8"):
        search.normalized_search(4)
    with pytest.raises(ValueError, match="5 <= n <= 8"):
        search.normalized_search(9)


def test_normalized6_uses_presolve(normalized6_report):
    rep = normalized6_report
    assert rep.witness_count == 0
    assert rep.space == 1 << 30
    assert rep.examined < rep.space  # only the trace-coset is touched
    assert any("presolved" in note for note in rep.notes)
    counts = [s for _, s in rep.stages]
    assert counts == sorted(counts, reverse=True)


def test_identity6_uses_presolve(identity6_report):
    rep = identity6_report
    assert rep.witness_count == 0
    assert rep.space == (1 << 36) - 1
    assert rep.examined < 1 << 22
    assert rep.audit_violations == 0


def test_trace_presolve_is_exact():
    # the enumerated coset is exactly the set of maps passing the trace
    # half of the necessary condition (checked exhaustively at n = 4)
    ctx = make_field(4)
    l1s_tab = LinearizedPoly.identity(ctx).adjoint().table()
    rows = search._trace_rows(ctx, l1s_tab)
    coset = [gf2mat.solve(rows, 16, 0), *gf2mat.nullspace(rows, 16)]
    coset_rows = _coset_rows(4, coset, range(1 << (len(coset) - 1)))
    coset_set = {tuple(row) for row in coset_rows.tolist()}
    every = _unpack(4, range(1 << 16))
    r = ctx.mul_vec(np.arange(ctx.order), _tables_from_coeffs(ctx, every))
    brute = {tuple(row) for row in every[~ctx.trace_table[r].any(axis=1)].tolist()}
    assert coset_set == brute


def test_worker_determinism():
    a = search.identity_L1_search(4, workers=1)
    b = search.identity_L1_search(4, workers=3)
    assert a == b


def test_worker_determinism_coset_path():
    # the value-one coset, split over a pool
    a = search.normalized_search(5, workers=1)
    b = search.normalized_search(5, workers=2)
    assert a == b


def test_worker_determinism_presolved_path(monkeypatch):
    # n = 7 is the only presolved run that starts a pool (n = 6 fits one
    # block); spawned workers inherit no cache, so each solves the trace
    # rows and builds the decoder itself
    a = search.normalized_search(7, workers=1)
    spawn = partial(ProcessPoolExecutor, mp_context=multiprocessing.get_context("spawn"))
    monkeypatch.setattr(search, "ProcessPoolExecutor", spawn)
    b = search.normalized_search(7, workers=2)
    assert a == b


# coefficient tuples of the two fixed L1s that the searches use, and of
# the normalized L1 with L2*(1) left free ("unnormalized"), whose kernel
# stage can reject; value_one is imposed for "normalized" alone
FIXED_L1 = {
    "identity": lambda ctx: LinearizedPoly.identity(ctx).coeffs,
    "normalized": lambda ctx: (
        LinearizedPoly.frobenius(ctx, ctx.n - 1) + LinearizedPoly.identity(ctx)
    ).coeffs,
}
FIXED_L1["unnormalized"] = FIXED_L1["normalized"]


def _unpack(n, words):
    """(B, n) coefficient rows of packed words (bit t of c_i at n*i + t)."""
    words = np.array(list(words), dtype=np.uint64)
    shifts = np.arange(0, n * n, n, dtype=np.uint64)
    return ((words[:, None] >> shifts) & np.uint64((1 << n) - 1)).astype(np.int64)


def _coset_rows(n, coset, ms):
    """Coefficient rows of coset indices: the origin word coset[0] XOR the
    basis word coset[1 + k] over the set bits k of each m, unpacked."""
    origin, *basis = coset
    words = []
    for m in ms:
        word = origin
        for k, vec in enumerate(basis):
            if (int(m) >> k) & 1:
                word ^= vec
        words.append(word)
    return _unpack(n, words)


def _coset_size(env):
    return 1 << (len(env["coset"]) - 1)


def _unpack_mask(mask, size):
    """The first size bools of a packed uint64 block mask (bit t of word w
    is offset 64 w + t)."""
    return np.unpackbits(mask.view(np.uint8), bitorder="little").view(bool)[:size]


@pytest.mark.parametrize("alternate", [False, True])
@pytest.mark.parametrize("kind", ["identity", "normalized"])
@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_fixed_l1_coset_solves_its_system(kind, n, alternate):
    # the env's coset words, origin first, are the whole solution set of
    # the presolve's system in L2*'s coefficient bits: the origin solves
    # rows = rhs, each basis word rows = 0, and the basis words are
    # independent and as many as the system's nullity
    modulus = alternate_modulus(n) if alternate else None
    ctx = make_field(n, modulus)
    l1_coeffs = FIXED_L1[kind](ctx)
    origin, *basis = search._fixed_l1_env(n, modulus, l1_coeffs, kind == "normalized")["coset"]
    l1s_tab = LinearizedPoly(ctx, l1_coeffs).adjoint().table()
    rows = search._trace_rows(ctx, l1s_tab) if n >= 6 else []
    rhs = 0
    if kind == "normalized":  # bit t of L2*(1) = sum_i c_i is [t = 0]
        rhs = 1 << len(rows)
        rows = rows + [sum(1 << (n * i + t) for i in range(n)) for t in range(n)]
    assert all(0 <= w < 1 << (n * n) for w in [origin, *basis])
    assert gf2mat.mat_vec(rows, origin) == rhs
    assert all(gf2mat.mat_vec(rows, w) == 0 for w in basis)
    assert gf2mat.rank(basis, n * n) == len(basis) == n * n - gf2mat.rank(rows, n * n)
    # and by evaluation: Tr(L1*(a) L2*(a)) = 0 at every a (n >= 6), and
    # L2*(1) is 1 at the origin and 0 on the basis (normalized)
    for k, w in enumerate([origin, *basis]):
        l2s = LinearizedPoly(ctx, _unpack(n, [w])[0].tolist()).table()
        if n >= 6:
            assert not ctx.trace_table[ctx.mul_vec(l1s_tab, l2s)].any()
        if kind == "normalized":
            assert l2s[1] == (k == 0)


@pytest.mark.parametrize("alternate", [False, True])
@pytest.mark.parametrize(
    "kind,n",
    [("normalized", n) for n in (5, 6, 7, 8)]
    + [("identity", n) for n in (3, 4, 5)]
    + [("unnormalized", n) for n in (4, 5)],
)
def test_linear_decoder_matches_multiplication(kind, n, alternate):
    # the XOR-of-images decode equals the product-table evaluation of
    # L2, L2*, R = L1* L2* and F = L1(x^-1) + L2(x) on random coset
    # indices, where the coset holds L2*'s coefficient vectors
    modulus = alternate_modulus(n) if alternate else None
    ctx = make_field(n, modulus)
    l1 = LinearizedPoly(ctx, FIXED_L1[kind](ctx))
    # value_one positional, as the search blocks pass it, so the lru_cache
    # entry is shared with them
    env = search._fixed_l1_env(n, modulus, l1.coeffs, kind == "normalized")
    coset, dec = env["coset"], env["dec"]
    l1s_tab = l1.adjoint().table()
    kernel_pts = [b for b in range(1, ctx.order) if l1s_tab[b] == 0]
    # every prefix stage is a join: the kernel stage, then the probe from n = 4
    joins = [name for name, _ in env["joins"]]
    assert joins == ["kernel-intersection"] + [None] * (n >= 4)
    assert bool(kernel_pts) == (kind != "identity")  # L1* = x is injective
    assert ("probe" in dec) == (n >= 4)
    top = _coset_size(env) - 1
    rng = np.random.default_rng(n)
    ms = np.concatenate([[0, top], rng.integers(0, top + 1, 300)]).astype(np.int64)
    coeffs = _coset_rows(n, coset, ms)
    if kind != "normalized":
        # raw enumeration is the coset with the standard basis
        assert np.array_equal(coeffs, _unpack(n, ms))
    l2_coeffs = [LinearizedPoly(ctx, tuple(row)).adjoint().coeffs for row in coeffs.tolist()]
    assert dec["coeffs"](ms).dtype == np.uint8
    assert dec["coeffs"](ms).tolist() == [list(c) for c in l2_coeffs]
    l2s = _tables_from_coeffs(ctx, coeffs)
    r = ctx.mul_vec(l1s_tab[None, :], l2s)
    assert np.array_equal(dec["r"](ms), r)
    if n >= 4:
        # the probe points are distinct field elements at every n >= 4
        assert len(set(search._PROBE)) == len(search._PROBE)
        assert all(0 < b < 16 for b in search._PROBE)
        assert np.array_equal(dec["probe"](ms), r[:, search._PROBE])
    assert np.array_equal(dec["kernel"](ms), l2s[:, kernel_pts])
    if kind == "normalized":  # the kernel row is L2*(1) = 1 on the whole coset
        assert (l2s[:, kernel_pts] == 1).all()
    l2 = _tables_from_coeffs(ctx, np.array(l2_coeffs, dtype=np.int64))
    l1_on_inv = l1.table()[ctx.inv_table]
    assert np.array_equal(dec["f"](ms), l1_on_inv[None, :] ^ l2)


def _nonzero_cases():
    # (kind, n, blocks): the whole coset where it is one block, else the
    # blocks at index 0 and 1 that lie in the space (at n = 6 the
    # presolved coset is the one block 0)
    cases = [("identity", n, None) for n in (2, 3, 4)]
    cases += [("identity", n, (0, 1)) for n in (5, 6)]
    return cases + [("normalized", n, (0, 1)) for n in (5, 6, 7)]


@pytest.mark.parametrize("alternate", [False, True])
@pytest.mark.parametrize("kind,n,blocks", _nonzero_cases())
def test_nonzero_stage_drops_zero_l2(kind, n, blocks, alternate):
    # a block drops exactly the indices whose L2 coefficients decode to 0:
    # index 0 of the homogeneous (identity) cosets, nothing under value_one;
    # a dropped index is counted nowhere and never reported.  The blocks
    # run as one chunk.
    modulus = alternate_modulus(n) if alternate else None
    ctx = make_field(n, modulus)
    key = (n, modulus, FIXED_L1[kind](ctx), kind == "normalized")
    env = search._fixed_l1_env(*key)
    size = _coset_size(env)
    partitions = -(-size // search.BLOCK)
    blocks = [b for b in blocks or range(partitions) if b < partitions]
    results = search._fixed_l1_chunk(key, (blocks[0], blocks[-1] + 1))
    assert len(results) == len(blocks)
    for b, res in zip(blocks, results):
        start = b * search.BLOCK
        every = np.arange(start, min(start + search.BLOCK, size), dtype=np.int64)
        zero = every[~env["dec"]["coeffs"](every).any(axis=1)]
        assert res["counts"]["nonzero"] == every.size - zero.size
        assert zero.tolist() == ([0] if kind == "identity" and b == 0 else [])
        reported = [l2 for _, l2 in res["audit"] + res["witnesses"]]
        assert len(res["audit"]) == min(8, every.size - zero.size - len(res["witnesses"]))
        assert all(any(l2) for l2 in reported)


def _join_cases():
    # (kind, n, modulus): identity n = 2..6 (coset dims 4, 9, 16, 25 and
    # the presolved 15, whose second span table has 128 rows), normalized
    # n = 5..7 and the kernel stage that rejects, at the default and the
    # alternate modulus (n = 2 has one)
    cases = [("identity", n) for n in range(2, 7)] + [("normalized", n) for n in (5, 6, 7)]
    cases += [("unnormalized", n) for n in (4, 5)]
    return [(k, n, m) for k, n in cases for m in dict.fromkeys([None, alternate_modulus(n)])]


@pytest.mark.parametrize("kind,n,modulus", _join_cases())
def test_span_join_matches_row_lookup(kind, n, modulus):
    # a block's join mask equals _all_in over the decoded rows of every
    # index of blocks 0, 1 and last, joined together: for the env's prefix
    # stages (kernel, probe) with their tables, and for the full R rows
    # with the Tr = Q = 0 and K = 0 tables, which have up to 2^n bytes
    # per row
    ctx = make_field(n, modulus)
    env = search._fixed_l1_env(n, modulus, FIXED_L1[kind](ctx), kind == "normalized")
    dec, size = env["dec"], _coset_size(env)
    joins = env["joins"]
    assert [name for name, _ in joins] == ["kernel-intersection"] + [None] * (n >= 4)
    trq = (ctx.trace_table == 0) & (qform_table(ctx) == 0)
    kz = kloosterman_all(ctx) == 0
    # the unnamed joined stage is the probe
    decoders = {"kernel-intersection": dec["kernel"], None: dec.get("probe")}
    tables = {"kernel-intersection": np.arange(ctx.order) != 0, None: trq}
    stages = {name: (decoders[name], join) for name, join in joins}
    for name, table in {"r-trq": trq, "r-kz": kz}.items():
        stages[name] = (dec["r"], search._SpanJoin(dec["r"], table))
        tables[name] = table
    last = (size - 1) // search.BLOCK
    starts = np.array(sorted({0, min(1, last), last}), dtype=np.int64) * search.BLOCK
    for name, (rows, join) in stages.items():
        masks = join(starts)
        assert masks.dtype == np.uint64 and len(masks) == len(starts)
        for start, mask in zip(starts.tolist(), masks):
            every = np.arange(start, min(start + search.BLOCK, size), dtype=np.int64)
            # np.take(...).all() accepts the zero-width kernel rows of identity
            want = np.take(tables[name], rows(every)).all(axis=1)
            _assert_same_rows(_unpack_mask(mask, every.size), want)


@pytest.mark.parametrize("alternate", [False, True])
def test_constant_kernel_stage_passes_every_candidate(alternate):
    # normalized: L2*(1) = 1 on the coset, so the kernel row is the
    # constant 1 and its join passes every candidate; its count is the
    # nonzero count
    for n in (5, 6, 7, 8):
        modulus = alternate_modulus(n) if alternate else None
        ctx = make_field(n, modulus)
        env = search._fixed_l1_env(n, modulus, FIXED_L1["normalized"](ctx), True)
        assert [name for name, _ in env["joins"]] == ["kernel-intersection", None]  # then the probe
        key = (n, modulus, FIXED_L1["normalized"](ctx), True)
        counts = search._fixed_l1_chunk(key, (0, 1))[0]["counts"]
        block = min(search.BLOCK, _coset_size(env))
        assert counts["kernel-intersection"] == counts["nonzero"] == block
    # with L2*(1) free the same L1 keeps its kernel stage, and it rejects
    for n in (4, 5):
        modulus = alternate_modulus(n) if alternate else None
        ctx = make_field(n, modulus)
        key = (n, modulus, FIXED_L1["unnormalized"](ctx), False)
        env = search._fixed_l1_env(*key)
        counts = search._fixed_l1_chunk(key, (0, 1))[0]["counts"]
        assert 0 < counts["kernel-intersection"] < counts["nonzero"]
        # the stage rejects exactly the rows with L2*(1) = 0
        every = np.arange(min(search.BLOCK, _coset_size(env)), dtype=np.int64)
        assert counts["kernel-intersection"] == np.count_nonzero(env["dec"]["kernel"](every))
    # identity: L1* = x is injective, so the kernel row has no entry and
    # every nonzero candidate passes (index 0 is L2 = 0)
    for n in (3, 4, 5, 6):
        modulus = alternate_modulus(n) if alternate else None
        ctx = make_field(n, modulus)
        key = (n, modulus, FIXED_L1["identity"](ctx), False)
        env = search._fixed_l1_env(*key)
        assert env["dec"]["kernel"](np.arange(3)).shape == (3, 0)
        # its join is the all-ones mask, for every block
        name, join = env["joins"][0]
        assert name == "kernel-intersection"
        assert (join(np.array([0, search.BLOCK], dtype=np.int64)) == ~np.uint64(0)).all()
        counts = search._fixed_l1_chunk(key, (0, 1))[0]["counts"]
        block = min(search.BLOCK, _coset_size(env))
        assert counts["kernel-intersection"] == counts["nonzero"] == block - 1


def test_dispatch_caps_pool_at_partitions(monkeypatch):
    # a pool never holds more workers than there are blocks to run, and
    # its tasks are chunks of about partitions / (4 workers) consecutive
    # blocks, at most _CHUNK_BLOCKS; in process a chunk is _CHUNK_BLOCKS
    # blocks.  The chunks tile the blocks in order.  The recorder starts
    # no process
    calls = []

    class Recorder:
        def __init__(self, max_workers):
            calls.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, chunks):
            chunks = list(chunks)
            calls.append([hi - lo for lo, hi in chunks])
            return map(fn, chunks)

    monkeypatch.setattr(search, "ProcessPoolExecutor", Recorder)
    rep = search.normalized_search(5, workers=10**6)
    assert rep.partitions == 16
    assert rep == search.normalized_search(5, workers=1)
    search.normalized_search(5, workers=2)
    assert calls == [16, [1] * 16, 2, [2] * 8]
    cap = search._CHUNK_BLOCKS
    seen = []

    def blocks(chunk):
        seen.append(chunk)
        return list(range(*chunk))

    # 1000 blocks on two workers would be chunks of 125: capped
    calls.clear()
    assert search._dispatch(blocks, 1000, workers=2) == list(range(1000))
    assert calls == [2, [cap] * (1000 // cap) + [1000 % cap]]
    calls.clear()
    seen.clear()
    assert search._dispatch(blocks, 1000) == list(range(1000))
    assert calls == []  # in process: no pool
    assert seen == [(lo, min(lo + cap, 1000)) for lo in range(0, 1000, cap)]


@pytest.mark.parametrize("alternate", [False, True])
@pytest.mark.parametrize("kind,n", [("identity", 5), ("normalized", 5), ("normalized", 7)])
def test_chunk_boundaries_do_not_change_results(kind, n, alternate, monkeypatch):
    # chunks of 1 block, of 3 blocks and of every block give the same
    # per-block results (counts, witnesses, audit rows) and the same report
    modulus = alternate_modulus(n) if alternate else None
    search_fn = search.identity_L1_search if kind == "identity" else search.normalized_search
    merged = []
    report = search._report

    def spy(ctx, results, **fields):
        merged.append(results)
        return report(ctx, results, **fields)

    monkeypatch.setattr(search, "_report", spy)
    reports = []
    for size in (1, 3, 1 << 12):
        monkeypatch.setattr(search, "_CHUNK_BLOCKS", size)
        reports.append(search_fn(n, modulus))
    assert len(merged[0]) == reports[0].partitions > 3
    assert merged[0] == merged[1] == merged[2]
    assert reports[0] == reports[1] == reports[2]


def test_worker_determinism_chunked_dispatch(identity5_report):
    # 512 blocks on two workers, 64 blocks per chunk: the same report as
    # one worker, and one progress record per block, in block order
    records = []
    rep = search.identity_L1_search(5, workers=2, progress=records.append)
    assert rep == identity5_report
    assert records == [{"partition": i, "partitions": 512} for i in range(1, 513)]


@pytest.mark.parametrize("n,forced", [(5, 16), (7, 64)])
def test_theorem8_candidates_fail_mod16_in_normalized_coset(n, forced):
    # the forced L2* of the recurrence engine with L2*(1) = 1 are points
    # of the normalized search's coset, and the funnel rejects each one
    # at the mod-16 stage
    ctx = make_field(n)
    env = search._fixed_l1_env(n, None, FIXED_L1["normalized"](ctx), True)
    origin, *basis = env["coset"]
    candidates = [recurrence_coeffs(ctx, c0) for c0 in range(ctx.order)]
    hits = [l2s.coeffs for l2s in candidates if l2s(1) == 1]
    assert len(hits) == forced

    def pack(vec):
        return sum(c << (n * i) for i, c in enumerate(vec))

    # index bit k selects basis word k: solve the n^2 coefficient-bit equations
    rows = [sum(((w >> p) & 1) << k for k, w in enumerate(basis)) for p in range(n * n)]
    ms = []
    for coeffs in hits:
        m = gf2mat.solve(rows, len(basis), pack(coeffs) ^ origin)
        assert m is not None  # the candidate lies in the coset
        assert _coset_rows(n, env["coset"], [m]).tolist() == [list(coeffs)]
        ms.append(m)
    ms = np.sort(np.array(ms, dtype=np.int64))
    dec = env["dec"]
    stages = search._criterion_stages(ctx, dec["kernel"], dec["probe"], dec["r"])
    counts, _, _ = search._funnel(ms, stages, dec["f"], {"nonzero": int(ms.size)})
    assert counts["nonzero"] == forced
    assert counts["mod16-necessary"] == 0


STAGE_NAMES = ["nonzero", "kernel-intersection", "mod16-necessary", "kloosterman-zero", "bijective"]


def test_funnel_decodes_nothing_after_last_survivor(monkeypatch):
    # once no candidate is left, the funnel calls no decoder: no _SpanMap
    # of a fixed-L1 block and no pair-batch decoder sees an empty index
    # array, and every stage count is still recorded.  Identity n = 5
    # blocks have no mod-16 survivors; canonical n = 4 batch 0 has no
    # kernel-intersection survivors.  Every source records its counts in
    # the order of _criterion_stages: fixed-L1 blocks, canonical and
    # all-pairs batches (no mod-16 stage below n = 4) and a
    # criterion_mismatches batch (no mod-16 stage: it is not the criterion)
    sizes, names = [], []

    def spy(fn):
        def decode(*args):
            sizes.append(np.size(args[-1]))
            return fn(*args)

        return decode

    monkeypatch.setattr(search._SpanMap, "__call__", spy(search._SpanMap.__call__))
    pair_decoder = search._pair_decoder

    def spied_pair_decoder(*args, **kw):
        stages, f = pair_decoder(*args, **kw)
        names.append([name for name, _, _ in stages if name])
        return [(name, spy(rows), table) for name, rows, table in stages], spy(f)

    monkeypatch.setattr(search, "_pair_decoder", spied_pair_decoder)
    for n, kind, blocks in [(5, "identity", 4), (7, "normalized", 1)]:
        key = (n, None, FIXED_L1[kind](make_field(n)), kind == "normalized")
        for res in search._fixed_l1_chunk(key, (0, blocks)):
            counts = res["counts"]
            assert list(counts) == STAGE_NAMES
            assert kind != "identity" or counts["mod16-necessary"] == 0
    batches = search.canonical_batches
    monkeypatch.setattr(search, "canonical_batches", lambda ctx: islice(batches(ctx), 1))
    rep = search.full_search(4)
    assert [name for name, _ in rep.stages] == STAGE_NAMES
    assert names == [STAGE_NAMES[1:-1]]
    assert dict(rep.stages)["kernel-intersection"] == 0
    no_mod16 = [name for name in STAGE_NAMES if name != "mod16-necessary"]
    rep = search.full_search(3)
    assert [name for name, _ in rep.stages] == no_mod16
    assert names[1:] == [no_mod16[1:-1]] * 4  # one decoder per batch of 128 L1s
    ctx = make_field(3)
    next(search.criterion_mismatches(ctx, search.all_pair_batches(ctx)))
    assert names[-1] == no_mod16[1:-1]
    assert sizes and min(sizes) > 0


def test_report_json_shape(identity4_report):
    d = identity4_report.to_json_dict()
    assert d["witness_count"] == len(d["witnesses"])
    assert all(set(w) == {"l1", "l2"} for w in d["witnesses"])
    assert d["audit"]["violations"] == 0
    assert d["field"] == "4:0x13"


def test_n4_witness_kernel_structure(full4_report):
    # derived structure of the n = 4 exceptions: each witness pair has one
    # bijective map and one kernel of size 4 that is a scaled subfield of
    # size 4, and the adjoint-kernel transport identity holds both ways
    # (outside the n >= 5 hypotheses, recorded as data)
    ctx = make_field(4)
    for l1_text, l2_text in full4_report.witnesses:
        l1 = LinearizedPoly.from_text(ctx, l1_text)
        l2 = LinearizedPoly.from_text(ctx, l2_text)
        k1, k2 = l1.kernel(), l2.kernel()
        assert sorted((k1.dim, k2.dim)) == [0, 2]
        big = k1 if k1.dim else k2
        hit = big.is_subfield_translate()
        assert hit is not None and hit[1] == 2
        # transport: ker L1 = L2*(ker L1*) and symmetrically
        assert l2.adjoint().apply_to_subspace(l1.adjoint().kernel()) == k1
        assert l1.adjoint().apply_to_subspace(l2.adjoint().kernel()) == k2
