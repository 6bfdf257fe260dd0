"""Exhaustive and pruned searches for permutations L1(x^-1) + L2(x).

Three drivers:

* full_search: every nonzero pair at n <= 3 raw; at n = 4 one
  representative per orbit of the left action A.(L1, L2) = (A L1, A L2)
  of invertible linear maps (a permutation survives left composition
  with a bijection, so orbit representatives cover the question).
* normalized_search (5 <= n <= 8): L1 fixed to x^(2^(n-1)) + x, L2
  ranging over the affine constraint L2*(1) = 1.
* identity_L1_search (n <= 6): L1 = x, all nonzero L2.

Every search, and verify_proposition2, runs one filter funnel
(_funnel) over the nonzero candidates: kernel-intersection -> mod-16
necessary condition (n >= 4) -> Kloosterman-zero membership -> full
bijectivity.  The funnel is its stage list: each candidate source hands
it an ordered list of (name, rows, table), and it returns the survivors.
rows is a decoder, a function of candidate indices, and a stage keeps
the candidates whose row lies in the bool table entry by entry (_all_in:
one lookup, then one word compare per row where the row fits a word).
The last stage, "bijective", has no table: its rows are F's table, and
it keeps those that hit every value (_permutes).  One builder,
_criterion_stages, makes every source's list from its row decoders.
The mod-16 stage is preceded by an unnamed probe stage that reads R at
the 8 _PROBE points, 8 bytes per candidate.  The stages before the
full mod-16 one, kernel and probe, are the funnel's prefix.  A map's
coefficients, table and adjoint table (its map rows, _map_rows) are
GF(2)-linear in the map, so maps decode as XORs of precomputed map rows
through a _SpanMap, with no field multiplications.

full_search and verify_proposition2 read batches of (L1, L2) pairs: all
nonzero pairs at n <= 3, canonical orbit representatives at n = 4, or
random rows.  A batch names its maps by two int64 words per row, each a
map's packed coefficients (bit t of c_i at n*i + t); the canonical
representatives are built as such words (_rref_words).  Each stage
decodes from the words only the part of the maps that it reads
(_part_decoders): adjoint tables for the kernel row and R, 8 adjoint
columns for the probe, value tables for F's survivors; the reported
rows read coefficients as the words' digits.  R is not multiplied out:
the probe and R rows hold the pair indices x << n | y of the two
adjoint values, and their stages read criterion tables lifted through
the product table, one gather per entry.  The other two drivers call
one fixed-L1 search, whose candidates are the indices of a coset of L2*
in blocks of BLOCK.  Its unit of work is a chunk of consecutive blocks,
(lo, hi) under the key (n, modulus, L1, value_one); each process builds
the state of a key once (_fixed_l1_env): the coset that the GF(2) solve
returns as packed words, origin first, and its decoders.  L2's map rows
and R are affine in L2*, so they decode from the map rows of L2 at the
coset's words.  A block's indices share all bytes but the low two, so
each prefix stage is a join over those two bytes (_SpanJoin): per block
and high byte, an AND of precomputed 256-bit masks of the low bytes,
one gather per row position for the whole chunk, with no row decoded
per candidate.  The masks stay packed: stage counts are their
popcounts, and survivors are unpacked from their nonzero words alone.
Only the survivors (191 of 2^25 - 1 at identity n = 5, about 600 a
block at normalized n = 7) run the rest of the stage list, one block at
a time, and a block with none decodes nothing.

Every unit of work is deterministic and the results are merged in
block order, so witness lists, counts and the audit sample are
identical for any worker count.  Every driver ends a unit of work (a
chunk of fixed-L1 blocks, a pair batch) with _block_results on the
funnel's survivors: per run of its candidates, the stage counts, the
witnesses and the audit rows, the last two as (L1, L2) coefficient-tuple
pairs.  A run is a fixed-L1 block, a canonical batch or, at n <= 3, the
pairs of one L1 (a batch holds many); each run is one progress record.
The audit rule takes the first 8 candidates of each run that the funnel
rejected, up to 256 in all, and re-checks them with
build_F(...).is_permutation(), once per pair.  _block_results finds
every run's witnesses and audit rows at once, with no loop over runs,
and decodes only those rows.
full_search runs its batches here, in order, and passes on the audit
budget left (AUDIT_CAP less the rows already sampled), so it decodes
no audit row that the report would drop; a fixed-L1 chunk decodes 8 a
block, so that its results do not depend on where chunks split.  The
audit makes one LinearizedPoly per distinct map of the sample; a map
builds its table on first use and keeps it, so a fixed L1's table is
built once per audit.  build_F evaluates F from the two maps
themselves, so it is an oracle independent of the decoders.  Candidates
the presolve skips fail a necessary condition and are never sampled
(ROADMAP.md, item 4, plans an audit that also covers them).
"""

from __future__ import annotations

from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import chain, combinations
from typing import Iterator, List, Optional, Tuple

import numpy as np

from . import gf2mat
from .gf2n import FieldContext, make_field, span_table
from .inverse_perm import build_F
from .kloosterman import divisible_by_16, kloosterman_all
from .linmap import LinearizedPoly

__all__ = [
    "SearchReport",
    "full_search",
    "normalized_search",
    "identity_L1_search",
    "all_pair_batches",
    "canonical_batches",
    "random_pair_batches",
    "criterion_mismatches",
    "canonical_key",
    "canonical_pair_count",
    "gaussian_binomial",
]

BLOCK = 1 << 16
AUDIT_CAP = 256
_CHUNK = 1 << 14
_CHUNK_BLOCKS = 64


@dataclass(frozen=True)
class SearchReport:
    """Self-contained record of one search run.

    A pure function of the search and its field: it holds no wall time
    and no worker count, so runs with any worker count compare equal.
    The CLI records wall time in the manifest (elapsed_ms)."""

    field_spec: str
    mode: str
    space: int  # size of the logical candidate space
    examined: int  # candidates actually enumerated
    stages: Tuple[Tuple[str, int], ...]  # (filter name, survivors)
    witnesses: Tuple[Tuple[str, str], ...]  # (l1 coeffs, l2 coeffs) hex texts
    partitions: int
    block_size: int
    audit_sampled: int
    audit_violations: int
    notes: Tuple[str, ...] = ()

    @property
    def witness_count(self) -> int:
        return len(self.witnesses)

    def to_json_dict(self) -> dict:
        return {
            "field": self.field_spec,
            "mode": self.mode,
            "space": self.space,
            "examined": self.examined,
            "stages": [{"name": name, "survivors": s} for name, s in self.stages],
            "witnesses": [{"l1": a, "l2": b} for a, b in self.witnesses],
            "witness_count": self.witness_count,
            "partitions": self.partitions,
            "block_size": self.block_size,
            "audit": {
                "sampled": self.audit_sampled,
                "violations": self.audit_violations,
            },
            "notes": list(self.notes),
        }


# -- shared vectorized helpers -------------------------------------------------


def _pack(n: int, digits: np.ndarray) -> np.ndarray:
    """uint64 base-2^n words of digit rows (last axis): digit i at bit n*i."""
    out = np.zeros(digits.shape[:-1], dtype=np.uint64)
    for i in range(digits.shape[-1]):
        out |= digits[..., i].astype(np.uint64) << np.uint64(n * i)
    return out


def _words(rows: np.ndarray) -> np.ndarray:
    """2-D rows viewed as the widest unsigned words (8, 4, 2 or 1 bytes)
    whose size divides the row's byte length."""
    raw = np.ascontiguousarray(rows).view(np.uint8)
    size = next(s for s in (8, 4, 2, 1) if raw.shape[1] % s == 0)
    return raw.view(f"u{size}")


def _all_in(table: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Mask of the 2-D rows whose every entry e has table[e], a bool table.

    The looked-up bools are bytes 0 or 1: a row's words are ANDed and the
    result compared once with the word of all 0x01 bytes.
    """
    words = _words(np.take(table, rows))
    acc = words[:, 0]
    for k in range(1, words.shape[1]):
        acc = acc & words[:, k]
    return acc == np.ones(words.itemsize, np.uint8).view(words.dtype)[0]


def _map_rows(ctx: FieldContext, maps: list) -> Tuple[np.ndarray, ...]:
    """uint8 rows of the maps' coefficients, tables and adjoint tables,
    each GF(2)-linear in the map: the row of a sum of maps is the XOR of
    theirs."""
    if ctx.n > 8:
        raise ValueError(f"map rows hold field elements as bytes, so n <= 8; got n={ctx.n}")
    parts = ([m.coeffs for m in maps], [m.table() for m in maps], [m.adjoint().table() for m in maps])
    return tuple(np.array(part, dtype=np.uint8) for part in parts)


# -- linear presolve of the trace condition ------------------------------------


def _trace_rows(ctx: FieldContext, l1star_tab: np.ndarray) -> List[int]:
    """Rows of Tr(L1*(a) L2*(a)) = 0 as GF(2) equations in L2*'s coeff bits.

    The row of point a is Tr(sum_i c_i w_i(a)), w_i(a) = L1*(a) a^(2^i);
    bit t of c_i, at position i*n + t, has weight Tr(2^t w_i(a)): bit t
    of trace_dual_table[w_i(a)].
    """
    weights = ctx.mul_vec(l1star_tab, ctx.pow2k_table)
    return _pack(ctx.n, ctx.trace_dual_table[weights].T).tolist()


# -- the filter funnel -----------------------------------------------------------


# points where R is tested before the full mod-16 check: 8 bytes of R, so
# one machine word per candidate (valid from n = 4, where 8 < q)
_PROBE = list(range(1, 9))


def _criterion_stages(ctx: FieldContext, kernel, probe, r, f, lift=None) -> list:
    """The funnel's ordered stage list (name, rows, table) over a source's
    row decoders: kernel (adjoint values, all nonzero exactly when the
    adjoint kernels meet trivially), probe (R at _PROBE; None leaves out
    the mod-16 stages), r (R everywhere) and f (F's table, tested last,
    by "bijective").  The mod-16 stages test R on the Tr = Q = 0 table of
    divisible_by_16, the next on K(a) = 0.  Given lift, an array of field
    elements, the probe and r rows hold positions in lift in place of R's
    values, and their stages read the criterion table lifted through it.
    """
    stages = [("kernel-intersection", kernel, np.arange(ctx.order) != 0)]
    if probe is not None:  # a few points first, then the full mod-16 condition
        d16 = divisible_by_16(ctx, np.arange(ctx.order))
        stages += [(None, probe, d16), ("mod16-necessary", r, d16)]
    stages.append(("kloosterman-zero", r, kloosterman_all(ctx) == 0))
    if lift is not None:
        stages[1:] = [(name, rows, table[lift]) for name, rows, table in stages[1:]]
    return stages + [("bijective", f, None)]


def _funnel(alive: np.ndarray, stages: list, counts: dict) -> np.ndarray:
    """Filter the sorted candidate indices alive through a stage list and
    return the survivors.

    stages is an ordered list of (name, rows, table): rows is a decoder,
    a function of candidate indices giving one row per candidate, and
    the stage keeps the candidates whose row lies in the bool table entry
    by entry (_all_in), or, with no table, whose row permutes
    (_permutes).  A named stage records its survivors in counts; an
    unnamed one (the 8-point probe) records nothing.  A decoder sees at
    most _CHUNK candidates a call.  Once no candidate is left no decoder
    is called, but every named count is still recorded.
    """
    for name, rows, table in stages:
        test = _permutes if table is None else partial(_all_in, table)
        alive = alive[_chunked(lambda m: test(rows(m)), alive)]
        if name:
            counts[name] = int(alive.size)
    return alive


def _chunked(mask, alive: np.ndarray) -> np.ndarray:
    """mask of alive, _CHUNK at a time, which bounds the decoders'
    temporaries (np.take widens indices to intp)."""
    parts = [mask(alive[lo : lo + _CHUNK]) for lo in range(0, alive.size, _CHUNK)]
    return np.concatenate(parts) if parts else np.zeros(0, dtype=bool)


def _permutes(tab: np.ndarray) -> np.ndarray:
    """Rows of q values below q that hit every value: the permutations.
    Up to q = 32 a row's OR of 1 << v covers all q bits of one 32-bit
    word, built one column at a time into one word array (no (b, q)
    temporary to reduce); above, a bool row per candidate marks the
    values seen."""
    b, q = tab.shape
    if q <= 32:
        words = np.zeros(b, dtype=np.uint32)
        for col in tab.T:
            words |= np.left_shift(np.uint32(1), col, dtype=np.uint32)
        return words == np.uint32((1 << q) - 1)
    seen = np.zeros((b, q), dtype=bool)
    seen[np.arange(b)[:, None], tab] = True
    return seen.all(axis=1)


def _block_results(counts: list, bounds, kept: np.ndarray, pairs, rows=None, budget=None) -> list:
    """The outcome of a batch of candidates, one dict per run of them: the
    run's stage counts (counts[i] for run i), its witnesses and, by the
    audit rule, the first 8 candidates of the run that the funnel
    rejected.  kept holds the funnel's survivors, sorted.

    The batch's sorted candidates are rows[p] at the positions p of
    range(bounds[0], bounds[-1]) (the positions themselves when rows is
    None), and run i holds positions bounds[i] .. bounds[i + 1] - 1.  A
    run's witnesses are a subset of it, so its audit rows lie in its
    first 8 + (witness count) positions: these heads are gathered for
    every run at once, and each run's rejected entries are ranked by a
    running count.  budget, when given, keeps only the first budget audit
    rows of the batch, in run order.  pairs maps candidate indices to
    (L1, L2) coefficient-tuple pairs; it decodes the batch's witnesses
    and audit rows in one call.
    """
    bounds = np.asarray(bounds, dtype=np.int64)
    at = kept if rows is None else np.searchsorted(rows, kept)  # witness positions
    wits = np.diff(np.searchsorted(at, bounds))
    heads = np.minimum(np.diff(bounds), 8 + wits)
    firsts = np.cumsum(heads) - heads  # where each run's head starts among the heads
    run_of = np.repeat(np.arange(heads.size), heads)
    pos = np.arange(heads.sum()) + (bounds[:-1] - firsts)[run_of]
    rejected = np.searchsorted(at, pos) == np.searchsorted(at, pos, "right")
    seen = np.concatenate([[0], np.cumsum(rejected)])  # rejected heads ahead of each head
    rank = seen[:-1] - seen[firsts][run_of]  # ... and ahead of it in its run
    picked = np.flatnonzero(rejected & (rank < 8))[:budget]
    audit = pos[picked] if rows is None else rows[pos[picked]]
    found = pairs(np.concatenate([kept, audit]))
    wit_at = np.cumsum(wits).tolist()
    audit_at = np.cumsum(np.bincount(run_of[picked], minlength=heads.size)).tolist()
    return [
        {"counts": c, "witnesses": found[w0:w1], "audit": found[kept.size + a0 : kept.size + a1]}
        for c, w0, w1, a0, a1 in zip(counts, [0] + wit_at, wit_at, [0] + audit_at, audit_at)
    ]


def _report(ctx: FieldContext, results, **fields) -> SearchReport:
    """Merge block results in block order and re-check the audit sample."""
    counts: Counter = Counter()
    witnesses: list = []
    audit: list = []
    for res in results:
        counts.update(res["counts"])
        witnesses.extend(res["witnesses"])
        audit.extend(res["audit"][: AUDIT_CAP - len(audit)])

    # one LinearizedPoly, and so one table, per distinct map; build_F per pair
    polys = {c: LinearizedPoly(ctx, c) for c in set(chain.from_iterable(audit))}
    violations = sum(build_F(polys[l1], polys[l2]).is_permutation() for l1, l2 in audit)
    # a map recurs in many witnesses, so each distinct one is formatted once
    maps = {m for pair in witnesses for m in pair}
    text = {m: ",".join(f"{c:x}" for c in m) for m in maps}
    return SearchReport(
        field_spec=ctx.spec,
        stages=tuple(counts.items()),
        witnesses=tuple(sorted((text[l1], text[l2]) for l1, l2 in witnesses)),
        audit_sampled=len(audit),
        audit_violations=violations,
        **fields,
    )


def _collect(results, partitions: int, progress=None) -> list:
    """The block results of an iterable, in order, one progress record
    each."""
    out = []
    for i, res in enumerate(results):
        out.append(res)
        if progress:
            progress({"partition": i + 1, "partitions": partitions})
    return out


def _dispatch(fn, partitions: int, workers: int = 1, progress=None) -> list:
    """The per-block results of fn over chunks (lo, hi) of consecutive
    blocks that tile range(partitions), flattened in block order
    (_collect).  fn returns one result per block of its chunk.

    In this process a chunk holds _CHUNK_BLOCKS blocks.  A pool holds at
    most one worker per block (it starts all its processes at once), and
    its chunks hold about partitions / (4 workers) blocks, at most
    _CHUNK_BLOCKS, so a run makes a few round trips per worker rather
    than one per block."""
    workers = min(workers, partitions)
    size = _CHUNK_BLOCKS if workers <= 1 else min(_CHUNK_BLOCKS, max(1, partitions // (4 * workers)))
    chunks = [(lo, min(lo + size, partitions)) for lo in range(0, partitions, size)]
    if workers <= 1:
        return _collect(chain.from_iterable(map(fn, chunks)), partitions, progress)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return _collect(chain.from_iterable(pool.map(fn, chunks)), partitions, progress)


# -- fixed-L1 searches -----------------------------------------------------------


@lru_cache(maxsize=None)
def _fixed_l1_env(
    n: int, modulus: Optional[int], l1_coeffs: Tuple[int, ...], value_one: bool
) -> dict:
    """Per-process state of a fixed-L1 search: tables, coset and decoders.

    "coset" is the solution set of one GF(2) system in L2*'s coefficient
    bits, as gf2mat.solve and gf2mat.nullspace return it: packed words
    (bit t of c_i at n*i + t), the origin first, then the basis.  The
    system is the trace half of the mod-16 condition when n >= 6, where
    the spaces are too large to touch candidate by candidate, and
    L2*(1) = 1 when value_one; with neither, the coset is the raw digit
    space.  Candidate index m is the origin XOR the basis words at the
    set bits of m.  The system is homogeneous exactly when the origin is
    0; then index 0 is L2* = 0 and the nonzero candidates start at 1,
    otherwise no index is L2* = 0.

    The adjoint is GF(2)-linear, so the map rows of L2 = (L2*)* are
    affine in the index too; "dec" decodes them, as byte rows, through
    _SpanMaps.  "coeffs" gives L2's coefficient vector (blocks decode it
    only for the rows they report), "kernel" L2* at the nonzero kernel
    points of L1* (no column when L1* is injective), "probe" (n >= 4)
    and "r" the table R(b) = L1*(b) L2*(b) at the 8 probe points and
    everywhere, and "f" the table of F = L1(x^-1) + L2(x).

    The stage list of _criterion_stages splits where the stages on the
    full "r" rows begin.  "joins" holds the stages ahead of it as
    (name, _SpanJoin), which chunks run in place of the decoders; a
    stage that cannot reject (the kernel stage under value_one, whose
    row is the constant 1, or the empty kernel row of an injective L1*)
    is a join that passes every candidate.  "stages" is the rest of the
    list.
    """
    ctx = make_field(n, modulus)
    l1 = LinearizedPoly(ctx, l1_coeffs)
    l1s_tab = l1.adjoint().table()
    rows = _trace_rows(ctx, l1s_tab) if n >= 6 else []
    rhs = 0
    if value_one:  # L2*(1) = sum_i c_i = 1: bit t of the sum is [t = 0]
        rhs = 1 << len(rows)
        rows += [sum(1 << (i * n + t) for i in range(n)) for t in range(n)]
    origin = gf2mat.solve(rows, n * n, rhs)
    if origin is None:
        raise AssertionError("the constraint system cannot be infeasible")
    coset = [origin, *gf2mat.nullspace(rows, n * n)]
    if len(coset) > 31:
        raise AssertionError(f"presolve left 2^{len(coset) - 1} candidates, too many to enumerate")
    l2_maps = [
        LinearizedPoly(ctx, [(w >> (n * i)) & ctx.mask for i in range(n)]).adjoint() for w in coset
    ]
    coeffs, f, l2s = _map_rows(ctx, l2_maps)
    r = ctx.mul_vec(l1s_tab, l2s).astype(np.uint8)
    f[0] ^= l1.table()[ctx.inv_table].astype(np.uint8)
    tabs = {"coeffs": coeffs, "kernel": l2s[:, 1:][:, l1s_tab[1:] == 0], "r": r, "f": f}
    if n >= 4:
        tabs["probe"] = r[:, _PROBE]
    dec = {name: _SpanMap(tab[0], tab[1:]) for name, tab in tabs.items()}
    stages = _criterion_stages(ctx, dec["kernel"], dec.get("probe"), dec["r"], dec["f"])
    split = next(i for i, (_, rows, _) in enumerate(stages) if rows is dec["r"])
    return {
        "coset": coset, "dec": dec,
        "joins": [(name, _SpanJoin(rows, table)) for name, rows, table in stages[:split]],
        "stages": stages[split:],
    }


class _SpanMap:
    """GF(2)-affine map from candidate indices m to rows: origin XOR the
    images of the set bits of m, in the rows' own dtype and shape.

    Index bits are consumed in 8-bit chunks through span tables (the
    XOR of every subset of 8 images), one gather per chunk; the origin
    is XORed into the first table.  spans[k] serves index byte k, so
    _SpanJoin reads the tables of byte rows directly.
    """

    def __init__(self, origin: np.ndarray, images: np.ndarray):
        self.spans = [span_table(images[lo : lo + 8]) for lo in range(0, len(images), 8)]
        self.spans[0] ^= origin

    def __call__(self, ms: np.ndarray) -> np.ndarray:
        # np.take copies whole rows; fancy indexing goes element-wise
        out = np.take(self.spans[0], ms & 0xFF, axis=0)
        for k, tab in enumerate(self.spans[1:], 1):
            out ^= np.take(tab, (ms >> (8 * k)) & 0xFF, axis=0)
        return out


class _SpanJoin:
    """Funnel stage of a _SpanMap of byte rows over whole blocks: for the
    blocks from starts (multiples of BLOCK), the packed masks of the
    indices whose row lies in a bool table entry by entry.

    Index bytes 2 and up are constant in a block, so the row of index
    start + 256 h + l is lo[l] ^ hi[h] ^ top: lo is the first span table
    (the origin folded in), hi the second (one zero row when there is
    none) and top the XOR of the higher tables' (tops) rows at start's
    bytes.  in_table[b, v] holds, as 256 bits (four uint64), the l with
    table[lo[l]_b ^ v]; a block ANDs in_table[b, hi[h]_b ^ top_b] over
    the row positions b, so bit 256 h + l of its mask is index
    start + 256 h + l.  One gather per position serves every block, no
    row is decoded per candidate, and a join over no positions (the
    empty kernel row of an injective L1*) passes all.
    """

    def __init__(self, rows: _SpanMap, table: np.ndarray):
        lo, *rest = rows.spans
        self.hi, *self.tops = rest or [np.zeros((1, lo.shape[1]), dtype=np.uint8)]
        hits = table[lo[None] ^ np.arange(table.size, dtype=np.uint8)[:, None, None]]
        bits = np.zeros((lo.shape[1], table.size, 256), dtype=bool)
        bits[:, :, : len(lo)] = hits.transpose(2, 0, 1)  # (b, v, l)
        self.in_table = np.packbits(bits, axis=2, bitorder="little").view(np.uint64)

    def __call__(self, starts: np.ndarray) -> np.ndarray:
        """(blocks, 4 * len(hi)) uint64 masks, one row per start."""
        top = np.zeros((len(starts), self.hi.shape[1]), dtype=np.uint8)
        for k, tab in enumerate(self.tops, 2):
            top ^= tab[(starts >> (8 * k)) & 0xFF]
        masks = np.full((len(starts), len(self.hi), 4), ~np.uint64(0))
        for b, in_table in enumerate(self.in_table):
            masks &= np.take(in_table, self.hi[:, b] ^ top[:, b, None], axis=0)
        return masks.reshape(len(starts), -1)


def _fixed_l1_chunk(key: tuple, chunk: Tuple[int, int]) -> list:
    """Run the funnel on the blocks lo..hi-1 of chunk = (lo, hi), block b
    being the BLOCK candidates from b * BLOCK; one result per block, a
    pure function of key = (n, modulus, l1_coeffs, value_one) and b.

    A block's live indices, from "first" (1 in block 0 of a homogeneous
    coset) to the end of the block or of the space, are the nonzero
    stage's.  The env's joins, packed masks over the chunk's blocks, are
    ANDed in order, and a named one records each block's popcount after
    it.  Survivors are unpacked from the nonzero words alone, and only
    the blocks with survivors run the env's stage list, one block at a
    time, which keeps the decoders' temporaries at a block's size."""
    l1_coeffs = key[2]
    env = _fixed_l1_env(*key)
    origin, *basis = env["coset"]
    size = 1 << len(basis)
    starts = np.arange(*chunk, dtype=np.int64) * BLOCK
    firsts = np.maximum(starts, int(origin == 0))
    ends = np.minimum(starts + BLOCK, size)
    counts = [{"nonzero": int(end - first)} for first, end in zip(firsts, ends)]
    bits = min(BLOCK, size)
    keep = np.full((starts.size, -(-bits // 64)), ~np.uint64(0))
    keep[-1, -1] >>= np.uint64(-bits % 64)  # indices past a space of under 64
    if firsts[0] > starts[0]:  # index 0 is L2* = 0
        keep[0, 0] &= ~np.uint64(1)
    for name, join in env["joins"]:
        keep &= join(starts)[:, : keep.shape[1]]
        if name:
            for c, passed in zip(counts, np.bitwise_count(keep).sum(axis=1).tolist()):
                c[name] = passed
    rest = [name for name, _, _ in env["stages"] if name]
    survivors = [starts[:0]]
    for c, start, mask in zip(counts, starts.tolist(), keep):
        words = np.flatnonzero(mask)
        if not words.size:
            c.update(dict.fromkeys(rest, 0))
            continue
        # bit t of word w is index start + 64 w + t
        at = np.flatnonzero(np.unpackbits(mask[words].view(np.uint8), bitorder="little").view(bool))
        survivors.append(_funnel(start + 64 * words[at >> 6] + (at & 63), env["stages"], c))

    def pairs(sel):
        return [(l1_coeffs, tuple(row)) for row in env["dec"]["coeffs"](sel).tolist()]

    # block b's run is its indices firsts[b] .. ends[b] - 1, and ends[b] = firsts[b + 1]
    bounds = np.append(firsts, ends[-1])
    return _block_results(counts, bounds, np.concatenate(survivors), pairs)


def _run_fixed_l1(
    l1: LinearizedPoly, value_one: bool, workers: int, progress, notes, **fields
) -> SearchReport:
    """Search every L2 with L1 fixed, over the coset _fixed_l1_env solves."""
    if workers < 1:
        raise ValueError(f"workers must be at least 1; got {workers}")
    ctx = l1.ctx
    n = ctx.n
    key = (n, ctx.modulus, l1.coeffs, value_one)
    dim = len(_fixed_l1_env(*key)["coset"]) - 1
    if n >= 6:
        free = n * n - n * value_one
        notes += (f"trace condition presolved: 2^{dim} of 2^{free} candidates satisfy it",)
    partitions = -(-(1 << dim) // BLOCK)
    results = _dispatch(partial(_fixed_l1_chunk, key), partitions, workers, progress)
    return _report(
        ctx, results, examined=1 << dim, partitions=partitions, block_size=BLOCK,
        notes=notes, **fields,
    )


def identity_L1_search(
    n: int, modulus: Optional[int] = None, workers: int = 1, progress=None
) -> SearchReport:
    """F(x) = x^-1 + L(x) over every nonzero linearized L.

    Raw enumeration up to n = 5 (2^25 candidates); at n = 6 the trace
    half of the mod-16 condition is presolved and only its solution
    space (a tiny fraction of the 2^36 candidates) is enumerated.
    """
    if not 2 <= n <= 6:
        raise ValueError("identity-L1 search supports 2 <= n <= 6")
    return _run_fixed_l1(
        LinearizedPoly.identity(make_field(n, modulus)), False, workers, progress,
        mode="filtered" if n >= 6 else "full", space=(1 << (n * n)) - 1,
        notes=("candidates parameterized by adjoint coefficients",),
    )


def normalized_search(
    n: int, modulus: Optional[int] = None, workers: int = 1, progress=None
) -> SearchReport:
    """L1 = x^(2^(n-1)) + x fixed; L2 over the constraint L2*(1) = 1.

    The constraint is the kernel-transport requirement for the
    normalized form; it also guarantees the kernel-intersection filter
    by construction.  For n >= 6 the trace condition is presolved as in
    the identity search.
    """
    if not 5 <= n <= 8:
        raise ValueError("normalized search supports 5 <= n <= 8")
    ctx = make_field(n, modulus)
    return _run_fixed_l1(
        LinearizedPoly.frobenius(ctx, n - 1) + LinearizedPoly.identity(ctx), True,
        workers, progress, mode="normalized", space=1 << (n * (n - 1)),
        notes=(
            "L1 fixed to x^(2^(n-1)) + x; candidates parameterized by adjoint "
            "coefficients under L2*(1) = 1",
        ),
    )


# -- canonical-orbit machinery -----------------------------------------------------


def gaussian_binomial(m: int, r: int) -> int:
    """Number of r-dimensional subspaces of GF(2)^m."""
    num = den = 1
    for i in range(r):
        num *= (1 << m) - (1 << i)
        den *= (1 << r) - (1 << i)
    return num // den


def canonical_pair_count(n: int) -> int:
    """Orbit count: subspaces of GF(2)^(2n) of dimension at most n."""
    return sum(gaussian_binomial(2 * n, r) for r in range(n + 1))


@lru_cache(maxsize=None)
def _rref_words(ctx: FieldContext) -> np.ndarray:
    """Every reduced-row-echelon n x 2n matrix [M1 | M2], as the read-only
    (2, N) int64 packed coefficient words of the maps (L1, L2) whose
    matrices are M1 and M2.

    Ordered by rank 0..n, then pivot sets in combinations order, then the
    free bits as a counter (bit t for the t-th free position, row-major).
    Coefficients are GF(2)-linear in the matrix, so the words of one pivot
    pattern are its pivot units' words XOR the span of its free units'
    words: span index = free-bit counter.  Unit k * 2n + c is the stacked
    matrix with the one bit c in row k (L1's matrix for c < n).  Each
    pattern fills its own segment of the one output array in place: its
    pivot word, then the span by doubling (entries 2^t .. 2^(t+1) - 1 are
    the first 2^t XOR free unit t).
    """
    n, width = ctx.n, 2 * ctx.n
    mats = [[1 << j if i == k else 0 for i in range(n)] for k, j in np.ndindex(n, n)]
    words = _pack(n, np.array([LinearizedPoly.from_matrix(ctx, m).coeffs for m in mats]))
    units = np.zeros((n, width, 2), dtype=np.int64)
    units[:, :n, 0] = units[:, n:, 1] = words.view(np.int64).reshape(n, n)
    units = units.reshape(n * width, 2)
    rows = np.empty((2, canonical_pair_count(n)), dtype=np.int64)
    at = 0
    for r in range(n + 1):
        for pivots in combinations(range(width), r):
            pivot = [k * width + p for k, p in enumerate(pivots)]
            free = [
                k * width + c
                for k in range(r)
                for c in range(pivots[k] + 1, width)
                if c not in pivots
            ]
            rows[:, at] = np.bitwise_xor.reduce(units[pivot])
            for t, unit in enumerate(units[free, :, None]):
                lo = at + (1 << t)
                np.bitwise_xor(rows[:, at:lo], unit, out=rows[:, lo : lo + (1 << t)])
            at += 1 << len(free)
    rows.setflags(write=False)
    return rows


def canonical_key(l1: LinearizedPoly, l2: LinearizedPoly) -> Tuple[int, ...]:
    """Orbit invariant of (L1, L2): rref of the stacked n x 2n matrix."""
    l1.check_same_ctx(l2)
    n = l1.ctx.n
    m1, m2 = l1.matrix(), l2.matrix()
    stacked = [m1[i] | (m2[i] << n) for i in range(n)]
    red, _ = gf2mat.rref(stacked, 2 * n)
    return tuple(red + [0] * (n - len(red)))


def canonical_batches(ctx: FieldContext):
    """Canonical representatives, the words of _rref_words in order, as
    pair batches of BLOCK rows; "stacked" is the batch's (B, 2) view of
    its (w1, w2) rows."""
    words = _rref_words(ctx)
    for lo in range(0, words.shape[1], BLOCK):
        w1, w2 = stacked = words[:, lo : lo + BLOCK]
        yield dict(w1=w1, w2=w2, stacked=stacked.T)


# -- pair batches ----------------------------------------------------------------
#
# A pair batch holds, per row, int64 words w1 and w2 that name the maps L1
# and L2 by their packed coefficients; a map is 0 exactly when its word
# is (_nonzero_rows).  The funnel's stages decode from the words only the
# parts that they read (_part_decoders).


@lru_cache(maxsize=None)
def _part_decoders(ctx: FieldContext) -> dict:
    """_SpanMaps from packed coefficient words to the parts of the maps
    they name.

    Bit n*i + t of a word is the map 2^t x^(2^i).  Every part of a map is
    GF(2)-linear in it: "table", "adjoint" (the adjoint's table) and,
    from n = 4, "probe" (the adjoint's table at _PROBE).  The
    coefficients need no decoder: they are the word's base-2^n digits
    (_batch_pairs).
    """
    n = ctx.n
    units = [LinearizedPoly.frobenius(ctx, i, 1 << t) for i, t in np.ndindex(n, n)]
    _, table, adjoint = _map_rows(ctx, units)
    parts = {"table": table, "adjoint": adjoint}
    if ctx.order > len(_PROBE):
        parts["probe"] = adjoint[:, _PROBE]
    return {name: _SpanMap(np.zeros_like(part[0]), part) for name, part in parts.items()}


def all_pair_batches(ctx: FieldContext) -> Iterator[dict]:
    """Every pair of nonzero maps (n <= 3).

    The pairs of one L1 with every L2, in word order, are a run of
    2^(n^2) - 1 consecutive rows; a batch holds the runs of
    BLOCK // (2^(n^2) - 1) consecutive L1s (at least one).
    """
    words = np.arange(1, 1 << (ctx.n * ctx.n), dtype=np.int64)
    per = max(1, BLOCK // words.size)
    for lo in range(0, words.size, per):
        l1 = words[lo : lo + per]
        yield dict(w1=np.repeat(l1, words.size), w2=np.tile(words, l1.size))


def random_pair_batches(ctx: FieldContext, samples: int, seed: int) -> Iterator[dict]:
    """Seeded random coefficient pairs in batches of 2^14 rows."""
    if ctx.n > 8:
        raise ValueError(f"a packed word holds n^2 <= 64 bits, so n <= 8; got n={ctx.n}")
    rng = np.random.default_rng(seed)
    for start in range(0, samples, 1 << 14):
        b = min(1 << 14, samples - start)
        c1 = rng.integers(0, ctx.order, (b, ctx.n), dtype=np.int64)
        c2 = rng.integers(0, ctx.order, (b, ctx.n), dtype=np.int64)
        w1, w2 = (_pack(ctx.n, c).view(np.int64) for c in (c1, c2))
        yield dict(w1=w1, w2=w2)


def _nonzero_rows(batch: dict) -> np.ndarray:
    """The rows of a pair batch whose maps are both nonzero."""
    return np.flatnonzero((batch["w1"] != 0) & (batch["w2"] != 0))


def _pair_decoder(ctx: FieldContext, batch: dict, mod16: bool) -> list:
    """The funnel's stage list over the row indices of a pair batch.

    Each decoder reads the words of its rows and decodes only the part
    that it needs, through _part_decoders: the adjoint tables for the
    kernel row and R, the probe columns for the probe, the value tables
    for F.  The kernel row is the OR of the two adjoint tables, 0 exactly
    where b lies in both kernels, with column 0 (b = 0) set.  R is not
    multiplied out: the probe and R rows hold the uint16 pair index
    x << n | y of the adjoint values x = L1*(b), y = L2*(b), and their
    stages read the criterion tables lifted through the flat product
    table (q^2 bools), one gather per entry.
    """
    n = ctx.n
    dec = _part_decoders(ctx)

    def both(part, join):
        decode = dec[part]
        return lambda i: join(decode(np.take(batch["w1"], i)), decode(np.take(batch["w2"], i)))

    def kernel(x, y):
        x |= y
        x[:, 0] = 1
        return x

    def pair_index(x, y):
        idx = x.astype(np.uint16)
        idx <<= n
        idx |= y
        return idx

    probe = both("probe", pair_index) if mod16 else None
    return _criterion_stages(
        ctx, both("adjoint", kernel), probe, both("adjoint", pair_index),
        both("table", lambda x, y: x[:, ctx.inv_table] ^ y), ctx.mul_table.ravel(),
    )


def _batch_pairs(ctx: FieldContext, batch: dict, rows: np.ndarray) -> list:
    """(L1, L2) coefficient-tuple pairs of the given rows of a pair batch:
    a word's coefficients are its base-2^n digits."""
    shifts = ctx.n * np.arange(ctx.n)
    digits = ((batch[w][rows, None] >> shifts) & ctx.mask for w in ("w1", "w2"))
    return list(zip(*(map(tuple, d.tolist()) for d in digits)))


def criterion_mismatches(ctx: FieldContext, batches) -> Iterator[tuple]:
    """Rows of pair batches where the exact criterion and bijectivity differ.

    The criterion is the stage list without its mod-16 stage (a
    consequence of the criterion, not part of it) and its last,
    bijective, stage; the two run as two funnels over the same nonzero
    rows.  Yields, per batch, the number of nonzero rows checked
    and the (L1, L2) coefficient-tuple pairs that disagree.
    """
    for batch in batches:
        rows = _nonzero_rows(batch)
        *criterion, bijective = _pair_decoder(ctx, batch, mod16=False)
        crit = _funnel(rows, criterion, {})
        bij = _funnel(rows, [bijective], {})
        yield rows.size, _batch_pairs(ctx, batch, rows[np.isin(rows, crit) != np.isin(rows, bij)])


def full_search(
    n: int, modulus: Optional[int] = None, workers: int = 1, progress=None
) -> SearchReport:
    """Complete coverage of nonzero pairs: raw at n <= 3, canonical at n = 4.

    Runs in the calling process; any other worker count is rejected.
    """
    if n > 4:
        raise ValueError(
            "full enumeration is only tractable for n <= 4; "
            "use normalized_search or identity_L1_search"
        )
    if workers != 1:
        raise ValueError(f"full search runs in one process; got workers={workers}")
    ctx = make_field(n, modulus)
    if n <= 3:
        batches, partitions = all_pair_batches(ctx), (1 << (n * n)) - 1
        mode, examined, block, notes = "full", partitions**2, partitions, ()
    else:
        batches, examined = canonical_batches(ctx), canonical_pair_count(n)
        partitions = -(-examined // BLOCK)
        mode, block, notes = "canonical", BLOCK, ("one representative per left-composition orbit",)

    sampled = 0  # audit rows so far: the batches run here, in order

    def run(batch):
        # the audit rule's runs: one per L1 at n <= 3, the whole batch at n = 4
        nonlocal sampled
        rows = _nonzero_rows(batch)
        counts = {"nonzero": int(rows.size)}
        kept = _funnel(rows, _pair_decoder(ctx, batch, n >= 4), counts)
        bounds = [*range(0, rows.size, block), rows.size]
        counts = [counts] + [{} for _ in bounds[2:]]  # a batch's counts go with its first run
        results = _block_results(
            counts, bounds, kept, partial(_batch_pairs, ctx, batch), rows,
            budget=AUDIT_CAP - sampled,
        )
        sampled += sum(len(res["audit"]) for res in results)
        return results

    results = _collect(chain.from_iterable(map(run, batches)), partitions, progress)
    return _report(
        ctx, results, mode=mode, space=((1 << (n * n)) - 1) ** 2, examined=examined,
        partitions=partitions, block_size=block, notes=notes,
    )
