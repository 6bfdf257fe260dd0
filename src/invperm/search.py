"""Exhaustive and pruned searches for permutations L1(x^-1) + L2(x).

Three drivers:

* full_search: every nonzero pair at n <= 3 raw; at n = 4 one
  representative per orbit of the left action A.(L1, L2) = (A L1, A L2)
  of invertible linear maps (a permutation survives left composition
  with a bijection, so orbit representatives cover the question).
* normalized_search (5 <= n <= 8): L1 fixed to x^(2^(n-1)) + x, L2
  ranging over the affine constraint L2*(1) = 1, with the filter
  pipeline kernel-intersection -> mod-16 necessary condition ->
  Kloosterman-zero membership -> full bijectivity.
* identity_L1_search (n <= 6): L1 = x, all nonzero L2.

Candidates are enumerated in deterministic blocks; worker processes
split blocks and results are merged order-independently, so witness
lists and counts are identical for any worker count.  For spaces too
large to touch candidate-by-candidate (identity at n = 6, normalized at
n >= 6) the trace half of the mod-16 condition is solved once as a
linear system over the coefficient bits and only the solution coset is
enumerated.  The skipped candidates fail that necessary condition; the
audit does not re-check them.  It re-verifies by full bijectivity the
first 8 rejected candidates of each enumerated block, up to 256 in all
(ROADMAP.md, item 4, plans an audit that also samples the skipped part).

With L1 fixed, every table the pipeline reads is GF(2)-affine in the
coefficient bits of L2*: the packed coefficient word, L2* on the kernel
of L1*, R(b) = L1*(b) L2*(b) and F = L1(x^-1) + L2(x).  A fixed-L1
search therefore enumerates a coset origin + span(basis) of
coefficient vectors (raw enumeration is the coset with the standard
basis) and decodes each table as the XOR of precomputed images of the
origin and the basis vectors, with no field multiplications per
candidate.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import combinations
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import gf2mat
from .gf2n import FieldContext, make_field
from .inverse_perm import build_F
from .kloosterman import kloosterman_all, qform_table
from .linmap import LinearizedPoly

__all__ = [
    "SearchReport",
    "full_search",
    "normalized_search",
    "identity_L1_search",
    "canonical_pairs",
    "canonical_key",
    "canonical_pair_count",
    "gaussian_binomial",
]

BLOCK = 1 << 16
AUDIT_CAP = 256


@dataclass(frozen=True)
class SearchReport:
    """Self-contained record of one search run."""

    field_spec: str
    mode: str
    space: int  # size of the logical candidate space
    examined: int  # candidates actually enumerated
    stages: Tuple[Tuple[str, int], ...]  # (filter name, survivors)
    witnesses: Tuple[Tuple[str, str], ...]  # (l1 coeffs, l2 coeffs) hex texts
    elapsed_s: float
    workers: int
    partitions: int
    block_size: int
    audit_sampled: int
    audit_violations: int
    notes: Tuple[str, ...] = ()

    @property
    def witness_count(self) -> int:
        return len(self.witnesses)

    def to_json_dict(self, include_volatile: bool = True) -> dict:
        d = {
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
        if include_volatile:
            # reports carry no floats; wall time is integer milliseconds
            d["elapsed_ms"] = int(round(self.elapsed_s * 1000))
            d["workers"] = self.workers
        return d


# -- shared vectorized helpers -------------------------------------------------


def _mulflat(ctx: FieldContext) -> np.ndarray:
    return ctx.mul_table.reshape(-1)


def _tables_from_coeffs(ctx: FieldContext, coeffs: np.ndarray, pts=None) -> np.ndarray:
    """Value tables of sum_i c_i x^(2^i) for a batch of coefficient rows.

    coeffs has shape (B, n); the result has shape (B, 2^n) or
    (B, len(pts)) when pts restricts the evaluation points.
    """
    mf = _mulflat(ctx)
    pw = ctx.pow2k_table if pts is None else ctx.pow2k_table[:, pts]
    out = np.zeros((coeffs.shape[0], pw.shape[1]), dtype=np.int64)
    for i in range(ctx.n):
        out ^= mf[(coeffs[:, i, None] << ctx.n) | pw[i][None, :]]
    return out


def _adjoint_coeffs(ctx: FieldContext, coeffs: np.ndarray) -> np.ndarray:
    """Adjoint coefficient rows: d_j = c_((n-j) mod n) ^ (2^j)."""
    n = ctx.n
    out = np.empty_like(coeffs)
    for j in range(n):
        out[:, j] = ctx.pow2k_table[j][coeffs[:, (n - j) % n]]
    return out


def _bij_mask(ctx: FieldContext, tables: np.ndarray) -> np.ndarray:
    ref = np.arange(ctx.order, dtype=np.int64)
    return (np.sort(tables, axis=1) == ref[None, :]).all(axis=1)


def _decode_digits(ctx: FieldContext, ms: np.ndarray) -> np.ndarray:
    """Coefficient rows from packed base-2^n candidate indices."""
    n = ctx.n
    out = np.empty((ms.shape[0], n), dtype=np.int64)
    for i in range(n):
        out[:, i] = (ms >> (n * i)) & ctx.mask
    return out


# -- linear presolve of the trace condition ------------------------------------


def _coeff_bit_rows(ctx: FieldContext, weights: np.ndarray) -> List[int]:
    """Rows of Tr(sum_i c_i w_i(a)) = 0 as GF(2) equations in coeff bits.

    weights[i][a] = w_i(a); one row per point a, unknowns at position
    i*n + t for bit t of c_i.
    """
    n = ctx.n
    rows = []
    tr = ctx.trace_table
    for a in range(ctx.order):
        row = 0
        for i in range(n):
            w = int(weights[i][a])
            if w == 0:
                continue
            for t in range(n):
                if tr[ctx.mul(1 << t, w)]:
                    row |= 1 << (i * n + t)
        rows.append(row)
    return rows


def _l2star_value_one_rows(ctx: FieldContext) -> Tuple[List[int], int]:
    """Equations forcing L2*(1) = sum_i c_i = 1, plus their rhs bits."""
    n = ctx.n
    rows = []
    for t in range(n):
        row = 0
        for i in range(n):
            row |= 1 << (i * n + t)
        rows.append(row)
    return rows, 1  # rhs: bit pattern of the field element 1


def _solve_coset(ctx, rows: List[int], rhs: int):
    """Particular solution and nullspace basis as coefficient tuples."""
    n = ctx.n
    sol = gf2mat.solve(rows, n * n, rhs)
    if sol is None:
        return None
    basis_bits = gf2mat.nullspace(rows, n * n)

    def unpack(bits: int) -> Tuple[int, ...]:
        return tuple((bits >> (i * n)) & ctx.mask for i in range(n))

    return unpack(sol), [unpack(b) for b in basis_bits]


def _trace_presolve(ctx: FieldContext, l1star_tab: np.ndarray, force_value_one: bool):
    """Coset of L2* coefficients satisfying Tr(L1*(a) L2*(a)) = 0 for all a
    (and optionally L2*(1) = 1)."""
    weights = np.stack(
        [ctx.mul_vec(l1star_tab, ctx.pow2k_table[i]) for i in range(ctx.n)]
    )
    rows = _coeff_bit_rows(ctx, weights)
    rhs = 0
    if force_value_one:
        extra, bits = _l2star_value_one_rows(ctx)
        rhs = bits << len(rows)
        rows = rows + extra
    return _solve_coset(ctx, rows, rhs)


# -- the fixed-L1 pipeline -------------------------------------------------------


_PROC_CACHE: Dict[tuple, dict] = {}


def _fixed_l1_env(n: int, modulus: Optional[int], kind: str) -> dict:
    """Per-process cache of the tables a fixed-L1 block needs."""
    key = (n, modulus, kind)
    env = _PROC_CACHE.get(key)
    if env is not None:
        return env
    ctx = make_field(n, modulus)
    if kind == "identity":
        l1 = LinearizedPoly.identity(ctx)
    elif kind == "normalized":
        coeffs = [0] * n
        coeffs[0] = 1
        coeffs[n - 1] ^= 1
        l1 = LinearizedPoly(ctx, tuple(coeffs))  # x^(2^(n-1)) + x
    else:
        raise ValueError(kind)
    l1s_tab = l1.adjoint().table()
    kz = kloosterman_all(ctx) == 0
    trq = (ctx.trace_table == 0) & (qform_table(ctx) == 0)
    env = {
        "ctx": ctx,
        "l1": l1,
        "l1s_tab": l1s_tab,
        "l1_on_inv": l1.table()[ctx.inv_table],
        "kernel_pts": [int(b) for b in np.nonzero(l1s_tab == 0)[0] if b != 0],
        "kz": kz,
        "trq": trq,
        "decoders": {},  # (origin, basis) -> _coset_decoder tables
    }
    _PROC_CACHE[key] = env
    return env


def _search_coset(env: dict, kind: str):
    """(origin, basis, presolved): the L2* coefficient coset a search enumerates.

    Bit k of a candidate index selects basis[k].  Identity L1 at n <= 5
    enumerates raw digits (bit i*n + t is bit t of c_i); normalized L1
    at n = 5 frees c_1 .. c_(n-1) and sets c_0 = 1 + their sum; larger
    fields enumerate the trace-presolved coset.
    """
    ctx = env["ctx"]
    n = ctx.n

    def unit(i: int, t: int, lead: bool = False) -> Tuple[int, ...]:
        vec = [0] * n
        vec[i] = 1 << t
        if lead:
            vec[0] = 1 << t  # keep the coefficient sum fixed
        return tuple(vec)

    if kind == "identity" and n <= 5:
        basis = tuple(unit(i, t) for i in range(n) for t in range(n))
        return (0,) * n, basis, False
    if kind == "normalized" and n == 5:
        basis = tuple(unit(i, t, lead=True) for i in range(1, n) for t in range(n))
        return (1,) + (0,) * (n - 1), basis, False
    coset = _trace_presolve(ctx, env["l1s_tab"], force_value_one=kind == "normalized")
    if coset is None:
        raise AssertionError("the constraint system cannot be infeasible")
    origin, basis = coset
    if len(basis) > 30:
        raise AssertionError(f"presolve left an infeasible space 2^{len(basis)}")
    return origin, tuple(basis), True


class _SpanMap:
    """GF(2)-affine map from candidate indices m to rows:
    origin XOR the images of the set bits of m.

    Index bits are consumed in 8-bit chunks through span tables (the
    XOR of every subset of 8 images), one gather per chunk.
    """

    def __init__(self, origin: np.ndarray, images: np.ndarray):
        self.origin = origin
        self.spans = []
        for lo in range(0, len(images), 8):
            part = images[lo : lo + 8]
            tab = np.zeros((1 << len(part),) + part.shape[1:], dtype=images.dtype)
            for t, image in enumerate(part):
                tab[1 << t : 2 << t] = tab[: 1 << t] ^ image
            self.spans.append(tab)

    def __call__(self, ms: np.ndarray) -> np.ndarray:
        out = np.repeat(self.origin[None], ms.size, axis=0)
        for k, tab in enumerate(self.spans):
            # np.take copies whole rows; fancy indexing goes element-wise
            out ^= np.take(tab, (ms >> (8 * k)) & 0xFF, axis=0)
        return out


def _coset_decoder(env: dict, origin, basis) -> Dict[str, _SpanMap]:
    """Linear decoders of the tables the pipeline reads, per coset.

    "coeffs" gives the L2* coefficient vector packed into one uint64
    (c_i at bit n*i), "kernel" L2* at the nonzero kernel points of L1*,
    "probe" and "r" the table R(b) = L1*(b) L2*(b) at the probe points
    and everywhere, and "f" the table of F = L1(x^-1) + L2(x).  Built
    once per process and coset, from the images of the origin and of
    each basis vector.
    """
    key = (origin, basis)
    dec = env["decoders"].get(key)
    if dec is not None:
        return dec
    ctx = env["ctx"]
    n = ctx.n
    maps = [LinearizedPoly(ctx, tuple(c)) for c in (origin, *basis)]
    # fixed-L1 searches run at n <= 8, so every field element fits a byte
    l2s = np.array([m.table() for m in maps], dtype=np.uint8)
    r = ctx.mul_vec(env["l1s_tab"], l2s).astype(np.uint8)
    f = np.array([m.adjoint().table() for m in maps], dtype=np.uint8)
    f[0] ^= env["l1_on_inv"].astype(np.uint8)
    packed = np.array(
        [sum(c << (n * i) for i, c in enumerate(m.coeffs)) for m in maps], dtype=np.uint64
    )
    probe = [1, 2, 3, 4][: ctx.order - 1]
    dec = {
        name: _SpanMap(tab[0], tab[1:])
        for name, tab in (
            ("coeffs", packed),
            ("kernel", l2s[:, env["kernel_pts"]]),
            ("probe", r[:, probe]),
            ("r", r),
            ("f", f),
        )
    }
    env["decoders"][key] = dec
    return dec


def _unpack_coeffs(ctx: FieldContext, packed: np.ndarray) -> np.ndarray:
    """(B, n) coefficient rows from packed uint64 coefficient words."""
    shifts = np.arange(0, ctx.n * ctx.n, ctx.n, dtype=np.uint64)
    return ((packed[:, None] >> shifts) & np.uint64(ctx.mask)).astype(np.int64)


def _fixed_l1_block(args) -> dict:
    """Run the filter pipeline on one candidate block; pure function of args."""
    (n, modulus, kind, start, size, origin, basis, use_mod16) = args
    env = _fixed_l1_env(n, modulus, kind)
    ctx: FieldContext = env["ctx"]
    dec = _coset_decoder(env, origin, basis)
    ms = np.arange(start, start + size, dtype=np.int64)
    counts = {}
    packed = dec["coeffs"](ms)
    nonzero = packed != 0
    counts["nonzero"] = int(nonzero.sum())
    alive = ms[nonzero]  # candidate indices, not block offsets

    # kernel stage: L2* must not vanish on the nonzero kernel of L1*
    if env["kernel_pts"]:
        alive = alive[(dec["kernel"](alive) != 0).all(axis=1)]
    counts["kernel-intersection"] = int(alive.size)

    if use_mod16:
        # probe a few points first, then confirm the full condition
        alive = alive[np.take(env["trq"], dec["probe"](alive)).all(axis=1)]
        r_full = dec["r"](alive)
        keep = np.take(env["trq"], r_full).all(axis=1)
        alive = alive[keep]
        r_full = r_full[keep]
        counts["mod16-necessary"] = int(alive.size)
    else:
        r_full = dec["r"](alive)

    alive = alive[np.take(env["kz"], r_full).all(axis=1)]
    counts["kloosterman-zero"] = int(alive.size)

    bij = _bij_mask(ctx, dec["f"](alive))
    counts["bijective"] = int(bij.sum())
    witnesses = []
    for row in _unpack_coeffs(ctx, packed[alive[bij] - start]):
        l2 = LinearizedPoly(ctx, tuple(int(v) for v in row)).adjoint()
        witnesses.append((env["l1"].to_text(), l2.to_text()))

    # audit sample: first few rejected candidates, re-checked exactly
    rejected = nonzero.copy()
    rejected[alive - start] = False
    picks = _unpack_coeffs(ctx, packed[np.flatnonzero(rejected)[:8]])
    audit = [tuple(int(v) for v in row) for row in picks]
    return {"counts": counts, "witnesses": witnesses, "audit": audit}


_STAGE_ORDER = [
    "nonzero",
    "kernel-intersection",
    "mod16-necessary",
    "kloosterman-zero",
    "bijective",
]


def _run_fixed_l1(
    n: int,
    modulus: Optional[int],
    kind: str,
    mode: str,
    space: int,
    origin,
    basis,
    use_mod16: bool,
    workers: int,
    notes: Tuple[str, ...],
    progress=None,
) -> SearchReport:
    ctx = make_field(n, modulus)
    t0 = time.perf_counter()
    total = 1 << len(basis)
    blocks = [
        (n, modulus, kind, start, min(BLOCK, total - start), origin, basis, use_mod16)
        for start in range(0, total, BLOCK)
    ]
    results = _dispatch(_fixed_l1_block, blocks, workers, progress)
    counts = {name: 0 for name in _STAGE_ORDER}
    witnesses: List[Tuple[str, str]] = []
    audit_rows: List[tuple] = []
    for res in results:
        for k, v in res["counts"].items():
            counts[k] += v
        witnesses.extend(res["witnesses"])
        if len(audit_rows) < AUDIT_CAP:
            audit_rows.extend(res["audit"])
    env = _fixed_l1_env(n, modulus, kind)
    audit_violations = 0
    for coeff_row in audit_rows[:AUDIT_CAP]:
        l2 = LinearizedPoly(ctx, coeff_row).adjoint()
        if build_F(env["l1"], l2).is_permutation():
            audit_violations += 1
    stages = tuple(
        (name, counts[name]) for name in _STAGE_ORDER if use_mod16 or name != "mod16-necessary"
    )
    return SearchReport(
        field_spec=ctx.spec,
        mode=mode,
        space=space,
        examined=total,
        stages=stages,
        witnesses=tuple(sorted(witnesses)),
        elapsed_s=time.perf_counter() - t0,
        workers=workers,
        partitions=len(blocks),
        block_size=BLOCK,
        audit_sampled=min(len(audit_rows), AUDIT_CAP),
        audit_violations=audit_violations,
        notes=notes,
    )


def _dispatch(fn, blocks, workers: int, progress=None):
    results = []
    if workers <= 1 or len(blocks) <= 1:
        for i, b in enumerate(blocks):
            results.append(fn(b))
            if progress:
                progress({"partition": i + 1, "partitions": len(blocks)})
        return results
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for i, res in enumerate(pool.map(fn, blocks, chunksize=1)):
            results.append(res)
            if progress:
                progress({"partition": i + 1, "partitions": len(blocks)})
    return results


# -- public searches -------------------------------------------------------------


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
    origin, basis, presolved = _search_coset(_fixed_l1_env(n, modulus, "identity"), "identity")
    notes = ("candidates parameterized by adjoint coefficients",)
    if presolved:
        notes += (
            f"trace condition presolved: 2^{len(basis)} of 2^{n*n} candidates satisfy it",
        )
    return _run_fixed_l1(
        n, modulus, "identity", "filtered" if presolved else "full", (1 << (n * n)) - 1,
        origin, basis, use_mod16=n >= 4, workers=workers, notes=notes, progress=progress,
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
    origin, basis, presolved = _search_coset(
        _fixed_l1_env(n, modulus, "normalized"), "normalized"
    )
    notes = (
        "L1 fixed to x^(2^(n-1)) + x; candidates parameterized by adjoint "
        "coefficients under L2*(1) = 1",
    )
    if presolved:
        notes += (
            f"trace condition presolved: 2^{len(basis)} of 2^{n*(n-1)} candidates satisfy it",
        )
    return _run_fixed_l1(
        n, modulus, "normalized", "normalized", 1 << (n * (n - 1)),
        origin, basis, use_mod16=True, workers=workers, notes=notes, progress=progress,
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


def _rref_matrices(n: int) -> Iterator[List[int]]:
    """All reduced-row-echelon n x 2n matrices (row ints), rank 0..n."""
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


def canonical_key(l1: LinearizedPoly, l2: LinearizedPoly) -> Tuple[int, ...]:
    """Orbit invariant of (L1, L2): rref of the stacked n x 2n matrix."""
    l1._same_ctx(l2)
    n = l1.ctx.n
    m1, m2 = l1.matrix(), l2.matrix()
    stacked = [m1[i] | (m2[i] << n) for i in range(n)]
    red, _ = gf2mat.rref(stacked, 2 * n)
    return tuple(red + [0] * (n - len(red)))


def canonical_pairs(
    n: int, modulus: Optional[int] = None
) -> Iterator[Tuple[LinearizedPoly, LinearizedPoly]]:
    """One representative (L1, L2) per left-action orbit, as a stream."""
    if n > 8:
        raise ValueError("canonical enumeration supports n <= 8")
    ctx = make_field(n, modulus)
    mask = ctx.mask
    for rows in _rref_matrices(n):
        m1 = [row & mask for row in rows]
        m2 = [row >> n for row in rows]
        yield (
            LinearizedPoly.from_matrix(ctx, m1),
            LinearizedPoly.from_matrix(ctx, m2),
        )


def _gram_rows(ctx: FieldContext) -> List[int]:
    return [
        sum(ctx.trace(ctx.mul(1 << i, 1 << j)) << j for j in range(ctx.n))
        for i in range(ctx.n)
    ]


def _batch_columns(mat_rows: np.ndarray, n: int) -> np.ndarray:
    """(B, n) row-int matrices -> (B, n) column images of the basis."""
    cols = np.zeros_like(mat_rows)
    for j in range(n):
        for i in range(n):
            cols[:, j] |= ((mat_rows[:, i] >> j) & 1) << i
    return cols


def _batch_transpose(mat_rows: np.ndarray, n: int) -> np.ndarray:
    out = np.zeros_like(mat_rows)
    for i in range(n):
        for j in range(n):
            out[:, i] |= ((mat_rows[:, j] >> i) & 1) << j
    return out


def _batch_mul_fixed_right(mat_rows: np.ndarray, fixed: Sequence[int], n: int) -> np.ndarray:
    """Row-int product (batch A) @ (fixed B)."""
    out = np.zeros_like(mat_rows)
    for i in range(n):
        acc = np.zeros(mat_rows.shape[0], dtype=np.int64)
        for j in range(n):
            acc ^= ((mat_rows[:, i] >> j) & 1) * fixed[j]
        out[:, i] = acc
    return out


def _batch_mul_fixed_left(fixed: Sequence[int], mat_rows: np.ndarray, n: int) -> np.ndarray:
    """Row-int product (fixed A) @ (batch B)."""
    out = np.zeros_like(mat_rows)
    for i in range(n):
        acc = np.zeros(mat_rows.shape[0], dtype=np.int64)
        row = fixed[i]
        for j in range(n):
            if (row >> j) & 1:
                acc ^= mat_rows[:, j]
        out[:, i] = acc
    return out


def _batch_adjoint(mat_rows: np.ndarray, gram: Sequence[int], gram_inv: Sequence[int], n: int):
    """Adjoint matrices G^-1 M^T G for a batch of row-int matrices."""
    mt = _batch_transpose(mat_rows, n)
    x = _batch_mul_fixed_right(mt, gram, n)
    return _batch_mul_fixed_left(gram_inv, x, n)


def _tables_from_cols(ctx: FieldContext, cols: np.ndarray) -> np.ndarray:
    out = np.zeros((cols.shape[0], ctx.order), dtype=np.int64)
    for j in range(ctx.n):
        out[:, 1 << j : 2 << j] = out[:, : 1 << j] ^ cols[:, j, None]
    return out


def canonical_batches(ctx: FieldContext, batch_rows: int = BLOCK):
    """Canonical representatives as batches of table/matrix arrays.

    Yields dicts with per-candidate arrays: stacked rows, both value
    tables, both adjoint value tables, and the nonzero mask.
    """
    n = ctx.n
    gram = _gram_rows(ctx)
    gram_inv = gf2mat.inverse(gram, n)
    assert gram_inv is not None  # trace pairing is nondegenerate
    buf: List[List[int]] = []
    for rows in _rref_matrices(n):
        buf.append(rows)
        if len(buf) >= batch_rows:
            yield _canonical_batch_arrays(ctx, buf, gram, gram_inv)
            buf = []
    if buf:
        yield _canonical_batch_arrays(ctx, buf, gram, gram_inv)


def _canonical_batch_arrays(ctx, buf, gram, gram_inv):
    n = ctx.n
    stacked = np.array(buf, dtype=np.int64)
    m1 = stacked & ctx.mask
    m2 = stacked >> n
    t1 = _tables_from_cols(ctx, _batch_columns(m1, n))
    t2 = _tables_from_cols(ctx, _batch_columns(m2, n))
    t1s = _tables_from_cols(ctx, _batch_columns(_batch_adjoint(m1, gram, gram_inv, n), n))
    t2s = _tables_from_cols(ctx, _batch_columns(_batch_adjoint(m2, gram, gram_inv, n), n))
    return {
        "stacked": stacked,
        "m1": m1,
        "m2": m2,
        "t1": t1,
        "t2": t2,
        "t1s": t1s,
        "t2s": t2s,
        "nonzero": m1.any(axis=1) & m2.any(axis=1),
    }


def _pairs_search_n3(ctx: FieldContext, progress=None) -> SearchReport:
    """Raw search over every nonzero pair (n <= 3)."""
    t0 = time.perf_counter()
    n = ctx.n
    q = ctx.order
    nmaps = 1 << (n * n)
    mf = _mulflat(ctx)
    all_coeffs = _decode_digits(ctx, np.arange(nmaps, dtype=np.int64))
    tabs = _tables_from_coeffs(ctx, all_coeffs)
    adj = _tables_from_coeffs(ctx, _adjoint_coeffs(ctx, all_coeffs))
    kermask = (
        (adj == 0).astype(np.int64) << np.arange(q, dtype=np.int64)[None, :]
    ).sum(axis=1)
    kz = kloosterman_all(ctx) == 0
    use_mod16 = n >= 4
    trq = (ctx.trace_table == 0) & (qform_table(ctx) == 0)
    ref = np.arange(q, dtype=np.int64)
    counts = {name: 0 for name in _STAGE_ORDER}
    witnesses = []
    audit_rows = []
    space = (nmaps - 1) ** 2
    counts["nonzero"] = space
    for m1 in range(1, nmaps):
        # kernel-intersection: adjoint kernels share only 0
        kmask = (kermask[m1] & kermask[1:]) == 1
        counts["kernel-intersection"] += int(kmask.sum())
        alive = np.nonzero(kmask)[0] + 1
        r = mf[(adj[m1][None, :] << n) | adj[alive]]
        if use_mod16:
            keep = trq[r].all(axis=1)
            alive = alive[keep]
            r = r[keep]
            counts["mod16-necessary"] += int(alive.size)
        keep = kz[r].all(axis=1)
        alive = alive[keep]
        counts["kloosterman-zero"] += int(alive.size)
        if alive.size:
            f = tabs[m1][ctx.inv_table][None, :] ^ tabs[alive]
            bij = (np.sort(f, axis=1) == ref[None, :]).all(axis=1)
            counts["bijective"] += int(bij.sum())
            for m2 in alive[bij]:
                l1 = LinearizedPoly(ctx, tuple(int(v) for v in all_coeffs[m1]))
                l2 = LinearizedPoly(ctx, tuple(int(v) for v in all_coeffs[m2]))
                witnesses.append((l1.to_text(), l2.to_text()))
        if len(audit_rows) < AUDIT_CAP and m1 % 97 == 1:
            dead = np.nonzero(~kmask)[0]
            if dead.size:
                audit_rows.append((m1, int(dead[0] + 1)))
        if progress and m1 % 64 == 0:
            progress({"partition": m1 // 64, "partitions": (nmaps - 2) // 64 + 1})
    audit_violations = 0
    for m1, m2 in audit_rows:
        f = tabs[m1][ctx.inv_table] ^ tabs[m2]
        if np.array_equal(np.sort(f), ref):
            audit_violations += 1
    stages = tuple(
        (nm, counts[nm]) for nm in _STAGE_ORDER if use_mod16 or nm != "mod16-necessary"
    )
    return SearchReport(
        field_spec=ctx.spec,
        mode="full",
        space=space,
        examined=space,
        stages=stages,
        witnesses=tuple(sorted(witnesses)),
        elapsed_s=time.perf_counter() - t0,
        workers=1,
        partitions=nmaps - 1,
        block_size=nmaps - 1,
        audit_sampled=len(audit_rows),
        audit_violations=audit_violations,
    )


def _canonical_search_n4(ctx: FieldContext, progress=None) -> SearchReport:
    """Orbit-representative search with the full filter pipeline (n = 4)."""
    t0 = time.perf_counter()
    n = ctx.n
    mf = _mulflat(ctx)
    kz = kloosterman_all(ctx) == 0
    trq = (ctx.trace_table == 0) & (qform_table(ctx) == 0)
    counts = {name: 0 for name in _STAGE_ORDER}
    witnesses = []
    audit_rows = []
    audit_violations = 0
    examined = 0
    batch_idx = 0
    for batch in canonical_batches(ctx):
        b = batch["stacked"].shape[0]
        examined += b
        batch_idx += 1
        if progress:
            progress({"partition": batch_idx, "candidates_done": examined})
        nonzero = batch["nonzero"]
        counts["nonzero"] += int(nonzero.sum())
        alive = np.nonzero(nonzero)[0]
        t1s, t2s = batch["t1s"], batch["t2s"]
        keep = ((t1s[alive] == 0) & (t2s[alive] == 0)).sum(axis=1) == 1
        alive = alive[keep]
        counts["kernel-intersection"] += int(alive.size)
        r = mf[(t1s[alive] << n) | t2s[alive]]
        keep = trq[r].all(axis=1)
        alive = alive[keep]
        r = r[keep]
        counts["mod16-necessary"] += int(alive.size)
        keep = kz[r].all(axis=1)
        alive = alive[keep]
        counts["kloosterman-zero"] += int(alive.size)
        if alive.size:
            f = batch["t1"][alive][:, ctx.inv_table] ^ batch["t2"][alive]
            bij = _bij_mask(ctx, f)
            counts["bijective"] += int(bij.sum())
            for idx in alive[bij]:
                l1 = LinearizedPoly.from_matrix(ctx, [int(v) for v in batch["m1"][idx]])
                l2 = LinearizedPoly.from_matrix(ctx, [int(v) for v in batch["m2"][idx]])
                witnesses.append((l1.to_text(), l2.to_text()))
        # audit: first rejected nonzero candidate of the batch
        if len(audit_rows) < AUDIT_CAP:
            rejected = np.setdiff1d(np.nonzero(nonzero)[0], alive)
            for idx in rejected[:4]:
                f = batch["t1"][idx][ctx.inv_table] ^ batch["t2"][idx]
                audit_rows.append(0)
                if _bij_mask(ctx, f[None, :])[0]:
                    audit_violations += 1
    stages = tuple((nm, counts[nm]) for nm in _STAGE_ORDER)
    return SearchReport(
        field_spec=ctx.spec,
        mode="canonical",
        space=((1 << (n * n)) - 1) ** 2,
        examined=examined,
        stages=stages,
        witnesses=tuple(sorted(witnesses)),
        elapsed_s=time.perf_counter() - t0,
        workers=1,
        partitions=(examined + BLOCK - 1) // BLOCK,
        block_size=BLOCK,
        audit_sampled=len(audit_rows),
        audit_violations=audit_violations,
        notes=("one representative per left-composition orbit",),
    )


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
        return _pairs_search_n3(ctx, progress)
    return _canonical_search_n4(ctx, progress)
