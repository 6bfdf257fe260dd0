"""Kloosterman sums over GF(2^n), their quadratic-form approximation,
and the census of Kloosterman zeros.

K_n(a) = sum over x of (-1)^Tr(x^-1 + a x), with 0^-1 = 0.  A
Kloosterman zero is a nonzero a with K_n(a) = 0; K_n(0) = 0 always
(inversion permutes the field, so the sum telescopes) but 0 is kept out
of the zero set and reported separately.

The dyadic filter: for n >= 4, 16 divides K_n(a) exactly when
Tr(a) = 0 and Q(a) = 0, where Q(x) = sum_{i<j} x^(2^i + 2^j).  The
census uses this as a prefilter and then confirms every candidate by its
exact literal sum, independent of the fast-transform path.  The literal
sums of a whole candidate array come from one batched pass
(kloosterman_sums): with x = g^i the sum for a != 0 is
1 + sum_{i < q-1} (-1)^(Tr(g^-i) + Tr(g^(log a + i))), so each is q
minus twice the popcount of the packed bits Tr(g^-i) XORed with the
window of the periodic sequence Tr(g^j) that starts at log a.  Every
window is one contiguous row of W = ceil((q-1)/64) words, read from the
sequence packed once at each of the 64 bit offsets.  Every term of every
sum is still evaluated, from field tables and integers only.  The Q
table is built by doubling along Q's polarization, from Q at the n
basis points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from .gf2n import FieldContext
from .vbf import walsh_transform_signs

__all__ = [
    "kloosterman_sum",
    "kloosterman_sums",
    "kloosterman_all",
    "qform",
    "qform_table",
    "bform",
    "divisible_by_16",
    "kloosterman_zeros",
    "KloostermanCensus",
]

_QFORM_CACHE: Dict[FieldContext, np.ndarray] = {}
_KALL_CACHE: Dict[FieldContext, np.ndarray] = {}
# candidates per gathered block in kloosterman_sums: each reads
# ceil((q-1)/64) words, so a block stays well under a megabyte at n = 16
_SUMS_BLOCK = 64


def kloosterman_sum(ctx: FieldContext, a: int) -> int:
    """K_n(a) by literal summation over the whole field."""
    ctx.check(a)
    xs = np.arange(ctx.order)
    bits = ctx.trace_table[ctx.inv_table ^ ctx.mul_vec(a, xs)]
    return int(ctx.order - 2 * int(np.sum(bits)))


def _pack_bits(bits: np.ndarray) -> np.ndarray:
    """Little-endian 64-bit words of a 0/1 array whose length is a multiple of 64."""
    return np.packbits(bits, bitorder="little").view("<u8")


def kloosterman_sums(ctx: FieldContext, avals) -> np.ndarray:
    """K_n(a) for every a in avals by literal summation, in one batched pass.

    Term i of the sum for a = g^s is Tr(g^-i) + Tr(g^(s + i)); the bits
    Tr(g^-i) are packed once, and the periodic sequence T[j] = Tr(g^j)
    is packed at each of the 64 bit offsets.  The bits T[s .. s + q - 2]
    are then one window row of W = ceil((q - 1)/64) contiguous words:
    row s >> 6 of offset s & 63, a strided view of the packed sequence.
    K_n(a) is q minus twice the popcount of the window XOR the Tr(g^-i)
    words, past bit q - 2 masked off (the x = 0 term is +1).  For a = 0
    the window is all zeros.  Agrees with kloosterman_sum term by term;
    the result is 1-D, in the order of the flattened avals.
    """
    avals = np.asarray(avals, dtype=np.int64).reshape(-1)
    if avals.size and not (0 <= int(avals.min()) and int(avals.max()) < ctx.order):
        raise ValueError(f"element out of range for GF(2^{ctx.n})")
    q, m = ctx.order, ctx.order - 1
    words = -(-m // 64)
    tr = ctx.trace_table[ctx.exp_table[:m]]  # T[j] = Tr(g^j)
    u = np.zeros(64 * words, dtype=np.uint8)
    u[:m] = tr[-np.arange(m) % m]  # u[i] = Tr(g^-i)
    u_words = _pack_bits(u)
    # a window starts in one of the first `words` words and reads `words`
    # words plus one for the offset, so 2 * words + 1 words of T repeated
    per = _pack_bits(tr[np.arange(64 * (2 * words + 1)) % m])
    shift = np.arange(64, dtype=np.uint64)[:, None]
    # shifted[r][k] holds bits 64k + r .. 64k + r + 63 of the sequence
    shifted = (per[None, :-1] >> shift) | ((per[None, 1:] << np.uint64(1)) << (np.uint64(63) - shift))
    # windows[r, k] is the contiguous row shifted[r, k : k + words], a view:
    # the window of the sequence that starts at bit 64k + r
    windows = np.lib.stride_tricks.sliding_window_view(shifted, words, axis=1)
    last = np.uint64((1 << (m - 64 * (words - 1))) - 1)
    out = np.empty(avals.size, dtype=np.int64)
    for lo in range(0, avals.size, _SUMS_BLOCK):
        a = avals[lo : lo + _SUMS_BLOCK]
        s = ctx.log_table[a]
        block = windows[s & 63, s >> 6]
        block[a == 0] = 0
        block ^= u_words
        block[:, -1] &= last
        out[lo : lo + _SUMS_BLOCK] = q - 2 * np.bitwise_count(block).sum(axis=1, dtype=np.int64)
    return out


def kloosterman_all(ctx: FieldContext) -> np.ndarray:
    """K_n(a) for every a at once, via a fast transform (cached).

    The sign vector of x -> Tr(x^-1) is transformed over the character
    group; the trace pairing is transported to the standard dot product
    by the context's dual-index table.
    """
    out = _KALL_CACHE.get(ctx)
    if out is None:
        signs = 1 - 2 * ctx.trace_table[ctx.inv_table].astype(np.int64)
        hat = walsh_transform_signs(signs)
        out = hat[ctx.trace_dual_table]
        out.setflags(write=False)
        _KALL_CACHE[ctx] = out
    return out


def qform_table(ctx: FieldContext) -> np.ndarray:
    """Q(x) for every x (cached).  At the basis points 2^k, Q is the
    defining double sum in prefix form: sum_{i<j} y_i y_j =
    sum_j y_j (y_0 + ... + y_{j-1}) with y_i = x^(2^i).  The table then
    doubles along the polarization, as span_table does: for x < 2^k,
    Q(x + 2^k) = Q(x) + Q(2^k) + Tr(x)Tr(2^k) + Tr(x 2^k)."""
    tab = _QFORM_CACHE.get(ctx)
    if tab is None:
        tr = ctx.trace_table
        y = prefix = 1 << np.arange(ctx.n)
        basis = np.zeros(ctx.n, dtype=np.int64)
        for _ in range(1, ctx.n):
            y = ctx.sqr_table[y]
            basis ^= ctx.mul_vec(y, prefix)
            prefix = prefix ^ y
        if not bool(np.all(basis <= 1)):
            raise AssertionError("quadratic form left the prime field")
        tab = np.zeros(ctx.order, dtype=np.uint8)
        for k, qk in enumerate(basis.tolist()):
            b = 1 << k
            tab[b : 2 * b] = tab[:b] ^ qk ^ (tr[:b] & tr[b]) ^ tr[ctx.mul_vec(b, np.arange(b))]
        tab.setflags(write=False)
        _QFORM_CACHE[ctx] = tab
    return tab


def qform(ctx: FieldContext, x: int) -> int:
    return int(qform_table(ctx)[ctx.check(x)])


def bform(ctx: FieldContext, x: int, y: int) -> int:
    """The polarization Tr(xy) + Tr(x)Tr(y) of Q."""
    return ctx.trace(ctx.mul(x, y)) ^ (ctx.trace(x) & ctx.trace(y))


def divisible_by_16(ctx: FieldContext, a):
    """Necessary-and-sufficient dyadic test: Tr(a) = 0 and Q(a) = 0 (n >= 4).
    A bool for an element, a bool array for an array of elements."""
    if ctx.n < 4:
        raise ValueError("the mod-16 characterization requires n >= 4")
    a = np.asarray(a)
    if a.size and not (0 <= a.min() and a.max() < ctx.order):
        raise ValueError(f"element out of range for GF(2^{ctx.n})")
    ok = (ctx.trace_table[a] == 0) & (qform_table(ctx)[a] == 0)
    return bool(ok) if ok.ndim == 0 else ok


@dataclass(frozen=True)
class KloostermanCensus:
    """All Kloosterman zeros of one concrete field, with provenance."""

    field_spec: str
    n: int
    modulus: int
    zeros: Tuple[int, ...]
    zero_count: int
    k_at_zero_element: int  # K_n(0), reported separately from the zero set
    prefilter: str
    candidates: int
    subfield_hits: Dict[int, Tuple[int, ...]]  # proper divisor k -> zeros inside

    def to_json_dict(self) -> dict:
        return {
            "field": self.field_spec,
            "n": self.n,
            "modulus": f"{self.modulus:#x}",
            "zeros": [f"{z:x}" for z in self.zeros],
            "zero_count": self.zero_count,
            "k_at_zero_element": self.k_at_zero_element,
            "prefilter": self.prefilter,
            "candidates": self.candidates,
            "subfield_hits": {
                str(k): [f"{z:x}" for z in v] for k, v in sorted(self.subfield_hits.items())
            },
        }


def kloosterman_zeros(ctx: FieldContext) -> KloostermanCensus:
    """Census of all nonzero a with K_n(a) = 0.

    For n >= 4 the candidates are prefiltered by the mod-16 test; every
    candidate is then confirmed by its exact literal sum, all of them in
    one kloosterman_sums pass (the fast transform is deliberately not
    used here, so the census and the transform stay independent
    cross-checks).
    """
    q = ctx.order
    xs = np.arange(1, q)
    if ctx.n >= 4:
        cand = xs[divisible_by_16(ctx, xs)]
        prefilter = "trace-and-qform"
    else:
        cand = xs
        prefilter = "none"
    zeros = cand[kloosterman_sums(ctx, cand) == 0].tolist()
    if not zeros:
        raise AssertionError(f"no Kloosterman zeros found for {ctx.spec}")
    hits: Dict[int, Tuple[int, ...]] = {}
    for k in range(1, ctx.n):
        if ctx.n % k == 0:
            sub = ctx.subfield_elements(k)
            hits[k] = tuple(z for z in zeros if z in sub)
    return KloostermanCensus(
        field_spec=ctx.spec,
        n=ctx.n,
        modulus=ctx.modulus,
        zeros=tuple(zeros),
        zero_count=len(zeros),
        k_at_zero_element=kloosterman_sum(ctx, 0),
        prefilter=prefilter,
        candidates=int(cand.size),
        subfield_hits=hits,
    )
