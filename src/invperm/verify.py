"""Claim verification drivers.

Each mechanized claim has a named checker that runs the claim against
its independent oracle (exhaustively where the space allows, seeded
random sampling otherwise) and returns a uniform result record with a
violation list.  An empty violation list means the claim held on every
case checked.

A driver states no formula of its own: it checks the exported library
function that states the claim.  lemma2 checks quad_solvable against
the brute-force root scan, lemma4 checks hyperplane_union_size against
a + b = c and the count q/2 + q/4 + q/8, and theorem3 checks
divisible_by_16 against K(a) mod 16 from the fast transform.  So a
fault in one of those functions is a violation here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Dict, List, Optional

import numpy as np

from .gf2n import make_field
from .inverse_perm import (
    hyperplane_union_size,
    image_set_Ma,
    ma_hyperplane_form,
    quad_solvable,
    recurrence_coeffs,
    verify_conditions,
    x8_coefficient_parity,
    x8_parity_via_interpolation,
)
from .kloosterman import divisible_by_16, kloosterman_all, kloosterman_zeros
from .linmap import LinearizedPoly
from .search import (
    all_pair_batches,
    canonical_batches,
    criterion_mismatches,
    random_pair_batches,
)
from .vbf import TruthTable

__all__ = [
    "VerifyResult", "CLAIMS", "run_claim", "invariants_suite",
    "verify_theorem3", "verify_proposition2", "verify_lemma2",
    "verify_lemma4", "verify_prop3", "verify_theorem8",
]

MAX_VIOLATIONS = 16


@dataclass
class VerifyResult:
    claim: str
    field_spec: str
    cases: int
    violations: List[dict] = field(default_factory=list)
    details: Dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def note(self, v: dict) -> None:
        if len(self.violations) < MAX_VIOLATIONS:
            self.violations.append(v)

    def to_json_dict(self) -> dict:
        return {
            "claim": self.claim,
            "field": self.field_spec,
            "cases_checked": self.cases,
            "violations": self.violations,
            "ok": self.ok,
            "details": self.details,
        }


def verify_theorem3(n: int, modulus: Optional[int] = None) -> VerifyResult:
    """16 | K(a) exactly when Tr(a) = 0 and Q(a) = 0, for every a (n >= 4):
    divisible_by_16 against the transform's K(a) mod 16."""
    ctx = make_field(n, modulus)
    by_form = divisible_by_16(ctx, np.arange(ctx.order))
    res = VerifyResult("theorem3", ctx.spec, ctx.order)
    res.details["statement"] = "16 | K(a) <=> Tr(a) = 0 and Q(a) = 0"
    ks = kloosterman_all(ctx)
    by_sum = ks % 16 == 0
    for a in np.nonzero(by_form != by_sum)[0]:
        res.note({"a": f"{int(a):x}", "K": int(ks[a])})
    return res


def _check_samples(samples: Optional[int]) -> None:
    """A sampled claim checks at least one case: samples < 1 would pass
    without checking anything."""
    if samples is not None and samples < 1:
        raise ValueError(f"samples must be at least 1; got {samples}")


def verify_proposition2(
    n: int,
    modulus: Optional[int] = None,
    samples: Optional[int] = None,
    seed: Optional[int] = None,
) -> VerifyResult:
    """Kloosterman criterion == direct bijectivity.

    Exhaustive over all nonzero pairs for n <= 3, over all canonical
    orbit representatives at n = 4, and over seeded random pairs for
    5 <= n <= 8 (100000 unless samples says otherwise, seed 20240 unless
    seed does; a drawn pair with a zero map is not counted).  samples and
    seed are rejected where they would be ignored, samples below 1
    everywhere.  Pair tables hold
    field elements as bytes and R is a product-table lookup, so n > 8 is
    rejected.
    """
    if n > 8:
        raise ValueError(f"proposition2 supports n <= 8, where pair tables fit; got n={n}")
    _check_samples(samples)
    if n <= 4 and samples is not None:
        raise ValueError("proposition2 takes no samples at n <= 4, where it checks every case")
    if n <= 4 and seed is not None:
        raise ValueError("proposition2 takes no seed at n <= 4, where it checks every case")
    ctx = make_field(n, modulus)
    res = VerifyResult("proposition2", ctx.spec, 0)
    res.details["statement"] = (
        "F = L1(x^-1) + L2(x) permutes <=> K(L1*(b) L2*(b)) = 0 for all b "
        "and the adjoint kernels meet trivially"
    )
    if n <= 3:
        res.details["mode"] = "exhaustive"
        batches = all_pair_batches(ctx)
    elif n == 4:
        res.details["mode"] = "canonical"
        batches = canonical_batches(ctx)
    else:
        samples = 100_000 if samples is None else samples
        seed = 20240 if seed is None else seed
        res.details["mode"] = f"random(samples={samples}, seed={seed})"
        batches = random_pair_batches(ctx, samples, seed)
    for checked, bad in criterion_mismatches(ctx, batches):
        res.cases += checked
        for pair in islice(bad, MAX_VIOLATIONS):
            l1, l2 = (LinearizedPoly(ctx, c).to_text() for c in pair)
            res.note({"l1": l1, "l2": l2})
    return res


def verify_lemma2(n: int, modulus: Optional[int] = None) -> VerifyResult:
    """Tr(ac/b^2) = 0 <=> a x^2 + b x + c = 0 has a root (b != 0).

    quad_solvable over every (a, b, c), one call per a, against the
    brute-force root scan as the oracle.  Each a fills a (q - 1) x q
    table, so n > 10 is rejected.
    """
    if n > 10:
        raise ValueError(f"lemma2 supports n <= 10, where its per-a tables fit; got n={n}")
    ctx = make_field(n, modulus)
    q = ctx.order
    res = VerifyResult("lemma2", ctx.spec, 0)
    res.details["statement"] = "a x^2 + b x + c solvable <=> Tr(ac/b^2) = 0 (b != 0)"
    xs, bs = np.arange(q), np.arange(1, q)
    bx = ctx.mul_vec(bs[:, None], xs)
    rows = np.arange(q - 1)[:, None]
    for a in range(q):
        # row b - 1 marks every c = a x^2 + b x with a root x
        reachable = np.zeros((q - 1, q), dtype=bool)
        reachable[rows, ctx.mul_vec(a, ctx.sqr_table) ^ bx] = True
        formula = quad_solvable(ctx, a, bs[:, None], xs)
        res.cases += reachable.size
        for i, c in zip(*np.nonzero(reachable != formula)):
            res.note({"a": a, "b": int(bs[i]), "c": int(c)})
    return res


def verify_lemma4(
    n: int,
    modulus: Optional[int] = None,
    samples: Optional[int] = None,
    seed: int = 99,
) -> VerifyResult:
    """Three hyperplanes cover the field exactly when a + b = c.

    hyperplane_union_size over distinct nonzero triples, exhaustively
    for n <= 6 and on seeded random triples beyond (20000 unless samples
    says otherwise; samples is rejected at n <= 6 and below 1): the union
    is the whole field exactly when a + b = c, and has q/2 + q/4 + q/8
    elements otherwise.  Also checks the covering triple built inside any scaled
    subfield with k > 1.
    """
    _check_samples(samples)
    if n <= 6 and samples is not None:
        raise ValueError("lemma4 takes no samples at n <= 6, where it checks every case")
    ctx = make_field(n, modulus)
    q = ctx.order
    res = VerifyResult("lemma4", ctx.spec, 0)
    res.details["statement"] = "H_a | H_b | H_c = field <=> a + b = c"
    if n <= 6:
        res.details["mode"] = "exhaustive"
        a, b, c = (m.ravel() for m in np.meshgrid(*[np.arange(1, q, dtype=np.uint8)] * 3, indexing="ij"))
        keep = (a != b) & (b != c) & (a != c)
        a, b, c = a[keep], b[keep], c[keep]
    else:
        samples = 20_000 if samples is None else samples
        res.details["mode"] = f"random(samples={samples}, seed={seed})"
        rng = random.Random(seed)
        draw, drawn = rng.randrange, []  # a, b, c of each triple in turn
        while len(drawn) < 3 * samples:
            a, b, c = draw(1, q), draw(1, q), draw(1, q)
            if a != b != c != a:
                drawn += (a, b, c)
        # make sure both branches of the equivalence are exercised
        for _ in range(64):
            a, b = draw(1, q), draw(1, q)
            if a != b and (a ^ b) not in (0, a, b):
                drawn += (a, b, a ^ b)
        a, b, c = np.array(drawn, dtype=np.int64).reshape(-1, 3).T
    sizes = hyperplane_union_size(ctx, a, b, c)
    res.cases += sizes.size
    covers = sizes == q
    wrong_cover = covers != ((a ^ b) == c)
    wrong_size = ~covers & (sizes != q // 2 + q // 4 + q // 8)
    for i in np.nonzero(wrong_cover | wrong_size)[0]:
        t = {"a": int(a[i]), "b": int(b[i]), "c": int(c[i])}
        if wrong_cover[i]:
            res.note({**t, "covers": bool(covers[i])})
        if wrong_size[i]:
            res.note({**t, "union_size": int(sizes[i])})

    # covering triples inside scaled subfields (k > 1)
    rng = random.Random(seed + 1)
    for k in range(2, n):
        if n % k:
            continue
        sub = sorted(ctx.subfield_elements(k) - {0})
        r = rng.randrange(1, q)
        s1, s2 = sub[0], sub[1]
        a, b = ctx.mul(r, s1), ctx.mul(r, s2)
        s = ctx.inv0(ctx.inv0(s1) ^ ctx.inv0(s2))
        c = ctx.mul(r, s)
        res.cases += 1
        if hyperplane_union_size(ctx, ctx.inv0(a), ctx.inv0(b), ctx.inv0(c)) != q:
            res.note({"subfield_k": k, "r": r, "triple": [a, b, c]})
    return res


def verify_prop3(n: int, modulus: Optional[int] = None) -> VerifyResult:
    """Image set {x^-1 + (x+a)^-1} equals 1/H_{1/a} union {a^-1}, every a != 0."""
    ctx = make_field(n, modulus)
    res = VerifyResult("prop3", ctx.spec, 0)
    res.details["statement"] = "M_a = 1/H_(1/a) U {a^-1} for all a != 0"
    expected_size = ctx.order // 2 - (1 - n % 2)
    for a in range(1, ctx.order):
        direct = image_set_Ma(ctx, a)
        formula = ma_hyperplane_form(ctx, a)
        res.cases += 1
        if direct != formula:
            res.note({"a": a, "direct_size": len(direct), "formula_size": len(formula)})
        elif len(direct) != expected_size:
            res.note({"a": a, "size": len(direct), "expected": expected_size})
        if ctx.inv0(a) not in direct:
            res.note({"a": a, "missing": "a^-1"})
    res.details["image_size"] = expected_size
    return res


def verify_theorem8(n: int, modulus: Optional[int] = None) -> VerifyResult:
    """The coefficient-recurrence engine over every c0.

    Odd n: the forced L2* satisfies the two trace-style conditions
    identically and violates the quadratic-form condition; the x^8
    coefficient is 1, cross-checked against the interpolation oracle.
    Even n: the recurrence is inconsistent for every c0.
    """
    if n < 5:
        raise ValueError("the recurrence engine applies for n >= 5")
    ctx = make_field(n, modulus)
    res = VerifyResult("theorem8", ctx.spec, 0)
    if n % 2 == 0:
        res.details["statement"] = "even n: the forced coefficients are inconsistent"
        for c0 in ctx.elements():
            res.cases += 1
            if recurrence_coeffs(ctx, c0) is not None:
                res.note({"c0": c0, "unexpected": "consistent recurrence"})
        return res
    res.details["statement"] = (
        "odd n: forced L2* satisfies a1 and a3 identically, violates a2; "
        "x^8 coefficient of the a2 polynomial is 1"
    )
    for c0 in ctx.elements():
        l2s = recurrence_coeffs(ctx, c0)
        rep = verify_conditions(l2s)
        res.cases += 1
        if not (rep.a1_holds and rep.a3_holds and not rep.a2_holds):
            res.note({"c0": c0, "bits": rep.bits()})
    parity = x8_coefficient_parity(n)
    res.details["x8_parity"] = parity
    if parity != 1:
        res.note({"x8_parity": parity})
    oracle_c0s = list(range(ctx.order)) if n <= 5 else [1, 2, 3, 5, 7, 11, 13, 19]
    for c0 in oracle_c0s:
        res.cases += 1
        if x8_parity_via_interpolation(ctx, c0) != parity:
            res.note({"c0": c0, "oracle_mismatch": True})
    res.details["interpolation_oracle_points"] = len(oracle_c0s)
    return res


CLAIMS: Dict[str, Callable[..., VerifyResult]] = {
    "theorem3": verify_theorem3,
    "proposition2": verify_proposition2,
    "lemma2": verify_lemma2,
    "lemma4": verify_lemma4,
    "prop3": verify_prop3,
    "theorem8": verify_theorem8,
}


def run_claim(name: str, n: int, modulus: Optional[int] = None, **kw) -> VerifyResult:
    if name not in CLAIMS:
        raise ValueError(f"unknown claim {name!r}; choose from {sorted(CLAIMS)}")
    return CLAIMS[name](n, modulus, **kw)


# -- invariant bundle ------------------------------------------------------------


def invariants_suite(n: int, modulus: Optional[int] = None) -> List[VerifyResult]:
    """Cross-cutting invariants for one field, as verification records."""
    ctx = make_field(n, modulus)
    rng = random.Random(7)  # one fixed draw: the records are reproducible
    out: List[VerifyResult] = []

    res = VerifyResult("field-axioms", ctx.spec, 0)
    for _ in range(2000):
        a, b, c = (rng.randrange(ctx.order) for _ in range(3))
        res.cases += 1
        if ctx.mul(a, ctx.mul(b, c)) != ctx.mul(ctx.mul(a, b), c):
            res.note({"assoc": [a, b, c]})
        if ctx.mul(a, b ^ c) != (ctx.mul(a, b) ^ ctx.mul(a, c)):
            res.note({"distrib": [a, b, c]})
    out.append(res)

    res = VerifyResult("inv0-involution", ctx.spec, ctx.order)
    tab = ctx.inv_table
    if not np.array_equal(np.sort(tab), np.arange(ctx.order)):
        res.note({"not_bijective": True})
    if not np.array_equal(tab[tab], np.arange(ctx.order)):
        res.note({"not_involution": True})
    out.append(res)

    res = VerifyResult("trace-frobenius", ctx.spec, ctx.order)
    if not np.array_equal(ctx.trace_table[ctx.sqr_table], ctx.trace_table):
        res.note({"trace_not_frobenius_invariant": True})
    if int((ctx.trace_table == 0).sum()) != ctx.order // 2:
        res.note({"trace_unbalanced": True})
    out.append(res)

    res = VerifyResult("adjoint-duality", ctx.spec, 0)
    for _ in range(20):
        l = LinearizedPoly.random(ctx, rng)
        ls = l.adjoint()
        if ls.adjoint() != l:
            res.note({"involution": l.to_text()})
        ltab, lstab = l.table(), ls.table()
        for _ in range(50):
            x, y = rng.randrange(ctx.order), rng.randrange(ctx.order)
            res.cases += 1
            if ctx.trace(ctx.mul(int(ltab[x]), y)) != ctx.trace(ctx.mul(x, int(lstab[y]))):
                res.note({"pair": [x, y], "l": l.to_text()})
        if l.kernel().dim != ls.kernel().dim or l.image().dim != ls.image().dim:
            res.note({"dims": l.to_text()})
    out.append(res)

    res = VerifyResult("census-existence", ctx.spec, 1)
    census = kloosterman_zeros(ctx)
    if census.zero_count < 1:
        res.note({"zero_count": census.zero_count})
    if n >= 5 and any(census.subfield_hits.values()):
        res.note({"subfield_hits": {k: list(v) for k, v in census.subfield_hits.items()}})
    res.details["zero_count"] = census.zero_count
    out.append(res)

    if n >= 4:
        out.append(verify_theorem3(n, modulus))

    res = VerifyResult("prop2-random", ctx.spec, 0)
    if n <= 8:  # the pair tables use the n <= 8 product table
        sub = verify_proposition2(n, modulus, samples=2000 if n >= 5 else None)
        res.cases = sub.cases
        res.violations = sub.violations
    out.append(res)

    res = VerifyResult("walsh-parseval", ctx.spec, 0)
    if n <= 8:
        f = TruthTable.inverse_map(ctx)
        w = f.walsh_matrix()
        res.cases = ctx.order - 1
        bad = np.nonzero((w[1:] ** 2).sum(axis=1) != ctx.order**2)[0]
        for b in bad[:4]:
            res.note({"b": int(b) + 1})
    out.append(res)
    return out
