"""Exact arithmetic in GF(2^n) for 2 <= n <= 16.

Field elements are plain Python ints in [0, 2^n), interpreted as
coordinate vectors in the polynomial basis of an irreducible modulus:
bit i of the int is the coefficient of x^i.  Addition is XOR.
Inversion uses the convention 0^-1 = 0, which makes it a bijection of
the whole field.

A FieldContext owns the modulus and the precomputed exp/log, inverse
and trace tables.  Contexts are immutable and safe to share between
threads or processes; every operation is a pure function of
(context, inputs).
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from typing import Iterator, Optional, Tuple

import numpy as np

__all__ = [
    "FieldContext",
    "make_field",
    "default_modulus",
    "alternate_modulus",
    "irreducible_polys",
    "is_irreducible",
    "parse_field_spec",
    "span_table",
    "MIN_N",
    "MAX_N",
]

MIN_N = 2
MAX_N = 16

def _poly_degree(p: int) -> int:
    return p.bit_length() - 1


def _poly_mod(a: int, m: int) -> int:
    dm = _poly_degree(m)
    while a and _poly_degree(a) >= dm:
        a ^= m << (_poly_degree(a) - dm)
    return a


def is_irreducible(p: int) -> bool:
    """Irreducibility over GF(2) by trial division up to degree n/2."""
    if p < 2:  # constants, and negative ints, which are no polynomials
        return False
    n = _poly_degree(p)
    if n == 1:
        return True
    if not (p & 1):
        return False
    for d in range(1, n // 2 + 1):
        for q in range(1 << d, 1 << (d + 1)):
            if _poly_mod(p, q) == 0:
                return False
    return True


def irreducible_polys(n: int) -> Iterator[int]:
    """All irreducible degree-n bitmasks in increasing order."""
    for p in range(1 << n, 1 << (n + 1)):
        if is_irreducible(p):
            yield p


@lru_cache(maxsize=None)
def default_modulus(n: int) -> int:
    """The lexicographically smallest irreducible bitmask of degree n, the
    first that irreducible_polys(n) yields."""
    if not MIN_N <= n <= MAX_N:
        raise ValueError(f"extension degree n={n} out of range [{MIN_N}, {MAX_N}]")
    return next(irreducible_polys(n))


def alternate_modulus(n: int) -> Optional[int]:
    """Second-smallest irreducible of degree n, or None (n=2 has only one)."""
    it = irreducible_polys(n)
    next(it)
    return next(it, None)


def parse_field_spec(spec: str) -> tuple[int, Optional[int]]:
    """Parse "n" or "n:0xHEX" into (n, modulus or None)."""
    part, colon, hexpart = spec.partition(":")
    try:
        n = int(part)
    except ValueError:
        raise ValueError(f"bad field spec {spec!r}") from None
    if not colon:
        return n, None
    try:
        return n, int(hexpart, 16)
    except ValueError:
        raise ValueError(f"bad modulus in field spec {spec!r}") from None


def span_table(images) -> np.ndarray:
    """out[m] = XOR of images[k] over the set bits k of m: the value table
    of the GF(2)-linear map with these basis images.  Keeps the dtype and
    the trailing dimensions of images."""
    images = np.asarray(images)
    out = np.zeros((1 << len(images),) + images.shape[1:], dtype=images.dtype)
    for k, image in enumerate(images):
        out[1 << k : 2 << k] = out[: 1 << k] ^ image
    return out


class FieldContext:
    """A concrete model of GF(2^n): degree, modulus, and lookup tables."""

    def __init__(self, n: int, modulus: Optional[int] = None):
        if not MIN_N <= n <= MAX_N:
            raise ValueError(f"extension degree n={n} out of range [{MIN_N}, {MAX_N}]")
        if modulus is None:
            modulus = default_modulus(n)
        if modulus >> n != 1:  # also rejects a negative int
            raise ValueError(f"modulus {modulus:#x} does not have degree {n}")
        if not is_irreducible(modulus):
            raise ValueError(f"modulus {modulus:#x} is reducible over GF(2)")
        self.n = n
        self.modulus = modulus
        self.order = 1 << n
        self.mask = self.order - 1
        self._build_tables()

    # -- construction -------------------------------------------------

    def _mul_raw(self, a: int, b: int) -> int:
        """Shift-and-reduce product, independent of the log tables."""
        p = 0
        while b:
            if b & 1:
                p ^= a
            b >>= 1
            a <<= 1
            if a & self.order:
                a ^= self.modulus
        return p

    def _build_tables(self) -> None:
        """Squaring, the trace and multiplication by g^k are GF(2)-linear, so
        each table is the span of n basis images; exp doubles, as
        exp[k:2k] = g^k exp[:k], and log is its inverse permutation.  The
        generator is the first g = 2, 3, ... whose powers g^k, 0 < k < q - 1,
        all differ from 1: the smallest primitive element."""
        q, n = self.order, self.n
        basis = [1 << j for j in range(n)]
        exp = np.zeros(2 * q, dtype=np.int64)
        exp[0] = 1
        for g in range(2, q):
            gk = g
            for t in range(n):  # the last step also sets exp[q - 1] = g^(q - 1) = 1
                exp[1 << t : 2 << t] = span_table([self._mul_raw(gk, b) for b in basis])[exp[: 1 << t]]
                gk = self._mul_raw(gk, gk)
            if not (exp[1 : q - 1] == 1).any():
                break
        exp[q - 1 : 2 * (q - 1)] = exp[: q - 1]
        log = np.zeros(q, dtype=np.int64)
        log[exp[: q - 1]] = np.arange(q - 1)
        self.generator = g
        self.exp_table = exp
        self.log_table = log
        # inv0: a^(2^n-2), with 0 -> 0
        inv = np.zeros(q, dtype=np.int64)
        inv[1:] = exp[(q - 1) - log[1:]]
        self.inv_table = inv
        self.sqr_table = span_table([self._mul_raw(b, b) for b in basis])
        # trace: a + a^2 + ... + a^(2^(n-1)), landing in {0, 1}
        tr, x = np.zeros(n, dtype=np.int64), np.array(basis)
        for _ in range(n):
            tr ^= x
            x = self.sqr_table[x]
        self.trace_table = span_table(tr.astype(np.uint8))
        for table in (exp, log, inv, self.sqr_table, self.trace_table):
            table.setflags(write=False)

    # -- identity -----------------------------------------------------

    @property
    def spec(self) -> str:
        """The "n:0xHEX" field specification string."""
        return f"{self.n}:{self.modulus:#x}"

    def __repr__(self) -> str:
        return f"FieldContext({self.spec})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldContext)
            and self.n == other.n
            and self.modulus == other.modulus
        )

    def __hash__(self) -> int:
        return hash((self.n, self.modulus))

    def __reduce__(self):
        return (make_field, (self.n, self.modulus))

    # -- scalar operations ---------------------------------------------

    def check(self, a: int) -> int:
        if not 0 <= a < self.order:
            raise ValueError(f"element {a} out of range for GF(2^{self.n})")
        return a

    def elements(self) -> range:
        return range(self.order)

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return int(self.exp_table[self.log_table[a] + self.log_table[b]])

    def inv0(self, a: int) -> int:
        return int(self.inv_table[a])

    def trace(self, a: int) -> int:
        return int(self.trace_table[a])

    def sqr(self, a: int) -> int:
        return int(self.sqr_table[a])

    def pow2k(self, a: int, k: int) -> int:
        """Frobenius power a^(2^k) for 0 <= k < n."""
        if not 0 <= k < self.n:
            raise ValueError(f"Frobenius exponent k={k} out of range [0, {self.n})")
        return int(self.pow2k_table[k, self.check(a)])

    def pow(self, a: int, e: int) -> int:
        """a^e with e >= 0; 0^0 = 1 and 0^e = 0 for e > 0."""
        if e < 0:
            raise ValueError("negative exponent; use inv0 explicitly")
        if a == 0:
            return 1 if e == 0 else 0
        return int(self.exp_table[(int(self.log_table[a]) * e) % (self.order - 1)])

    # -- vectorized operations ------------------------------------------

    def mul_vec(self, a, b) -> np.ndarray:
        """Elementwise product of int arrays (broadcasting allowed)."""
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        out = self.exp_table[self.log_table[a] + self.log_table[b]]
        return np.where((a == 0) | (b == 0), 0, out)

    def pow_vec(self, a, e: int) -> np.ndarray:
        """Elementwise a^e for e >= 1 (0 maps to 0)."""
        if e < 1:
            raise ValueError("pow_vec requires e >= 1")
        a = np.asarray(a, dtype=np.int64)
        out = self.exp_table[(self.log_table[a] * (e % (self.order - 1) or (self.order - 1)))
                             % (self.order - 1)]
        return np.where(a == 0, 0, out)

    @cached_property
    def pow2k_table(self) -> np.ndarray:
        """pow2k_table[k][x] = x^(2^k), shape (n, 2^n)."""
        t = np.empty((self.n, self.order), dtype=np.int64)
        t[0] = np.arange(self.order)
        for k in range(1, self.n):
            t[k] = self.sqr_table[t[k - 1]]
        t.setflags(write=False)
        return t

    @cached_property
    def trace_dual_table(self) -> np.ndarray:
        """t[a] with Tr(a x) = popcount(t[a] & x) mod 2 for all x.

        Transports the trace pairing to the standard dot product, which
        lets fast transforms over the character group compute the
        exponential sums indexed by field elements.  t is a permutation.
        """
        bits = np.arange(self.n)
        # column j of the Gram matrix G[i][j] = Tr(2^i 2^j)
        gram = self.trace_table[self.mul_vec(1 << bits[:, None], 1 << bits)].astype(np.int64)
        t = span_table((gram << bits[:, None]).sum(axis=0))
        t.setflags(write=False)
        return t

    @cached_property
    def trace_dual_basis(self) -> Tuple[int, ...]:
        """theta_j with Tr(theta_j 2^k) = [j = k]: the preimage of 2^j
        under trace_dual_table."""
        return tuple(np.argsort(self.trace_dual_table)[1 << np.arange(self.n)].tolist())

    @cached_property
    def mul_table(self) -> np.ndarray:
        """Full 2^n x 2^n product table; only built for n <= 8."""
        if self.n > 8:
            raise ValueError("mul_table is limited to n <= 8; use mul_vec")
        xs = np.arange(self.order, dtype=np.int64)
        t = self.mul_vec(xs[:, None], xs[None, :])
        t.setflags(write=False)
        return t

    # -- structured subsets ----------------------------------------------

    def hyperplane(self, a: int) -> frozenset:
        """{x : Tr(ax) = 0}, a 2^(n-1)-element GF(2)-subspace (a != 0)."""
        if a == 0:
            raise ValueError("hyperplane requires a nonzero defining element")
        prods = self.mul_vec(a, np.arange(self.order))
        return frozenset(int(x) for x in np.nonzero(self.trace_table[prods] == 0)[0])

    def subfield_elements(self, k: int) -> frozenset:
        """The unique subfield of size 2^k: {0} union {x : x^(2^k-1) = 1}."""
        if k < 1 or self.n % k != 0:
            raise ValueError(f"k={k} does not divide n={self.n}")
        if k == self.n:
            return frozenset(range(self.order))
        e = (1 << k) - 1
        xs = np.arange(1, self.order)
        members = xs[self.pow_vec(xs, e) == 1]
        return frozenset([0] + [int(x) for x in members])


@lru_cache(maxsize=None)
def _cached_field(n: int, modulus: int) -> FieldContext:
    return FieldContext(n, modulus)


def make_field(n: int, modulus: Optional[int] = None) -> FieldContext:
    """Shared, cached FieldContext for the given degree and modulus."""
    if modulus is None:
        modulus = default_modulus(n)
    return _cached_field(n, modulus)
