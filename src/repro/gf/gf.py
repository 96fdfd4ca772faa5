"""Galois fields ``GF(q)`` for prime powers ``q = p^a``, built from scratch.

Elements are integer-coded ``0..q-1``. For prime fields the coding is the
residue itself; for extension fields the integer is the base-``p`` encoding
of the coefficient vector of the residue polynomial (coefficient of ``x^i``
is the ``i``-th base-``p`` digit), reduced modulo the lexicographically
smallest monic irreducible polynomial of degree ``a`` over ``F_p``. This
coding makes the canonical element order ``0 < 1 < ... < q-1`` well defined,
which in turn pins down the "lexicographically smallest" degree-3 primitive
polynomial of Section 6.2 and makes the generated Singer difference sets
reproducible.

Scalar operations are exact Python ints; vector operations accept NumPy
arrays and are fully vectorized (modular arithmetic for prime fields,
precomputed ``q x q`` lookup tables for extension fields — at most 16K
entries for the radixes PolarFly supports), as required for listing the
polar lines of all N points of ER_q without Python-level loops.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

import numpy as np

from repro.gf import poly as P
from repro.utils.numbertheory import prime_power_decomposition

__all__ = ["GF", "get_field"]


class GF:
    """The finite field with ``q = p^a`` elements.

    Parameters
    ----------
    q:
        Field order; must be a prime power. Raises ``ValueError`` otherwise.

    Attributes
    ----------
    order, char, degree:
        ``q``, ``p`` and ``a`` with ``q = p^a``.
    modulus:
        For extension fields, the monic irreducible polynomial over ``F_p``
        defining the field (ascending-coefficient tuple); ``None`` for
        prime fields.
    """

    def __init__(self, q: int):
        p, a = prime_power_decomposition(q)
        self.order = q
        self.char = p
        self.degree = a
        self.modulus: Tuple[int, ...] = None  # type: ignore[assignment]
        if a == 1:
            self._init_prime()
        else:
            self._init_extension()

    # ------------------------------------------------------------------ init

    def _init_prime(self) -> None:
        q = self.order
        self._inv_table = np.zeros(q, dtype=np.int64)
        self._inv_table[1:] = np.array([pow(i, -1, q) for i in range(1, q)], dtype=np.int64)
        self._add_table = None
        self._mul_table = None

    def _init_extension(self) -> None:
        p, a, q = self.char, self.degree, self.order
        base = GF(p)
        self.modulus = P.smallest_irreducible(base, a)

        # Digit (coefficient) decomposition of every element: digits[e, i] is
        # the coefficient of x^i in element e.
        digits = np.zeros((q, a), dtype=np.int64)
        for e in range(q):
            v = e
            for i in range(a):
                digits[e, i] = v % p
                v //= p
        self._digits = digits
        weights = p ** np.arange(a, dtype=np.int64)

        # Addition is digit-wise mod p: vectorized table build.
        add = ((digits[:, None, :] + digits[None, :, :]) % p) @ weights
        self._add_table = add.astype(np.int64)

        # Multiplication table via polynomial arithmetic mod the modulus.
        mul = np.zeros((q, q), dtype=np.int64)
        polys = [P.poly_trim(digits[e].tolist()) for e in range(q)]
        for i in range(q):
            for j in range(i, q):
                prod = P.poly_mod(base, P.poly_mul(base, polys[i], polys[j]), self.modulus)
                enc = 0
                for d, c in enumerate(prod):
                    enc += c * (p**d)
                mul[i, j] = enc
                mul[j, i] = enc
        self._mul_table = mul

        inv = np.zeros(q, dtype=np.int64)
        for e in range(1, q):
            # the row of e contains 1 exactly once (field => e is a unit)
            inv[e] = int(np.nonzero(mul[e] == 1)[0][0])
        self._inv_table = inv

    # --------------------------------------------------------------- scalars

    def add(self, x: int, y: int) -> int:
        if self._add_table is None:
            return (x + y) % self.order
        return int(self._add_table[x, y])

    def neg(self, x: int) -> int:
        if self._add_table is None:
            return (-x) % self.order
        # char-p digit-wise negation
        p = self.char
        dig = (-self._digits[x]) % p
        return int(dig @ (p ** np.arange(self.degree, dtype=np.int64)))

    def sub(self, x: int, y: int) -> int:
        return self.add(x, self.neg(y))

    def mul(self, x: int, y: int) -> int:
        if self._mul_table is None:
            return (x * y) % self.order
        return int(self._mul_table[x, y])

    def inv(self, x: int) -> int:
        if x % self.order == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return int(self._inv_table[x % self.order])

    def div(self, x: int, y: int) -> int:
        return self.mul(x, self.inv(y))

    def pow(self, x: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(x), -e)
        acc, base = 1, x
        while e:
            if e & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            e >>= 1
        return acc

    @property
    def elements(self) -> range:
        """All field elements in canonical order ``0..q-1``."""
        return range(self.order)

    # --------------------------------------------------------------- vectors

    def vadd(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Element-wise field addition of integer-coded arrays."""
        x = np.asarray(x, dtype=np.int64)
        y = np.asarray(y, dtype=np.int64)
        if self._add_table is None:
            return (x + y) % self.order
        return self._add_table[x, y]

    def vmul(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Element-wise field multiplication of integer-coded arrays."""
        x = np.asarray(x, dtype=np.int64)
        y = np.asarray(y, dtype=np.int64)
        if self._mul_table is None:
            return (x * y) % self.order
        return self._mul_table[x, y]

    def vneg(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.int64)
        if self._add_table is None:
            return (-x) % self.order
        p = self.char
        dig = (-self._digits[x]) % p
        return dig @ (p ** np.arange(self.degree, dtype=np.int64))

    def vinv(self, x: np.ndarray) -> np.ndarray:
        """Element-wise multiplicative inverse; raises ``ZeroDivisionError``
        if any element is zero, as :meth:`inv` does."""
        x = np.asarray(x, dtype=np.int64) % self.order
        if (x == 0).any():
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return self._inv_table[x]

    # ------------------------------------------------------------- encodings

    def to_poly(self, e: int) -> Tuple[int, ...]:
        """Coefficient tuple (ascending degree) of element ``e`` over F_p."""
        if self.degree == 1:
            return P.poly_trim((e % self.order,))
        return P.poly_trim(self._digits[e].tolist())

    def from_poly(self, coeffs) -> int:
        """Integer coding of a coefficient tuple over F_p."""
        p = self.char
        enc = 0
        for d, c in enumerate(coeffs):
            enc += (c % p) * (p**d)
        if enc >= self.order:
            raise ValueError("coefficient tuple exceeds field degree")
        return enc

    # ----------------------------------------------------------------- misc

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.degree == 1:
            return f"GF({self.order})"
        return f"GF({self.char}^{self.degree}; modulus={self.modulus})"

    def __eq__(self, other) -> bool:
        return isinstance(other, GF) and other.order == self.order

    def __hash__(self) -> int:
        return hash(("GF", self.order))


@lru_cache(maxsize=None)
def get_field(q: int) -> GF:
    """Memoized field factory — table construction is done once per order."""
    return GF(q)
