"""Number-theoretic utilities underpinning the Singer / PolarFly constructions.

The paper's constructions live in modular arithmetic over ``Z_N`` with
``N = q^2 + q + 1`` and in Galois fields of prime-power order ``q = p^a``.
This module provides the primitives shared across the repository:
primality and prime-power tests, integer factorization, Euler's totient
(Corollary 7.20 counts Hamiltonian paths as ``phi(N)``), and modular
inverses (Lemma 6.7 uses ``2^{-1} mod N``).

Everything here is exact integer arithmetic; no floating point.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Dict, List, Tuple

__all__ = [
    "is_prime",
    "factorize",
    "prime_factors",
    "is_prime_power",
    "prime_power_decomposition",
    "prime_powers_in_range",
    "euler_totient",
    "mod_inverse",
    "coprime",
]

# Deterministic Miller-Rabin witness set: correct for all n < 3.3e24,
# far beyond any radix this library handles.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Return True iff ``n`` is prime (deterministic for n < 3.3e24)."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def factorize(n: int) -> Tuple[Tuple[int, int], ...]:
    """Return the prime factorization of ``n`` as sorted ``((p, e), ...)``.

    Trial division; ``n`` in this library is at most ``128^3 - 1``, for which
    this is instantaneous.
    """
    if n < 1:
        raise ValueError(f"factorize expects n >= 1, got {n}")
    out: Dict[int, int] = {}
    m = n
    for p in (2, 3):
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
    f = 5
    while f * f <= m:
        for p in (f, f + 2):
            while m % p == 0:
                out[p] = out.get(p, 0) + 1
                m //= p
        f += 6
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return tuple(sorted(out.items()))


def prime_factors(n: int) -> List[int]:
    """Distinct prime factors of ``n``, sorted ascending."""
    return [p for p, _ in factorize(n)]


def is_prime_power(q: int) -> bool:
    """Return True iff ``q = p^a`` for a prime ``p`` and integer ``a >= 1``."""
    return q >= 2 and len(factorize(q)) == 1


def prime_power_decomposition(q: int) -> Tuple[int, int]:
    """Return ``(p, a)`` with ``q = p^a``; raise ValueError otherwise.

    ER_q (and hence PolarFly) exists exactly for prime powers (Section 6).
    """
    if q < 2 or len(factorize(q)) != 1:
        raise ValueError(f"{q} is not a prime power; PolarFly requires q = p^a")
    return factorize(q)[0]


def prime_powers_in_range(lo: int, hi: int) -> List[int]:
    """All prime powers ``q`` with ``lo <= q <= hi``, ascending.

    Used for the Figure 5 radix sweep (prime powers in [3, 128], i.e.
    radixes q+1 in [4, 129]).
    """
    return [q for q in range(max(lo, 2), hi + 1) if is_prime_power(q)]


def euler_totient(n: int) -> int:
    """Euler's totient ``phi(n)``.

    Corollary 7.20: the number of alternating-sum Hamiltonian paths in the
    Singer graph ``S_q`` equals ``phi(N)`` with ``N = q^2 + q + 1``.
    """
    if n < 1:
        raise ValueError(f"euler_totient expects n >= 1, got {n}")
    result = n
    for p, _ in factorize(n):
        result -= result // p
    return result


def mod_inverse(a: int, n: int) -> int:
    """Inverse of ``a`` modulo ``n``; raise ValueError if it does not exist.

    Lemma 6.7: ``2^{-1} mod N = (N+1)/2`` exists since ``N = q^2+q+1`` is odd.
    """
    a %= n
    g = math.gcd(a, n)
    if g != 1:
        raise ValueError(f"{a} has no inverse mod {n} (gcd={g})")
    return pow(a, -1, n)


def coprime(a: int, b: int) -> bool:
    """True iff gcd(a, b) == 1 (Hamiltonicity criterion of Theorem 7.13)."""
    return math.gcd(a, b) == 1
