"""Permutations, shuffle enumeration, and parity-aware signatures.

A permutation sigma of {1, ..., n} is a (p, n-p)-shuffle when both runs
are increasing: sigma(1) < ... < sigma(p) and sigma(p+1) < ... < sigma(n).
Shuffles index the summands of the graded shuffle conditions imposed on
cochains, so their enumeration order here (lexicographic by the first run)
is part of the deterministic output contract.

When tensor slots carry Z_2 parities, reordering the slots picks up a
Koszul correction on top of the plain signature.  The correction is the
signature of the *odd subpermutation*: with alpha_1 < ... < alpha_k the odd
positions of (1, ..., n) and beta_1 < ... < beta_k the positions m for
which slot sigma(m) is odd, the odd subpermutation sends alpha_m to
sigma(beta_m).  It is a bijection of the odd position set but it is not
multiplicative in sigma (each application implicitly re-sorts its input),
so ``sigma_o_sign`` always evaluates this definition directly and never
composes previously computed subpermutations.

Indices are 1-based throughout, matching the usual word notation for
permutations: ``Permutation((3, 1, 2))`` sends 1 to 3.

>>> [s.images for s in enumerate_shuffles(3, 1)]
[(1, 2, 3), (2, 1, 3), (3, 1, 2)]
>>> sigma_o_sign(Permutation((3, 1, 2)), (0, 1, 1))
-1
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from .records import Record

ParityVector = tuple[int, ...]

__all__ = [
    "ParityVector",
    "Permutation",
    "is_shuffle",
    "enumerate_shuffles",
    "odd_subpermutation",
    "sigma_o_sign",
]


class Permutation(Record):
    """A permutation of {1, ..., n} in word notation: images[i-1] = sigma(i)."""

    images: tuple[int, ...]

    def __init__(self, images: tuple[int, ...]) -> None:
        n = len(images)
        if sorted(images) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {images}")
        super().__init__(images)

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise ValueError(f"index {i} outside 1..{self.n}")
        return self.images[i - 1]

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, v in enumerate(self.images, start=1):
            inv[v - 1] = i
        return Permutation(tuple(inv))

    def sign(self) -> int:
        return _inversion_sign(self.images)


def _inversion_sign(values: tuple[int, ...]) -> int:
    inversions = 0
    for i in range(len(values)):
        vi = values[i]
        for j in range(i + 1, len(values)):
            if vi > values[j]:
                inversions += 1
    return -1 if inversions % 2 else 1


def is_shuffle(perm: Permutation, p: int) -> bool:
    """Whether both runs of ``perm`` increase.  Requires 1 <= p <= n-1."""
    n = perm.n
    if not 1 <= p <= n - 1:
        raise ValueError(f"p must satisfy 1 <= p <= n-1, got p={p}, n={n}")
    first = perm.images[:p]
    second = perm.images[p:]
    return all(a < b for a, b in zip(first, first[1:])) and all(a < b for a, b in zip(second, second[1:]))


@lru_cache(maxsize=None)
def enumerate_shuffles(n: int, p: int) -> tuple[Permutation, ...]:
    """All (p, n-p)-shuffles of {1, ..., n} as permutations, lexicographic by the first run.

    The first run determines the shuffle, so this is exactly one shuffle per
    p-subset of {1, ..., n}, in subset order.
    """
    if n < 2:
        raise ValueError(f"shuffles need n >= 2, got n={n}")
    if not 1 <= p <= n - 1:
        raise ValueError(f"p must satisfy 1 <= p <= n-1, got p={p}, n={n}")
    out = []
    universe = range(1, n + 1)
    for first in combinations(universe, p):
        chosen = set(first)
        second = tuple(v for v in universe if v not in chosen)
        out.append(Permutation(first + second))
    return tuple(out)


def odd_subpermutation(perm: Permutation, parities: ParityVector) -> dict[int, int]:
    """The bijection of the odd position set induced by ``perm``.

    ``parities[i-1]`` is the parity of slot i.  The map sends the m-th odd
    position to perm(beta_m), where beta_m is the m-th position whose image
    under ``perm`` is odd.
    """
    n = perm.n
    if len(parities) != n:
        raise ValueError(f"parity vector length {len(parities)} does not match n={n}")
    if any(x not in (0, 1) for x in parities):
        raise ValueError("parities must be 0 or 1")
    alphas = [i for i in range(1, n + 1) if parities[i - 1] == 1]
    betas = [m for m in range(1, n + 1) if parities[perm(m) - 1] == 1]
    return {a: perm(b) for a, b in zip(alphas, betas)}


@lru_cache(maxsize=None)
def sigma_o_sign(perm: Permutation, parities: ParityVector) -> int:
    """Signature of the odd subpermutation of ``perm`` for ``parities``."""
    sub = odd_subpermutation(perm, parities)
    values = tuple(sub[a] for a in sorted(sub))
    return _inversion_sign(values)
