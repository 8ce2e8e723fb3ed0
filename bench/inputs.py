"""Input families of the benchmark, made by the benchmark's own code.

Nothing here calls the program: the sweeps' inputs are enumerated
independently of `lvbij.oracle`, and the large families are drawn from a
`random.Random` seeded by the caller, so one seed always gives one input set.
"""

import random
from itertools import combinations_with_replacement
from math import comb, prod
from typing import Iterator, NamedTuple

Pair = tuple[tuple[int, ...], tuple[int, ...]]


class Family(NamedTuple):
    """Inputs of one pass: (alpha, nu) pairs for the forward maps, whose images
    also go through the inverse, plus weights that go to the inverse only.

    `deep` pairs are attempted on every pass as well, but kept out of the
    pass times: the three maps recurse once per box of their single row, and
    fail on them while that row is longer than the recursion limit."""

    forward: list[Pair]
    inverse_only: list[tuple[int, ...]]
    deep: tuple[Pair, ...] = ()


def partitions(n: int, largest: int | None = None) -> Iterator[tuple[int, ...]]:
    """Partitions of n as weakly decreasing tuples, largest part first."""
    if n == 0:
        yield ()
        return
    for p in range(min(n, largest or n), 0, -1):
        for rest in partitions(n - p, p):
            yield (p,) + rest


def _multiplicities(alpha: tuple[int, ...]) -> list[int]:
    counts: dict[int, int] = {}
    for a in alpha:
        counts[a] = counts.get(a, 0) + 1
    return list(counts.values())


def omega_inputs(n_max: int, bound: int) -> list[Pair]:
    """Every (alpha, nu) with |alpha| <= n_max and nu dominant with entries in [-bound, bound]."""
    values = range(bound, -bound - 1, -1)
    out: list[Pair] = []
    for n in range(1, n_max + 1):
        for alpha in partitions(n):
            blocks: list[list[tuple[int, ...]]] = [[()]]
            for mult in _multiplicities(alpha):
                blocks = [b + [c] for b in blocks for c in combinations_with_replacement(values, mult)]
            for b in blocks:
                out.append((alpha, tuple(v for block in b for v in block)))
    return out


def dominant_weights(max_len: int, bound: int) -> list[tuple[int, ...]]:
    """Every weakly decreasing sequence of length 1..max_len with entries in [-bound, bound]."""
    values = range(bound, -bound - 1, -1)
    return [lam for k in range(1, max_len + 1) for lam in combinations_with_replacement(values, k)]


def omega_count(n_max: int, bound: int) -> int:
    """Closed-form size of omega_inputs: a multiset of entries per block of equal parts."""
    return sum(
        prod(comb(2 * bound + m, m) for m in _multiplicities(alpha))
        for n in range(1, n_max + 1)
        for alpha in partitions(n)
    )


def dominant_count(max_len: int, bound: int) -> int:
    """Closed-form size of dominant_weights: multisets of size k from 2*bound + 1 values."""
    return sum(comb(2 * bound + k, k) for k in range(1, max_len + 1))


def closed_form_inputs(bound: int = 10) -> list[Pair]:
    """The 2-box and 3-box orbits (2), (1,1) and (2,1) with entries in [-bound, bound]."""
    out: list[Pair] = []
    for v1 in range(-bound, bound + 1):
        out.append(((2,), (v1,)))
        for v2 in range(-bound, bound + 1):
            if v1 >= v2:
                out.append(((1, 1), (v1, v2)))
            out.append(((2, 1), (v1, v2)))
    return out


def sweep_family(n_max: int, bound: int, inverse_len: int, inverse_bound: int) -> Family:
    """All small inputs: the forward sweep's pairs and the inverse sweep's weights."""
    return Family(omega_inputs(n_max, bound), dominant_weights(inverse_len, inverse_bound))


def _decreasing(rng: random.Random, k: int, lo: int, hi: int) -> tuple[int, ...]:
    return tuple(sorted((rng.randint(lo, hi) for _ in range(k)), reverse=True))


def _dominant_nu(rng: random.Random, alpha: tuple[int, ...], lo: int, hi: int) -> tuple[int, ...]:
    nu: list[int] = []
    for m in _multiplicities(alpha):
        nu.extend(_decreasing(rng, m, lo, hi))
    return tuple(nu)


def few_sizes_partition(rng: random.Random) -> tuple[int, ...]:
    """100 parts, 25 each of 4 sizes drawn from 14..17, 10..13, 6..9 and 2..5,
    so that n stays near 1000 and the cost of a pass barely depends on the seed."""
    sizes = [rng.randint(lo, lo + 3) for lo in (14, 10, 6, 2)]
    return tuple(size for size in sizes for _ in range(25))


def large_family(rng: random.Random) -> Family:
    """n about 1000, except the single row, which stays well below the recursion limit."""
    few = few_sizes_partition(rng)
    stair = tuple(range(44, 0, -1))  # n = 990
    forward = [
        ((1,) * 1000, _decreasing(rng, 1000, -5, 5)),
        ((2,) * 500, _decreasing(rng, 500, -5, 5)),
        (few, _dominant_nu(rng, few, -20, 20)),
        (stair, _dominant_nu(rng, stair, -5, 5)),
        ((300,), (rng.randint(-50, 50),)),
    ]
    dense = [_decreasing(rng, 1000, -3, 3) for _ in range(3)]
    return Family(forward, dense, deep=(((1200,), (0,)),))
