"""Partition and integer-weight arithmetic shared by all the algorithms.

Everything here is exact integer arithmetic on immutable values: partitions,
integer sequences, Levi-block weights, and the doubled half-sum of positive
roots.  No floating point is ever involved.
"""

import operator
from itertools import groupby
from typing import Iterable, NamedTuple, Sequence

__all__ = [
    "Partition",
    "OmegaPair",
    "as_partition",
    "conjugate",
    "dom",
    "two_rho",
    "norm_sq",
    "is_dominant_wrt",
    "levi_blocks",
    "validate_omega_pair",
]


def _check_int(value) -> int:
    # operator.index admits integer-likes such as numpy.int64, raises TypeError
    # on floats and returns a plain int; bool is an int subclass, so refuse it here
    if isinstance(value, bool):
        raise TypeError(f"expected an integer, got {value!r}")
    return operator.index(value)


def _int_tuple(values: Iterable[int]) -> tuple[int, ...]:
    return tuple(_check_int(v) for v in values)


def _runs(values: Iterable[int]) -> list[list[int]]:
    # [value, multiplicity] for each maximal run of equal adjacent values, in order
    return [[v, sum(1 for _ in run)] for v, run in groupby(values)]


def _column_heights(lengths: Sequence[int]) -> list[int]:
    # entry j-1 counts the positive lengths that are >= j: tally each length,
    # then take suffix sums, O(len(lengths) + max(lengths))
    heights = [0] * max(lengths, default=0)
    for a in lengths:
        heights[a - 1] += 1
    for j in reversed(range(len(heights) - 1)):
        heights[j] += heights[j + 1]
    return heights


class Partition:
    """A weakly decreasing sequence of positive integers with at least one part.

    Immutable by convention; equality and hashing delegate to the parts tuple,
    and comparison against plain sequences of the same parts succeeds.
    """

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[int]):
        parts = _int_tuple(parts)
        if not parts:
            raise ValueError("a partition must have at least one part")
        for i, p in enumerate(parts):
            if p < 1:
                raise ValueError(f"partition parts must be positive, got {p}")
            if i > 0 and parts[i - 1] < p:
                raise ValueError(f"partition parts must be weakly decreasing, got {list(parts)}")
        self.parts = parts

    @property
    def n(self) -> int:
        """Total number of boxes (the integer being partitioned)."""
        return sum(self.parts)

    @property
    def ell(self) -> int:
        """Number of parts (rows)."""
        return len(self.parts)

    @property
    def s(self) -> int:
        """Largest part (number of columns)."""
        return self.parts[0]

    def conjugate(self) -> "Partition":
        """Column lengths: the j-th part counts the parts of self that are >= j."""
        return Partition(_column_heights(self.parts))

    def distinct_parts(self) -> tuple[tuple[int, int], ...]:
        """The distinct part values in decreasing order, each with its multiplicity."""
        return tuple(map(tuple, _runs(self.parts)))

    def __iter__(self):
        return iter(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __eq__(self, other) -> bool:
        if isinstance(other, Partition):
            return self.parts == other.parts
        if isinstance(other, (tuple, list)):
            return self.parts == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.parts)

    def __repr__(self) -> str:
        return f"Partition({list(self.parts)})"


def as_partition(alpha) -> Partition:
    """Coerce a Partition or any sequence of parts into a validated Partition."""
    if isinstance(alpha, Partition):
        return alpha
    return Partition(alpha)


class OmegaPair(NamedTuple):
    """An orbit-representation datum: a partition together with a compatible sequence."""

    alpha: Partition
    nu: tuple[int, ...]


def validate_omega_pair(alpha, nu) -> OmegaPair:
    """Check that nu is dominant with respect to alpha and package the pair."""
    alpha = as_partition(alpha)
    nu = _int_tuple(nu)
    if not is_dominant_wrt(nu, alpha):
        raise ValueError(f"nu={list(nu)} is not dominant with respect to alpha={list(alpha.parts)}")
    return OmegaPair(alpha, nu)


def conjugate(alpha) -> Partition:
    """Conjugate (transpose) partition."""
    return as_partition(alpha).conjugate()


def dom(iota: Iterable[int]) -> tuple[int, ...]:
    """Rearrange an integer sequence in weakly decreasing order."""
    return tuple(sorted(_int_tuple(iota), reverse=True))


def two_rho(alpha) -> tuple[int, ...]:
    """Doubled half-sum of positive roots of the column Levi subgroup.

    Concatenates, for each column of height h, the block [h-1, h-3, ..., 1-h].
    Each block sums to zero and the whole sequence has length n.
    """
    alpha = as_partition(alpha)
    out: list[int] = []
    for h in _column_heights(alpha.parts):
        out.extend(range(h - 1, -h, -2))
    return tuple(out)


def norm_sq(mu: Iterable[int]) -> int:
    """Squared Euclidean norm of an integer sequence."""
    return sum(v * v for v in _int_tuple(mu))


def is_dominant_wrt(nu: Sequence[int], alpha) -> bool:
    """True iff equal adjacent parts of alpha force weakly decreasing entries of nu."""
    alpha = as_partition(alpha)
    nu = _int_tuple(nu)
    if len(nu) != alpha.ell:
        raise ValueError(f"nu has length {len(nu)}, expected {alpha.ell}")
    return all(
        nu[i] >= nu[i + 1]
        for i in range(alpha.ell - 1)
        if alpha.parts[i] == alpha.parts[i + 1]
    )


def levi_blocks(mu: Sequence[int], alpha) -> tuple[tuple[int, ...], ...]:
    """Split a length-n sequence into consecutive blocks of the column lengths."""
    alpha = as_partition(alpha)
    mu = _int_tuple(mu)
    if len(mu) != alpha.n:
        raise ValueError(f"mu has length {len(mu)}, expected {alpha.n}")
    blocks = []
    start = 0
    for h in _column_heights(alpha.parts):
        blocks.append(mu[start : start + h])
        start += h
    return tuple(blocks)
