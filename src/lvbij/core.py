"""Partition and integer-weight arithmetic shared by all the algorithms.

Everything here is exact integer arithmetic on immutable values: partitions,
integer sequences, Levi-block weights, and the doubled half-sum of positive
roots.  No floating point is ever involved.  The input rules of every
module live here too, as the `_check_*` helpers that public functions call.
"""

import operator
import sys
from itertools import groupby
from typing import Iterable, NamedTuple, Sequence

__all__ = [
    "Partition",
    "OmegaPair",
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


def _shown(value) -> str:
    # an int, or a sequence of them, as a refusal message shows it; str()
    # refuses an int of more digits than sys.get_int_max_str_digits(), so
    # such an int is shown by its bit length (at most 3 * limit bits always
    # means at most limit digits, since 8**limit < 10**limit)
    if not isinstance(value, int):
        return "[" + ", ".join(map(_shown, value)) + "]"
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit and value.bit_length() > 3 * limit and abs(value) >= 10 ** limit:
        return f"<{value.bit_length()}-bit {'negative ' if value < 0 else ''}integer>"
    return str(value)


def _check_bound(name: str, value, least: int = 0) -> int:
    value = _check_int(value)
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {_shown(value)}")
    return value


def _check_eps(eps) -> int:
    eps = _check_int(eps)
    if eps not in (-1, 1):
        raise ValueError(f"eps must be -1 or 1, got {_shown(eps)}")
    return eps


def _check_length(name: str, values: Sequence, expected: int) -> None:
    if len(values) != expected:
        raise ValueError(f"{name} has length {len(values)}, expected {expected}")


def _int_tuple(values: Iterable[int]) -> tuple[int, ...]:
    values = tuple(values)
    if set(map(type, values)) <= {int}:  # plain ints pass as they are
        return values
    return tuple(map(_check_int, values))


def _check_rows(alpha, nu, name: str = "nu") -> tuple[tuple[int, ...], tuple[int, ...]]:
    alpha = _int_tuple(alpha)
    nu = _int_tuple(nu)
    if not alpha:
        raise ValueError("empty input: at least one row is required")
    if len(alpha) != len(nu):
        raise ValueError(
            f"alpha and {name} must have equal length, got {len(alpha)} and {len(nu)}")
    if min(alpha) < 1:
        raise ValueError(f"row lengths must be positive, got {_shown(alpha)}")
    return alpha, nu


def _check_permutation(sigma, ell: int) -> list[int]:
    # sigma, row i at position sigma[i], as its pick order: the row at each position, from 0
    sigma = _int_tuple(sigma)
    if sorted(sigma) != list(range(1, ell + 1)):
        raise ValueError(f"not a permutation of 1..{ell}: {_shown(sigma)}")
    return sorted(range(ell), key=sigma.__getitem__)


def _inverse_permutation(at: Sequence[int]) -> tuple[int, ...]:
    # sigma in one-line notation from the pick order: sigma[at[p]] = p + 1
    sigma = [0] * len(at)
    for p, j in enumerate(at, start=1):
        sigma[j] = p
    return tuple(sigma)


def _ceil_div(a: int, b: int) -> int:
    # mathematical ceiling for b > 0, e.g. ceil(-3/2) = -1
    return -((-a) // b)


def _length_counts(lengths: Iterable[int]) -> dict[int, int]:
    counts: dict[int, int] = {}
    for a in lengths:
        counts[a] = counts.get(a, 0) + 1
    return counts


def _min_overlaps(weights: dict[int, int]) -> dict[int, int]:
    # for each length a: sum over lengths b of weights[b] * min(a, b), in one
    # sweep over the lengths in increasing order
    out = {}
    low = 0  # sum of weights[b] * b over b < a
    high = sum(weights.values())  # sum of weights[b] over b >= a
    for a in sorted(weights):
        out[a] = low + a * high
        low += weights[a] * a
        high -= weights[a]
    return out


def _column_heights(lengths: Iterable[int]) -> list[int]:
    # entry j-1 counts the positive lengths that are >= j: in increasing
    # order, each length extends the columns to itself with the count of the
    # lengths not yet passed, O(len(lengths) log len(lengths) + max(lengths))
    heights: list[int] = []
    lengths = sorted(lengths)
    count = len(lengths)
    for a in lengths:
        if a > len(heights):
            heights += [count] * (a - len(heights))
        count -= 1
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
                raise ValueError(f"partition parts must be positive, got {_shown(p)}")
            if i > 0 and parts[i - 1] < p:
                raise ValueError(f"partition parts must be weakly decreasing, got {_shown(parts)}")
        self.parts = parts

    @classmethod
    def _trusted(cls, parts: Iterable[int]) -> "Partition":
        # positive, weakly decreasing plain ints computed from validated
        # values: built without checking every part again
        p = object.__new__(cls)
        p.parts = tuple(parts)
        return p

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
        return Partition._trusted(_column_heights(self.parts))

    def distinct_parts(self) -> tuple[tuple[int, int], ...]:
        """The distinct part values in decreasing order, each with its multiplicity."""
        return tuple((p, len(list(run))) for p, run in groupby(self.parts))

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


def _as_partition(alpha) -> Partition:
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
    alpha = _as_partition(alpha)
    nu = _int_tuple(nu)
    if not _is_dominant(nu, alpha):
        raise ValueError(f"nu={_shown(nu)} is not dominant with respect to alpha={_shown(alpha)}")
    return OmegaPair(alpha, nu)


def dom(iota: Iterable[int]) -> tuple[int, ...]:
    """Rearrange an integer sequence in weakly decreasing order."""
    return _dom(_int_tuple(iota))


def _dom(values: Iterable[int]) -> tuple[int, ...]:
    # dom of plain ints computed from validated values, not checked again
    return tuple(sorted(values, reverse=True))


def two_rho(alpha) -> tuple[int, ...]:
    """Doubled half-sum of positive roots of the column Levi subgroup.

    Concatenates, for each column of height h, the block [h-1, h-3, ..., 1-h].
    Each block sums to zero and the whole sequence has length n.
    """
    parts = _as_partition(alpha).parts
    out: list[int] = []
    width = 0
    # from the shortest part up: columns width+1..a have height h, the parts >= a
    for h, a in zip(range(len(parts), 0, -1), reversed(parts)):
        if a > width:
            block = range(h - 1, -h, -2)
            out.extend(block if a - width == 1 else [*block] * (a - width))
            width = a
    return tuple(out)


def norm_sq(mu: Iterable[int]) -> int:
    """Squared Euclidean norm of an integer sequence."""
    return sum(v * v for v in _int_tuple(mu))


def is_dominant_wrt(nu: Sequence[int], alpha) -> bool:
    """True iff equal adjacent parts of alpha force weakly decreasing entries of nu."""
    alpha = _as_partition(alpha)
    return _is_dominant(_int_tuple(nu), alpha)


def _is_dominant(nu: tuple[int, ...], alpha: Partition) -> bool:
    # nu of plain ints, not checked again; only its length is
    _check_length("nu", nu, alpha.ell)
    parts = alpha.parts
    return all(nu[i] >= nu[i + 1] for i in range(alpha.ell - 1) if parts[i] == parts[i + 1])


def levi_blocks(mu: Sequence[int], alpha) -> tuple[tuple[int, ...], ...]:
    """Split a length-n sequence into consecutive blocks of the column lengths."""
    alpha = _as_partition(alpha)
    mu = _int_tuple(mu)
    _check_length("mu", mu, alpha.n)
    blocks = []
    start = 0
    for h in _column_heights(alpha.parts):
        blocks.append(mu[start : start + h])
        start += h
    return tuple(blocks)
