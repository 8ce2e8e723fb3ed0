"""Inverse of the bijection, built clump by clump.

A weakly decreasing weight splits into clumps (maximal runs with adjacent
gaps at most 1).  From each clump a maximal-length subsequence with gaps at
least 2 becomes the first column of a diagram; the rest of the clump is
handled the same way with the opposite anchoring, and each first-column entry
it yields attaches to the unique entry of its parent clump's first column
within distance 1 on the prescribed side.
"""

from .core import OmegaPair, _int_tuple
from .diagrams import WeightDiagram, e_inverse, kappa, shape_class
from .seq_algorithm import _check_eps

__all__ = [
    "InternalConsistencyError",
    "clumps",
    "majuscule_extract",
    "alg_B",
    "gamma_inverse",
]


class InternalConsistencyError(RuntimeError):
    """An invariant the construction relies on failed to hold."""


def _check_dominant(lam) -> tuple[int, ...]:
    lam = _int_tuple(lam)
    if not lam:
        raise ValueError("the input weight must be non-empty")
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise ValueError(f"the input weight must be weakly decreasing, got {list(lam)}")
    return lam


def clumps(lam) -> tuple[tuple[int, ...], ...]:
    """Split a weakly decreasing sequence at every gap of 2 or more."""
    return _clumps(_check_dominant(lam))


def _clumps(lam: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    out = []
    start = 0
    for i in range(1, len(lam)):
        if lam[i - 1] - lam[i] >= 2:
            out.append(lam[start:i])
            start = i
    out.append(lam[start:])
    return tuple(out)


def majuscule_extract(clump, eps: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Longest subsequence with gaps >= 2 anchored at the clump's first entry
    (eps = -1) or last entry (eps = +1), plus the remainder in clump order,
    which is weakly decreasing as a subsequence of the clump.

    Greedy scanning from the anchor is maximal here because within a clump
    adjacent gaps are at most 1.  When equal values qualify, the occurrence
    closest to the anchor is taken.
    """
    eps = _check_eps(eps)
    return _majuscule_extract(_check_dominant(clump), eps)


def _majuscule_extract(clump: tuple[int, ...], eps: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    taken = []
    if eps == -1:
        last = None
        for idx, value in enumerate(clump):
            if idx == 0:
                taken.append(idx)
                last = value
            elif value <= last - 2:
                taken.append(idx)
                last = value
    else:
        last = None
        for idx in reversed(range(len(clump))):
            value = clump[idx]
            if idx == len(clump) - 1:
                taken.append(idx)
                last = value
            elif value >= last + 2:
                taken.append(idx)
                last = value
        taken.reverse()
    taken_set = set(taken)
    extracted = tuple(clump[i] for i in taken)
    remainder = tuple(clump[i] for i in range(len(clump)) if i not in taken_set)
    return extracted, remainder


def _alg_B(lam: tuple[int, ...], eps: int) -> list[list[int]]:
    rows: list[list[int]] = []
    # A node is the remainder of one clump, with the first column extracted
    # from that clump as (value, row) targets; the top node has none.  A parent
    # is popped before its children, so every row grows left to right.
    work = [(lam, eps, None)]
    while work:
        lam, eps, targets = work.pop()
        used = set()
        for clump in _clumps(lam):
            first_col, remainder = _majuscule_extract(clump, eps)
            placed = []
            for value in first_col:
                if targets is None:
                    rows.append([])
                    row = rows[-1]
                else:
                    # the targets were extracted with the parent's rounding mode, -eps
                    matches = [i for i, (t, _) in enumerate(targets) if value - t in (0, -eps)]
                    if len(matches) != 1:
                        raise InternalConsistencyError(
                            f"entry {value} has {len(matches)} attachment targets in "
                            f"{[t for t, _ in targets]}")
                    if matches[0] in used:
                        raise InternalConsistencyError(
                            f"two rows attach to first-column entry {targets[matches[0]][0]}")
                    used.add(matches[0])
                    row = targets[matches[0]][1]
                row.append(value)
                placed.append((value, row))
            if remainder:
                work.append((remainder, -eps, placed))
    return rows


def alg_B(lam, eps: int = -1) -> WeightDiagram:
    """Build the right-hand diagram of the pair from a weakly decreasing weight."""
    eps = _check_eps(eps)
    return WeightDiagram(_alg_B(_check_dominant(lam), eps))


def gamma_inverse(lam) -> OmegaPair:
    """The inverse bijection: undo the column shift, then read off shape and row data."""
    X = e_inverse(WeightDiagram(_alg_B(_check_dominant(lam), -1)))
    return OmegaPair(shape_class(X), kappa(X))
