"""Inverse of the bijection, built clump by clump.

A weakly decreasing weight splits into clumps (maximal runs with adjacent
gaps at most 1).  From each clump a maximal-length subsequence with gaps at
least 2 becomes the first column of a diagram; the rest of the clump is
handled the same way with the opposite anchoring, and each first-column entry
it yields attaches to the unique entry of its parent clump's first column
within distance 1 on the prescribed side.

Every value between a clump's two ends occurs in it, and the extraction takes
at most one entry of each value, so what it takes depends only on which
values occur.  Each node of the construction therefore carries its remainder
as [value, multiplicity] runs, and a first-column entry attaches by value.
"""

from itertools import chain, repeat

from .core import OmegaPair, _int_tuple, _runs
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


def _expand(runs) -> tuple[int, ...]:
    return tuple(chain.from_iterable(repeat(v, m) for v, m in runs))


def clumps(lam) -> tuple[tuple[int, ...], ...]:
    """Split a weakly decreasing sequence at every gap of 2 or more."""
    return tuple(map(_expand, _clumps(_runs(_check_dominant(lam)))))


def _clumps(runs: list[list[int]]) -> list[list[list[int]]]:
    out: list[list[list[int]]] = []
    for run in runs:
        if out and out[-1][-1][0] - run[0] < 2:
            out[-1].append(run)
        else:
            out.append([run])
    return out


def majuscule_extract(clump, eps: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Longest subsequence with gaps >= 2 anchored at the clump's first entry
    (eps = -1) or last entry (eps = +1), plus the remainder in clump order,
    which is weakly decreasing as a subsequence of the clump.

    Greedy scanning from the anchor is maximal here because within a clump
    adjacent gaps are at most 1.  The scan takes at most one entry of each
    value, so it reads the clump as runs of equal values and takes one entry
    from each run whose value is at least 2 past the last one taken.
    """
    eps = _check_eps(eps)
    taken, remainder = _majuscule_extract(_runs(_check_dominant(clump)), eps)
    return tuple(taken), _expand(remainder)


def _majuscule_extract(clump: list[list[int]], eps: int) -> tuple[list[int], list[list[int]]]:
    # one greedy scan from the anchor, -eps being the direction of travel;
    # each taken run gives up one entry in place, and the non-empty runs are
    # the remainder
    taken: list[int] = []
    for run in clump[::-eps]:
        if not taken or eps * (run[0] - taken[-1]) >= 2:
            taken.append(run[0])
            run[1] -= 1
    return taken[::-eps], [run for run in clump if run[1]]


def _alg_B(lam: tuple[int, ...], eps: int) -> list[list[int]]:
    rows: list[list[int]] = []
    # A node is the remainder of one clump as [value, multiplicity] runs, with
    # the first column extracted from that clump as a dict of free targets,
    # value -> row; the top node has none.  A parent is popped before its
    # children, so every row grows left to right.
    work = [(_runs(lam), eps, None)]
    while work:
        runs, eps, targets = work.pop()
        for clump in _clumps(runs):
            first_col, remainder = _majuscule_extract(clump, eps)
            placed = {}
            for value in first_col:
                if targets is None:
                    row = []
                    rows.append(row)
                else:
                    # the targets were extracted with the parent's rounding
                    # mode, -eps, so value attaches to value or value + eps
                    hits = [t for t in (value, value + eps) if t in targets]
                    if len(hits) != 1:
                        raise InternalConsistencyError(
                            f"entry {value} has {len(hits)} free attachment targets in "
                            f"{sorted(targets, reverse=True)}")
                    row = targets.pop(hits[0])
                row.append(value)
                placed[value] = row
            if remainder:
                work.append((remainder, -eps, placed))
    return rows


def alg_B(lam, eps: int = -1) -> WeightDiagram:
    """Build the right-hand diagram of the pair from a weakly decreasing weight."""
    eps = _check_eps(eps)
    return WeightDiagram._trusted(_alg_B(_check_dominant(lam), eps))


def gamma_inverse(lam) -> OmegaPair:
    """The inverse bijection: undo the column shift, then read off shape and row data."""
    X = e_inverse(WeightDiagram._trusted(_alg_B(_check_dominant(lam), -1)))
    return OmegaPair(shape_class(X), kappa(X))
