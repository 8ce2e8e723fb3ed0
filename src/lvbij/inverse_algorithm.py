"""Inverse of the bijection, built one level at a time.

A weakly decreasing weight splits into clumps (maximal runs with adjacent
gaps at most 1).  From each clump a maximal-length subsequence with gaps at
least 2 becomes the first column of a diagram; the rest of the clump is
handled the same way with the opposite anchoring, and each first-column entry
it yields attaches to the unique entry of its parent clump's first column
within distance 1 on the prescribed side.  The extraction takes at most one
entry of each value, and every value between a clump's ends occurs in it, so
the remainder is kept as [value, multiplicity] runs, and entries attach by
value.

A level is one greedy scan of the whole remainder.  Clumps are at least 2
apart, so the scan takes each clump's anchor (its top entry for eps = -1, its
bottom entry for eps = +1), which is at least 2 from the last entry taken,
and with it exactly the union of the clumps' own columns.  For the same
reason an entry v of a sub-clump of a clump C has its candidate targets v and
v + eps in [min C - 1, max C + 1], where no other clump's column has a value:
the union of the previous level's columns gives the same attachment, or the
same 0 or 2 free targets, as C's column alone.

A level that empties no run leaves the same clumps, so the next level, with
the opposite rounding mode -eps, extracts the same column F' from them, and
the level after that extracts F again.  The attachments F' -> F (v to v or
v - eps) and F -> F' (v to v or v + eps) are inverse bijections, because F
has gaps of at least 2: whichever of v and v + eps an entry v of F reaches in
F', that entry can reach only v back.  So every placed row now repeats its
last two entries.  After three levels in a row that empty no run (so that
both attachments have run, with their checks, at full cost), one step runs as
many of these periods as leave every run of the remainder non-empty.  Besides
the entries it appends, a level costs O(runs left), and so does a batch of
periods, whatever their number.  Inputs are checked once, by
`core._check_eps` and `_dominant_runs`, which yields the runs.
"""

from itertools import chain, groupby, repeat

from .core import OmegaPair, _check_eps, _int_tuple, _shown
from .diagrams import WeightDiagram, _preimage_readout

__all__ = [
    "InternalConsistencyError",
    "clumps",
    "majuscule_extract",
    "alg_B",
    "gamma_inverse",
]


class InternalConsistencyError(RuntimeError):
    """An invariant the construction relies on failed to hold."""


def _dominant_runs(lam) -> list[list[int]]:
    # the [value, multiplicity] runs of a non-empty, weakly decreasing weight;
    # the same pass checks the order, since the weight is weakly decreasing
    # if and only if no run's value exceeds the one before
    lam = _int_tuple(lam)
    if not lam:
        raise ValueError("the input weight must be non-empty")
    runs: list[list[int]] = []
    last = lam[0]
    for v, run in groupby(lam):
        if v > last:
            raise ValueError(f"the input weight must be weakly decreasing, got {_shown(lam)}")
        last = v
        runs.append([v, len(list(run))])
    return runs


def _expand(runs) -> tuple[int, ...]:
    return tuple(chain.from_iterable(repeat(v, m) for v, m in runs))


def clumps(lam) -> tuple[tuple[int, ...], ...]:
    """Split a weakly decreasing sequence at every gap of 2 or more."""
    out: list[list[list[int]]] = []
    for run in _dominant_runs(lam):
        if out and out[-1][-1][0] - run[0] < 2:
            out[-1].append(run)
        else:
            out.append([run])
    return tuple(map(_expand, out))


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
    taken, remainder = _majuscule_extract(_dominant_runs(clump), eps)
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


def _alg_B(runs: list[list[int]], eps: int) -> list[list[int]]:
    # one iteration per level; placed is the level's column as free targets,
    # value -> row, for the next level, and the top level starts a row per entry
    rows: list[list[int]] = []
    placed, quiet = None, 0
    while runs:
        first_col, remainder = _majuscule_extract(runs, eps)
        targets, placed = placed, {}
        for value in first_col:
            if targets is None:
                row = []
                rows.append(row)
            else:
                # the targets were extracted with the previous rounding mode,
                # -eps, so value attaches to value or value + eps
                hit = value in targets
                if hit == (value + eps in targets):
                    raise InternalConsistencyError(
                        f"entry {_shown(value)} has {2 if hit else 0} free attachment targets "
                        f"in {_shown(sorted(targets, reverse=True))}")
                row = targets.pop(value if hit else value + eps)
            row.append(value)
            placed[value] = row
        if len(remainder) < len(runs):
            quiet = 0
        else:
            quiet += 1
            if quiet >= 3:
                _repeat_periods(remainder, placed)
        runs, eps = remainder, -eps
    return rows


def _repeat_periods(runs: list[list[int]], placed: dict[int, list[int]]) -> None:
    # the last three levels emptied no run, so each placed row repeats its
    # last two entries; run as many such periods as leave every run non-empty,
    # a period taking dec[v] (1 or 2) entries of value v
    dec: dict[int, int] = {}
    for row in placed.values():
        for v in row[-2:]:
            dec[v] = dec.get(v, 0) + 1
    k = min((m - 1) // dec[v] for v, m in runs if v in dec)
    if k:
        for run in runs:
            run[1] -= k * dec.get(run[0], 0)
        for row in placed.values():
            row.extend(row[-2:] * k)


def alg_B(lam, eps: int = -1) -> WeightDiagram:
    """Build the right-hand diagram of the pair from a weakly decreasing weight."""
    eps = _check_eps(eps)
    return WeightDiagram._trusted(_alg_B(_dominant_runs(lam), eps))


def gamma_inverse(lam) -> OmegaPair:
    """The inverse bijection: the shape and row data of the un-shifted diagram.

    Both are read off the right diagram's row lengths and row sums, so the
    un-shifted diagram itself is never built.
    """
    return OmegaPair(*_preimage_readout(_alg_B(_dominant_runs(lam), -1)))
