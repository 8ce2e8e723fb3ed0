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

A level that empties no run leaves the same clump, so the next level, with
the opposite rounding mode -eps, extracts the same column F' from it, and the
level after that extracts F again.  The two attachments are maps by value:
F' -> F sends v to v or v - eps, and F -> F' sends v to v or v + eps.  They
are inverse bijections, because F has gaps of at least 2: whichever of v and
v + eps an entry v of F reaches in F', that entry can reach only v back.  So
from then on every placed row repeats its last two entries, and a run loses
one entry per level it is taken at.  Algorithm B follows a clump in place
while its levels empty no run.  After three such levels it runs, in one
step, as many two-level periods as leave every run non-empty; three, so
that both attachments of a period have run, with their checks, at full cost
once.  Besides the entries it appends, a level costs O(runs of its clump),
and so does a batch of periods, whatever their number.  A one-entry clump of
the input is a one-box row, with no extraction; an attachment is two lookups
in the parent's free targets.  The readout of `gamma_inverse` takes one
Python step per run of equal-length rows, plus sums over the boxes.  Inputs
are checked once, by `core._check_eps` and `_dominant_runs`, which yields
the runs.
"""

from itertools import chain, repeat

from .core import OmegaPair, _check_eps, _int_tuple, _runs
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
    # the [value, multiplicity] runs of a non-empty, weakly decreasing weight
    lam = _int_tuple(lam)
    if not lam:
        raise ValueError("the input weight must be non-empty")
    if list(lam) != sorted(lam, reverse=True):
        raise ValueError(f"the input weight must be weakly decreasing, got {list(lam)}")
    return _runs(lam)


def _expand(runs) -> tuple[int, ...]:
    return tuple(chain.from_iterable(repeat(v, m) for v, m in runs))


def clumps(lam) -> tuple[tuple[int, ...], ...]:
    """Split a weakly decreasing sequence at every gap of 2 or more."""
    return tuple(map(_expand, _clumps(_dominant_runs(lam))))


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
    rows: list[list[int]] = []
    # A node is the remainder of one clump as [value, multiplicity] runs, with
    # the first column extracted from that clump as a dict of free targets,
    # value -> row; the top node has none.  A parent is popped before its
    # children, so every row grows left to right.  A level that empties no
    # run leaves the same clump, which the next level takes on in place.
    work = [(runs, eps, None)]
    while work:
        runs, node_eps, node_targets = work.pop()
        for clump in _clumps(runs):
            if node_targets is None and len(clump) == 1 and clump[0][1] == 1:
                rows.append([clump[0][0]])  # all that a one-entry clump can give
                continue
            eps, targets, last_col, quiet = node_eps, node_targets, None, 0
            while True:
                first_col, remainder = _majuscule_extract(clump, eps)
                placed = {}
                for value in first_col:
                    if targets is None:
                        row = []
                        rows.append(row)
                    else:
                        # the targets were extracted with the parent's rounding
                        # mode, -eps, so value attaches to value or value + eps
                        hit = value in targets
                        if hit == (value + eps in targets):
                            raise InternalConsistencyError(
                                f"entry {value} has {2 if hit else 0} free attachment targets "
                                f"in {sorted(targets, reverse=True)}")
                        row = targets.pop(value if hit else value + eps)
                    row.append(value)
                    placed[value] = row
                if len(remainder) < len(clump):
                    if remainder:
                        work.append((remainder, -eps, placed))
                    break
                quiet += 1
                if quiet >= 3:
                    _repeat_periods(clump, first_col, last_col, placed)
                eps, targets, last_col = -eps, placed, first_col
    return rows


def _repeat_periods(clump: list[list[int]], first_col: list[int], last_col: list[int],
                    placed: dict[int, list[int]]) -> None:
    # The last three levels emptied no run, so the next two extract last_col
    # and first_col again and attach them as the last two did: each placed
    # row repeats its last two entries.  Run as many such periods as leave
    # every run non-empty; a period takes dec[v] (1 or 2) entries of value v.
    dec = dict.fromkeys(first_col, 1)
    for v in last_col:
        dec[v] = dec.get(v, 0) + 1
    k = min((m - 1) // dec[v] for v, m in clump if v in dec)
    if k:
        for run in clump:
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
