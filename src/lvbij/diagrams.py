"""Weight diagrams and the combinatorial maps on them.

A weight diagram is an ordered list of non-empty integer rows of possibly
unequal lengths; row order is significant and never normalized.  Column j
consists of the j-th entries of the rows long enough to reach it, read top
to bottom.  The `WeightDiagram` constructor and the helpers of `core` check
input; diagrams built from checked values skip that through `_trusted`.
"""

from itertools import groupby
from operator import add, neg
from typing import Iterable, NamedTuple, Sequence

from .core import (
    Partition,
    _check_bound,
    _column_heights,
    _dom,
    _int_tuple,
    _length_counts,
    _min_overlaps,
)

__all__ = [
    "WeightDiagram",
    "DiagramPair",
    "e_map",
    "e_inverse",
    "kappa",
    "h_weight",
    "eta",
    "shape_class",
    "truncate_columns",
    "concat",
    "is_distinguished",
    "render_diagram",
]


class WeightDiagram:
    """An ordered, left-justified filling by integers; rows may have unequal lengths."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable[int]]):
        rows = tuple(map(_int_tuple, rows))
        if not all(rows):
            raise ValueError("diagram rows must be non-empty")
        self.rows = rows

    @classmethod
    def _trusted(cls, rows: Iterable[Iterable[int]]) -> "WeightDiagram":
        # rows of plain ints, none empty, computed from validated values:
        # built without checking every entry again
        X = object.__new__(cls)
        X.rows = tuple(map(tuple, rows))
        return X

    def column(self, j: int) -> tuple[int, ...]:
        """Entries of column j (1-based), top to bottom."""
        j = _check_bound("column index", j, 1)
        return tuple(row[j - 1] for row in self.rows if len(row) >= j)

    def row_lengths(self) -> tuple[int, ...]:
        return tuple(len(row) for row in self.rows)

    def __eq__(self, other) -> bool:
        if isinstance(other, WeightDiagram):
            return self.rows == other.rows
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"WeightDiagram({[list(row) for row in self.rows]})"

    def __str__(self) -> str:
        return render_diagram(self)


class DiagramPair(NamedTuple):
    """A diagram together with its image under the column shift map."""

    left: WeightDiagram
    right: WeightDiagram


def _as_diagram(X) -> WeightDiagram:
    if isinstance(X, WeightDiagram):
        return X
    return WeightDiagram(X)


def shape_class(X) -> Partition:
    """Row lengths sorted in weakly decreasing order."""
    X = _as_diagram(X)
    if not X.rows:
        raise ValueError("the empty diagram has no shape-class")
    return Partition._trusted(sorted(X.row_lengths(), reverse=True))


def _shifted_rows(rows: Sequence[Sequence[int]], direction: int) -> list[tuple[int, ...]]:
    # the column shift, one pass over the boxes: shift[j] is what the next
    # entry of column j+1 moves by, direction * (height - 2 * position + 1),
    # so each row that reaches that column takes 2 * direction off it
    shift = [direction * (h - 1) for h in _column_heights(map(len, rows))]
    step = 2 * direction
    out = []
    for row in rows:
        out.append(tuple(map(add, row, shift)))
        shift[: len(row)] = [d - step for d in shift[: len(row)]]
    return out


def e_map(X) -> WeightDiagram:
    """Shift each column entry by (column height) - 2*(position) + 1."""
    return WeightDiagram._trusted(_shifted_rows(_as_diagram(X).rows, +1))


def e_inverse(Y) -> WeightDiagram:
    """Undo e_map; the shift depends only on the position, not the entry."""
    return WeightDiagram._trusted(_shifted_rows(_as_diagram(Y).rows, -1))


def kappa(X) -> tuple[int, ...]:
    """Row sums grouped by row length, each group sorted, groups by decreasing length.

    The result is dominant with respect to the shape-class.
    """
    X = _as_diagram(X)
    sums_by_length: dict[int, list[int]] = {}
    for row in X.rows:
        sums_by_length.setdefault(len(row), []).append(sum(row))
    return _kappa(sums_by_length)


def _kappa(sums_by_length: dict[int, list[int]]) -> tuple[int, ...]:
    out: list[int] = []
    for length in sorted(sums_by_length, reverse=True):
        out.extend(_dom(sums_by_length[length]))
    return tuple(out)


def _preimage_readout(rows: list[list[int]]) -> tuple[Partition, tuple[int, ...]]:
    # (shape_class(X), kappa(X)) for X = e_inverse(Y), read off the rows of Y
    # without building X.  e_inverse keeps the row lengths and takes
    # h_j - 1 - 2 * above_j off entry j of a row, with above_j (below_j) the
    # rows above (below) it that reach column j.  The row reaches column j,
    # so h_j = above_j + 1 + below_j, and the entry loses below_j - above_j.
    # Summed over the row's L columns, that is B - A, where A (B) is the sum
    # of min(L, L') over the rows above (below) it.  With T(L) the same sum
    # over all rows, the row itself included, B = T(L) - L - A, so the row
    # sum grows by 2 * A - T(L) + L.  A is read once per run of equal lengths
    # off the per-length counts of the rows above the run, and each further
    # row of the run has one more row of length L above it, so it grows by
    # 2 * L more.  O(runs * d) for d distinct lengths, besides the box sums.
    lengths = list(map(len, rows))
    overlaps = _min_overlaps(_length_counts(lengths))
    above: dict[int, int] = {}  # per length, the rows above the run
    sums_by_length: dict[int, list[int]] = {}
    start = 0
    for length, run in groupby(lengths):
        k, step = len(list(run)), 2 * length
        first = length - overlaps[length]  # what the run's first row gains
        for b, c in above.items():
            first += 2 * c * (b if b < length else length)
        sums_by_length.setdefault(length, []).extend(
            map(add, map(sum, rows[start : start + k]), range(first, first + step * k, step)))
        above[length] = above.get(length, 0) + k
        start += k
    return Partition._trusted(sorted(lengths, reverse=True)), _kappa(sums_by_length)


def h_weight(X) -> tuple[int, ...]:
    """Concatenation over columns of the sorted column entries."""
    X = _as_diagram(X)
    columns: list[list[int]] = [[] for _ in range(max(X.row_lengths(), default=0))]
    for row in X.rows:
        for column, v in zip(columns, row):
            column.append(v)
    return tuple(v for column in columns for v in _dom(column))


def eta(Y) -> tuple[int, ...]:
    """All entries sorted in weakly decreasing order."""
    Y = _as_diagram(Y)
    return _dom(v for row in Y.rows for v in row)


def truncate_columns(X, j: int) -> WeightDiagram:
    """Drop the leftmost j-1 columns, then drop the rows left empty."""
    X = _as_diagram(X)
    j = _check_bound("column index", j, 1)
    return WeightDiagram._trusted(row[j - 1 :] for row in X.rows if len(row) >= j)


def concat(*diagrams) -> WeightDiagram:
    """Stack diagrams top to bottom in argument order."""
    rows: list[tuple[int, ...]] = []
    for d in diagrams:
        rows.extend(_as_diagram(d).rows)
    return WeightDiagram._trusted(rows)


def _adjacent_steps_ok(rows: Sequence[Sequence[int]], eps: int) -> bool:
    # condition 1 of is_distinguished, eps = -1 for odd parity and +1 for even:
    # horizontal neighbours differ by 0 or eps*(-1)^(j+1), j the left column
    for row in rows:
        for j in range(1, len(row)):
            step = row[j] - row[j - 1]
            if step != 0 and step != (eps if j % 2 == 1 else -eps):
                return False
    return True


def _raisable_ok(rows: Iterable[Sequence[int]], odd: int) -> bool:
    # conditions 4 and 3 of is_distinguished, top down, with bottom[j] the
    # lowest entry of column j so far: every column gap is at least 2, and
    # an entry that tops its column (gap 3 stands for that) or sits more than
    # 2 below the one above has no entry to its right at least 2 above it,
    # nor, in a column with 0-based j % 2 == odd, one at least 1 above it
    # among those in such columns.  hi and same, the largest of those to the
    # right, start 2 below the row, where no entry of it can trip them.
    bottom: list[int] = []
    for row in rows:
        hi = same = min(row) - 2
        for j in reversed(range(len(row))):
            v = row[j]
            gap = bottom[j] - v if j < len(bottom) else 3
            if gap < 2 or gap > 2 and (hi >= v + 2 or j % 2 == odd and same >= v + 1):
                return False
            if v > hi:
                hi = v
            if j % 2 == odd and v > same:
                same = v
        bottom[: len(row)] = row
    return True


def is_distinguished(X, parity: str = "odd") -> bool:
    """Check the four-condition characterization of algorithm outputs.

    The conditions are read on Y = e_map(X).  `_adjacent_steps_ok` checks
    condition 1, and `_raisable_ok` checks conditions 4 and 3 top down: the
    column gaps, and what lies right of each raisable entry.  Condition 2 is
    condition 3 for lowerable entries, with the other column parity; it is
    condition 3 on the dual of Y, its rows reversed and entries negated:

    - The dual moves position p of a column of height h to h + 1 - p, and
      e_map's shift h - 2p + 1 changes sign under that move, so the dual
      commutes with e_map.
    - It keeps every column's gaps, so condition 4 holds on Y exactly when
      it holds on the dual, and it swaps raisable and lowerable entries.
    - Steps within a row change sign, so condition 1 turns odd into even.
    - The thresholds of conditions 2 and 3 change sign with the entries, and
      their column-parity clause lands on the other parity.

    So the even predicate of X is the odd one of its dual.
    """
    if parity not in ("odd", "even"):
        raise ValueError(f"parity must be 'odd' or 'even', got {parity!r}")
    rows = e_map(X).rows
    # lists: freed tuples here slowed later tuple-heavy calls by a few percent
    dual = [list(map(neg, row)) for row in reversed(rows)]
    if parity == "even":
        rows, dual = dual, rows
    return _adjacent_steps_ok(rows, -1) and _raisable_ok(rows, 0) and _raisable_ok(dual, 1)


def render_diagram(X) -> str:
    """One row per line, entries separated by single spaces."""
    X = _as_diagram(X)
    return "\n".join(" ".join(str(v) for v in row) for row in X.rows)

