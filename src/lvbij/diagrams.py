"""Weight diagrams and the combinatorial maps on them.

A weight diagram is an ordered list of non-empty integer rows of possibly
unequal lengths; row order is significant and never normalized.  Column j
consists of the j-th entries of the rows long enough to reach it, read top
to bottom.
"""

from typing import Iterable, NamedTuple

from .core import Partition, dom, _check_int, _column_heights

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
    "parse_diagram",
]


class WeightDiagram:
    """An ordered, left-justified filling by integers; rows may have unequal lengths."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable[int]]):
        rows = tuple(tuple(_check_int(v) for v in row) for row in rows)
        for row in rows:
            if not row:
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
        if j < 1:
            raise ValueError(f"column index must be >= 1, got {j}")
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
    return Partition(sorted(X.row_lengths(), reverse=True))


def _apply_column_shift(X: WeightDiagram, direction: int) -> WeightDiagram:
    # one pass over the boxes: shift[j] is what the next entry of column j+1
    # moves by, direction * (height - 2 * position + 1), so each row that
    # reaches that column takes 2 * direction off it
    heights = _column_heights(X.row_lengths())
    shift = [direction * (h - 1) for h in heights]
    step = 2 * direction
    rows = []
    for row in X.rows:
        rows.append([v + d for v, d in zip(row, shift)])
        shift[: len(row)] = [d - step for d in shift[: len(row)]]
    return WeightDiagram._trusted(rows)


def e_map(X) -> WeightDiagram:
    """Shift each column entry by (column height) - 2*(position) + 1."""
    return _apply_column_shift(_as_diagram(X), +1)


def e_inverse(Y) -> WeightDiagram:
    """Undo e_map; the shift depends only on the position, not the entry."""
    return _apply_column_shift(_as_diagram(Y), -1)


def kappa(X) -> tuple[int, ...]:
    """Row sums grouped by row length, each group sorted, groups by decreasing length.

    The result is dominant with respect to the shape-class.
    """
    X = _as_diagram(X)
    sums_by_length: dict[int, list[int]] = {}
    for row in X.rows:
        sums_by_length.setdefault(len(row), []).append(sum(row))
    out: list[int] = []
    for length in sorted(sums_by_length, reverse=True):
        out.extend(dom(sums_by_length[length]))
    return tuple(out)


def h_weight(X) -> tuple[int, ...]:
    """Concatenation over columns of the sorted column entries."""
    X = _as_diagram(X)
    out: list[int] = []
    for j in range(1, max(X.row_lengths(), default=0) + 1):
        out.extend(dom(X.column(j)))
    return tuple(out)


def eta(Y) -> tuple[int, ...]:
    """All entries sorted in weakly decreasing order."""
    Y = _as_diagram(Y)
    return dom(v for row in Y.rows for v in row)


def truncate_columns(X, j: int) -> WeightDiagram:
    """Drop the leftmost j-1 columns, then drop the rows left empty."""
    X = _as_diagram(X)
    _check_int(j)
    if j < 1:
        raise ValueError(f"column index must be >= 1, got {j}")
    return WeightDiagram(row[j - 1 :] for row in X.rows if len(row) >= j)


def concat(*diagrams) -> WeightDiagram:
    """Stack diagrams top to bottom in argument order."""
    rows: list[tuple[int, ...]] = []
    for d in diagrams:
        rows.extend(_as_diagram(d).rows)
    return WeightDiagram(rows)


def _adjacent_steps_ok(Y: WeightDiagram, eps: int) -> bool:
    # condition 1 of is_distinguished, eps = -1 for odd parity and +1 for even:
    # horizontal neighbours differ by 0 or eps*(-1)^(j+1), j the left column
    for row in Y.rows:
        for j in range(1, len(row)):
            step = row[j] - row[j - 1]
            if step != 0 and step != (eps if j % 2 == 1 else -eps):
                return False
    return True


def is_distinguished(X, parity: str = "odd") -> bool:
    """Check the four-condition characterization of algorithm outputs.

    Both parities share the implementation; they differ in the sign pattern
    allowed between horizontal neighbours and in which column-parity pair
    forbids a raisable (resp. lowerable) entry.  One pass down the columns
    of Y = e_map(X) checks the gaps and marks which entries are raisable or
    lowerable; one right-to-left pass per row then checks each entry against
    the extremes of the entries to its right.
    """
    if parity not in ("odd", "even"):
        raise ValueError(f"parity must be 'odd' or 'even', got {parity!r}")
    X = _as_diagram(X)
    Y = e_map(X)
    rows = Y.rows

    # condition 4: strict descent by at least 2 down every column; an entry
    # is raisable (lowerable) iff it tops (ends) its column or the gap to the
    # entry above (below) it exceeds 2
    raisable = [[True] * len(row) for row in rows]
    lowerable = [[True] * len(row) for row in rows]
    lowest: list[int] = []  # per column, the row of its lowest entry so far
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if j == len(lowest):
                lowest.append(i)
                continue
            k = lowest[j]
            gap = rows[k][j] - v
            if gap < 2:
                return False
            raisable[i][j] = lowerable[k][j] = gap > 2
            lowest[j] = i

    if not _adjacent_steps_ok(Y, -1 if parity == "odd" else 1):
        return False

    # conditions 3 and 2: no raisable entry has an entry to its right at least
    # 2 above it, nor, in the raising column parity, a same-parity one at
    # least 1 above it; the same for lowerable entries, below and with the
    # other column parity.  hi/lo range over all entries to the right, and
    # same_hi/same_lo over those in columns of each parity.
    raise_parity = 0 if parity == "odd" else 1  # 0-based j % 2 of the raising columns
    inf = float("inf")
    for row, up, down in zip(rows, raisable, lowerable):
        hi, lo = -inf, inf
        same_hi, same_lo = [-inf, -inf], [inf, inf]
        for j in reversed(range(len(row))):
            v, p = row[j], j % 2
            if up[j] and (hi >= v + 2 or (p == raise_parity and same_hi[p] >= v + 1)):
                return False
            if down[j] and (lo <= v - 2 or (p != raise_parity and same_lo[p] <= v - 1)):
                return False
            hi, lo = max(hi, v), min(lo, v)
            same_hi[p], same_lo[p] = max(same_hi[p], v), min(same_lo[p], v)
    return True


def render_diagram(X) -> str:
    """One row per line, entries separated by single spaces."""
    X = _as_diagram(X)
    return "\n".join(" ".join(str(v) for v in row) for row in X.rows)


def parse_diagram(text: str) -> WeightDiagram:
    """Parse the render_diagram format; an empty string is the empty diagram."""
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            raise ValueError("blank line inside diagram text")
        rows.append([int(tok) for tok in line.split()])
    return WeightDiagram(rows)
