"""Weight diagrams and the combinatorial maps on them.

A weight diagram is an ordered list of non-empty integer rows of possibly
unequal lengths; row order is significant and never normalized.  Column j
consists of the j-th entries of the rows long enough to reach it, read top
to bottom.
"""

from typing import Iterable, NamedTuple

from .core import Partition, dom, _check_int

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

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def n_boxes(self) -> int:
        return sum(len(row) for row in self.rows)

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


def _column_heights(X: WeightDiagram) -> list[int]:
    # height of column j = number of rows with at least j boxes
    lengths = X.row_lengths()
    s = max(lengths, default=0)
    return [sum(1 for le in lengths if le >= j) for j in range(1, s + 1)]


def _apply_column_shift(X: WeightDiagram, direction: int) -> WeightDiagram:
    heights = _column_heights(X)
    rows = [list(row) for row in X.rows]
    for j, h in enumerate(heights, start=1):
        i = 0
        for row in rows:
            if len(row) >= j:
                i += 1
                row[j - 1] += direction * (h - 2 * i + 1)
    return WeightDiagram(rows)


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


def _column_positions(Y: WeightDiagram) -> dict[tuple[int, int], int]:
    # (row index, column) -> position of that entry within its column, all 1-based
    positions = {}
    counts = [0] * (max(Y.row_lengths(), default=0) + 1)
    for i, row in enumerate(Y.rows, start=1):
        for j in range(1, len(row) + 1):
            counts[j] += 1
            positions[(i, j)] = counts[j]
    return positions


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
    forbids a raisable (resp. lowerable) entry.
    """
    if parity not in ("odd", "even"):
        raise ValueError(f"parity must be 'odd' or 'even', got {parity!r}")
    X = _as_diagram(X)
    Y = e_map(X)
    heights = _column_heights(Y)
    columns = [Y.column(j) for j in range(1, len(heights) + 1)]

    # condition 4: strict descent by at least 2 down every column
    for col in columns:
        for a, b in zip(col, col[1:]):
            if a - b < 2:
                return False

    if not _adjacent_steps_ok(Y, -1 if parity == "odd" else 1):
        return False

    positions = _column_positions(Y)

    def raisable(i: int, j: int) -> bool:
        p = positions[(i, j)]
        return p == 1 or columns[j - 1][p - 2] > columns[j - 1][p - 1] + 2

    def lowerable(i: int, j: int) -> bool:
        p = positions[(i, j)]
        return p == heights[j - 1] or columns[j - 1][p] < columns[j - 1][p - 1] - 2

    raise_parity = 1 if parity == "odd" else 0  # j % 2 for the raisable half of condition 2
    for i, row in enumerate(Y.rows, start=1):
        for j in range(1, len(row) + 1):
            for jp in range(j + 1, len(row) + 1):
                vj, vjp = row[j - 1], row[jp - 1]
                # condition 3
                if vj <= vjp - 2 and raisable(i, j):
                    return False
                if vj >= vjp + 2 and lowerable(i, j):
                    return False
                # condition 2
                if j % 2 == jp % 2:
                    if j % 2 == raise_parity:
                        if vj <= vjp - 1 and raisable(i, j):
                            return False
                    else:
                        if vj >= vjp + 1 and lowerable(i, j):
                            return False
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
