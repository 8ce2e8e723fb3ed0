"""Weight-diagrams form of the forward map.

A node of Algorithm W is one pass over its positions, grouped by iota: it
fills the first column of its rows in the right output diagram Y, cuts the
surviving rows into branches (one per distinct first-column entry), corrects
each branch's residual input for the other branches, and hands each branch
on, with the opposite rounding mode, to fill the next columns of the same
rows; `branch_plan` is the public view of one node, the record it hands on.
The left diagram is the column-shift preimage of Y, X = e_inverse(Y).  Input
is checked with the helpers of `core`, and the nodes trust it.

A node's block of X is its iota shifted by one constant.  The rows of a
node at column j form a contiguous block of that column, in position
order: the top node holds every row, a branch is a run of its node's
positions, and a row that drops out of a node reaches no further column.
Let A and B count the rows of column j above and below the block, so the
column has height h = A + ell + B.  Row p of the node (p = 0, 1, ...) gets
the Y entry iota_p + ell - 2p - 1, and e_inverse takes h - 2(A + p) - 1
off the entry at position A + p of the column, which leaves iota_p + A - B.
At the top node A = B = 0, so the first column of X is iota itself.
`tests/test_diagram_algorithm.py` pins the identity at every node.

A node hands on only its fed branches, those that carry a row of length
> 1.  A branch with no such row adds nothing to the correction's counts
`total` and `before`, and has no row to correct.  With one fed branch,
`total` is its own count and `before` is 0, so every weight
c - 2*before - own is 0, and so is every shift: the correction runs only
when two or more branches are fed.

A branch of one row needs no node per column.  A node of one row (a, N)
with mode eps has no overlaps and ranks nothing: it fills ceil(N/a) for
eps = -1 and floor(N/a) for eps = +1, its column offset ell - 2p - 1 is 0,
and it hands on (a - 1, N - that entry) with -eps.  So the row's entries
alternate the two roundings.  With N = q*a + r, 0 <= r < a and
m = min(r, a - r), they are

    [q+1, q]*m + [q+1]*(r - m) + [q]*(a - r - m)    for eps = -1,
    [q, q+1]*m + [q+1]*(r - m) + [q]*(a - r - m)    for eps = +1,

by induction on a.  If a = 1, then r = 0 and the one entry is q.  Else, for
eps = -1 and r = 0 the first entry is q and the rest is the eps = +1 split
of (q, 0) over a - 1, all q.  For eps = -1 and r > 0 the first entry is
q + 1 and the rest is the eps = +1 split of (q, r - 1) over a - 1, whose
m' = min(r - 1, a - r) is r - 1 when r <= a - r and a - r otherwise; in both
cases q + 1 followed by it is the claim.  For eps = +1 the first entry is q
and leaves q*(a - 1) + r.  If r = a - 1 that is (q + 1)*(a - 1), all q + 1,
which the claim (m = 1) puts after q.  If r < a - 1 the rest is the
eps = -1 split of (q, r) over a - 1, whose m' is r when r < a - r and
a - 1 - r otherwise, and q followed by it is again the claim.  So `_alg_W`
appends a one-row branch's whole row of Y in one step.
"""

from dataclasses import dataclass
from typing import Sequence

from .core import (
    validate_omega_pair,
    _check_eps,
    _check_permutation,
    _check_rows,
    _inverse_permutation,
    _length_counts,
    _min_overlaps,
    _shown,
)
from .diagrams import DiagramPair, WeightDiagram, e_inverse, eta
from .seq_algorithm import _rank_and_fill

__all__ = [
    "BranchPlan",
    "row_survival",
    "branch_plan",
    "alg_W",
    "gamma_via_diagrams",
]


def row_survival(alpha, sigma, iota) -> tuple[tuple[int, int], ...]:
    """Branch and branch position for each position of sigma; 0 marks a non-survivor.

    Entry i is for the row at position i of sigma, not row i: branch x = number
    of distinct iota values among the first i entries; it survives iff its
    length exceeds 1, and its position counts the survivors of its branch so far.
    """
    alpha, iota = _check_rows(alpha, iota, "iota")
    if any(iota[i] < iota[i + 1] for i in range(len(iota) - 1)):
        raise ValueError(f"iota must be weakly decreasing, got {_shown(iota)}")
    at = _check_permutation(sigma, len(alpha))
    out = []
    branch = pos = 0
    for p, value in enumerate(iota):
        if p == 0 or value != iota[p - 1]:
            branch, pos = branch + 1, 0
        survives = alpha[at[p]] > 1
        pos += survives
        out.append((branch, pos if survives else 0))
    return tuple(out)


@dataclass(frozen=True)
class BranchPlan:
    """One node of Algorithm W: sigma, iota and, per fed branch in position
    order, what it hands on.  The runs of iota are all the branches."""

    sigma: tuple[int, ...]
    iota: tuple[int, ...]
    # per fed branch: its positions 1, 2, ..., which are rows of Y, not input row indices
    survivor_rows: tuple[tuple[int, ...], ...]
    sub_alpha: tuple[tuple[int, ...], ...]
    sub_nu_hat: tuple[tuple[int, ...], ...]  # nu - iota, corrected across branches


def branch_plan(alpha, nu, eps: int = -1) -> BranchPlan:
    """Rank and fill the first column, then sort the surviving rows into branches."""
    eps = _check_eps(eps)
    alpha, nu = _check_rows(alpha, nu)
    # the node's rows of Y are its own positions here, so Y is thrown away
    iota, at, fed = _node(alpha, nu, eps, range(len(alpha)), [[] for _ in alpha])
    return BranchPlan(_inverse_permutation(at), iota,
                      tuple(tuple(p + 1 for p in rows) for _, _, rows in fed),
                      tuple(tuple(a) for a, _, _ in fed), tuple(tuple(v) for _, v, _ in fed))


def _node(alpha: Sequence[int], nu: Sequence[int], eps: int, rows: Sequence[int],
          y_rows: list[list[int]]) -> tuple[tuple[int, ...], list[int], list]:
    # One node of Algorithm W: rank and fill the first column, append it to
    # the node's rows of Y (row p of ell gets its entry plus ell - 2p - 1),
    # and cut the surviving rows into runs of equal iota, one fed branch each
    # (module docstring).  Returns iota, the pick order and, per fed branch,
    # its rows' lengths, corrected nu and rows of Y, in position order.
    ell = len(alpha)
    iota, at = _rank_and_fill(eps, alpha, nu)
    branches = []
    last = None
    for p, (j, r) in enumerate(zip(at, rows)):
        value = iota[p]
        y_rows[r].append(value + ell - 2 * p - 1)
        a = alpha[j]
        if a > 1:
            if value != last:
                last = value
                sub_alpha, sub_nu, sub_rows = branch = ([], [], [])
                branches.append(branch)
            sub_alpha.append(a - 1)
            sub_nu.append(nu[j] - value)
            sub_rows.append(r)
    if len(branches) > 1:
        # a row of length a in branch x loses min(a, b) for each row b of the
        # branches before x and gains it for each row of the branches after x;
        # rows of equal length in one branch share this, so it is summed over
        # per-branch length counts with running prefix counts
        total = _length_counts(a for sub_alpha, _, _ in branches for a in sub_alpha)
        before = dict.fromkeys(total, 0)
        for sub_alpha, sub_nu, _ in branches:
            own = _length_counts(sub_alpha)
            # per length b: rows after x minus rows before x
            shift = _min_overlaps({b: c - 2 * before[b] - own.get(b, 0) for b, c in total.items()})
            sub_nu[:] = [v + shift[a] for a, v in zip(sub_alpha, sub_nu)]
            for b, c in own.items():
                before[b] += c
    return iota, at, branches


def _alternating_split(a: int, n: int, eps: int) -> list[int]:
    # the entries of one row (a, n) that nodes of alternating mode fill,
    # starting with eps (module docstring)
    q, r = divmod(n, a)
    m = min(r, a - r)
    pair = [q + 1, q] if eps == -1 else [q, q + 1]
    return pair * m + [q + 1] * (r - m) + [q] * (a - r - m)


def _alg_W(alpha: tuple[int, ...], nu: tuple[int, ...], eps: int) -> list[list[int]]:
    y_rows: list[list[int]] = [[] for _ in alpha]
    # A work item is one branch input with the row of Y of each of its rows,
    # in position order.  A parent is popped before its children, so every
    # row grows left to right.
    work = [(alpha, nu, eps, range(len(alpha)))]
    while work:
        sub_alpha, sub_nu, sub_eps, rows = work.pop()
        if len(rows) == 1:
            y_rows[rows[0]] += _alternating_split(sub_alpha[0], sub_nu[0], sub_eps)
            continue
        for alpha_x, nu_x, rows_x in _node(sub_alpha, sub_nu, sub_eps, rows, y_rows)[2]:
            work.append((alpha_x, nu_x, -sub_eps, rows_x))

    if __debug__:
        # a branch may arrange its own rows freely, so only the multiset of
        # row lengths is pinned down
        assert sorted(len(r) for r in y_rows) == sorted(alpha), "wrong shape-class"
    return y_rows


def alg_W(alpha, nu, eps: int = -1) -> DiagramPair:
    """Build the diagram pair for any positive row lengths (in any order).

    The left diagram has shape-class dom(alpha); the right diagram is its
    image under the column shift map.
    """
    eps = _check_eps(eps)
    alpha, nu = _check_rows(alpha, nu)
    Y = WeightDiagram._trusted(_alg_W(alpha, nu, eps))
    return DiagramPair(e_inverse(Y), Y)


def gamma_via_diagrams(alpha, nu) -> tuple[int, ...]:
    """The forward bijection read off the right output diagram."""
    alpha, nu = validate_omega_pair(alpha, nu)
    return eta(WeightDiagram._trusted(_alg_W(alpha.parts, nu, -1)))
