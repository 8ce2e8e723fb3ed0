"""Weight-diagrams form of the forward map.

Each node of Algorithm W fills the first column of its rows in both output
diagrams, splits its surviving rows into branches (one per distinct
first-column entry), adjusts each branch's residual input to account for the
other branches, and hands each branch on, with the opposite rounding mode, to
fill the next columns of the same rows.
"""

from dataclasses import dataclass

from .core import validate_omega_pair, _int_tuple
from .diagrams import DiagramPair, WeightDiagram, eta
from .seq_algorithm import (
    _check_eps,
    _check_permutation,
    _check_rows,
    _column_seq,
    _inverse_permutation,
    _ranking,
)

__all__ = [
    "BranchPlan",
    "row_survival",
    "branch_plan",
    "alg_W",
    "gamma_via_diagrams",
]


def row_survival(alpha, sigma, iota) -> tuple[tuple[int, int], ...]:
    """Branch and position of each row; position 0 marks a non-surviving row.

    Row i goes to branch x = number of distinct iota values among the first i
    entries; it survives iff its length exceeds 1, and its position counts the
    surviving rows with the same iota value so far.
    """
    alpha = _int_tuple(alpha)
    iota = _int_tuple(iota)
    if any(iota[i] < iota[i + 1] for i in range(len(iota) - 1)):
        raise ValueError(f"iota must be weakly decreasing, got {list(iota)}")
    if len(alpha) != len(iota):
        raise ValueError("alpha and iota must have equal length")
    sigma = _check_permutation(sigma, len(alpha))
    return _row_survival(alpha, _inverse_permutation(sigma), iota)


def _row_survival(alpha: tuple[int, ...], inv: tuple[int, ...],
                  iota: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    out = []
    branch = 0
    survivors_in_branch = 0
    for i, value in enumerate(iota, start=1):
        if i == 1 or value != iota[i - 2]:
            branch += 1
            survivors_in_branch = 0
        if alpha[inv[i - 1] - 1] > 1:
            survivors_in_branch += 1
            out.append((branch, survivors_in_branch))
        else:
            out.append((branch, 0))
    return tuple(out)


@dataclass(frozen=True)
class BranchPlan:
    """Everything one node of Algorithm W decides before handing on its branches."""

    sigma: tuple[int, ...]
    iota: tuple[int, ...]
    assignments: tuple[tuple[int, int], ...]  # row_survival output, per top-level row
    k: int  # number of branches, empty ones included
    survivor_rows: tuple[tuple[int, ...], ...]  # per branch: top-level rows, in position order
    sub_alpha: tuple[tuple[int, ...], ...]
    sub_nu: tuple[tuple[int, ...], ...]
    sub_nu_hat: tuple[tuple[int, ...], ...]  # sub_nu with the cross-branch correction
    total_counts: tuple[int, ...]  # per branch: count of all rows, surviving or not


def branch_plan(alpha, nu, eps: int = -1) -> BranchPlan:
    """Rank and fill the first column, then sort the surviving rows into branches."""
    eps = _check_eps(eps)
    alpha, nu = _check_rows(alpha, nu)
    return _branch_plan(alpha, nu, eps)


def _branch_plan(alpha: tuple[int, ...], nu: tuple[int, ...], eps: int) -> BranchPlan:
    sigma = _ranking(eps, alpha, nu)
    inv = _inverse_permutation(sigma)
    iota = _column_seq(eps, alpha, nu, sigma)
    assignments = _row_survival(alpha, inv, iota)
    k = len(set(iota))

    survivor_rows: list[list[int]] = [[] for _ in range(k)]
    total_counts = [0] * k
    seen = set()
    for i, (x, pos) in enumerate(assignments, start=1):
        total_counts[x - 1] += 1
        if pos > 0:
            if (x, pos) in seen:
                raise AssertionError(f"row assignment ({x}, {pos}) is not injective")
            seen.add((x, pos))
            survivor_rows[x - 1].append(i)

    sub_alpha = [
        tuple(alpha[inv[i - 1] - 1] - 1 for i in rows) for rows in survivor_rows
    ]
    sub_nu = [
        tuple(nu[inv[i - 1] - 1] - iota[i - 1] for i in rows) for rows in survivor_rows
    ]
    sub_nu_hat = []
    for x in range(k):
        corrected = []
        for a, v in zip(sub_alpha[x], sub_nu[x]):
            v -= sum(min(a, b) for xp in range(x) for b in sub_alpha[xp])
            v += sum(min(a, b) for xp in range(x + 1, k) for b in sub_alpha[xp])
            corrected.append(v)
        sub_nu_hat.append(tuple(corrected))

    return BranchPlan(
        sigma=sigma,
        iota=iota,
        assignments=assignments,
        k=k,
        survivor_rows=tuple(tuple(rows) for rows in survivor_rows),
        sub_alpha=tuple(sub_alpha),
        sub_nu=tuple(sub_nu),
        sub_nu_hat=tuple(sub_nu_hat),
        total_counts=tuple(total_counts),
    )


def _column_counts(alpha: tuple[int, ...]) -> list[int]:
    # entry j-1 counts the rows reaching column j
    return [sum(1 for a in alpha if a >= j) for j in range(1, max(alpha, default=0) + 1)]


def _alg_W(alpha: tuple[int, ...], nu: tuple[int, ...], eps: int) -> tuple[list[list[int]], list[list[int]]]:
    x_rows: list[list[int]] = [[] for _ in alpha]
    y_rows: list[list[int]] = [[] for _ in alpha]
    # A node is one branch input, with the top-level index of each of its rows
    # in position order, and the offset that its left-diagram column c gets
    # from the branches beside its ancestors, held as offsets[shift + c].  A
    # parent is popped before its children, so every row grows left to right.
    work = [(alpha, nu, eps, range(len(alpha)), [0] * max(alpha), 0)]
    while work:
        sub_alpha, sub_nu, sub_eps, rows, offsets, shift = work.pop()
        ell = len(sub_alpha)
        plan = _branch_plan(sub_alpha, sub_nu, sub_eps)
        for p, (r, value) in enumerate(zip(rows, plan.iota)):
            x_rows[r].append(value + offsets[shift])
            y_rows[r].append(value + ell - 2 * p - 1)
        if plan.k == 1:
            branch_offsets = [(offsets, shift + 1)]
        else:
            # column c of branch x is shifted by the rows the other branches
            # have in that column: up for those before x, down for those after
            stars = [_column_counts(sub) for sub in plan.sub_alpha]
            totals = _column_counts(tuple(a for sub in plan.sub_alpha for a in sub))
            before = [0] * len(totals)
            branch_offsets = []
            for star in stars:
                branch_offsets.append(([
                    offsets[shift + 1 + c] + 2 * before[c] + h - totals[c]
                    for c, h in enumerate(star)
                ], 0))
                for c, h in enumerate(star):
                    before[c] += h
        for x, (child_offsets, child_shift) in enumerate(branch_offsets):
            if plan.survivor_rows[x]:
                child_rows = [rows[i - 1] for i in plan.survivor_rows[x]]
                work.append((plan.sub_alpha[x], plan.sub_nu_hat[x], -sub_eps, child_rows,
                             child_offsets, child_shift))

    if __debug__:
        # a branch may arrange its own rows freely, so only the multiset of
        # row lengths is pinned down
        assert sorted(len(r) for r in x_rows) == sorted(alpha), "wrong shape-class"
    return x_rows, y_rows


def alg_W(alpha, nu, eps: int = -1) -> DiagramPair:
    """Build the diagram pair for any positive row lengths (in any order).

    The left diagram has shape-class dom(alpha); the right diagram is its
    image under the column shift map.
    """
    eps = _check_eps(eps)
    alpha, nu = _check_rows(alpha, nu)
    x_rows, y_rows = _alg_W(alpha, nu, eps)
    return DiagramPair(WeightDiagram(x_rows), WeightDiagram(y_rows))


def gamma_via_diagrams(alpha, nu) -> tuple[int, ...]:
    """The forward bijection read off the right output diagram."""
    alpha, nu = validate_omega_pair(alpha, nu)
    _, y_rows = _alg_W(alpha.parts, nu, -1)
    return eta(y_rows)
