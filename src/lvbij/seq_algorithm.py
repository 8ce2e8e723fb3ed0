"""Integer-sequences form of the forward map.

The output weight is assembled column block by column block: a ranking
function orders the rows, a column function chooses the entries of the
current block, and the residual input is reduced and fed back in.  The
forward bijection is the dominant rearrangement of the result plus the
doubled half-sum of positive roots.
"""

from typing import Iterable, NamedTuple, Sequence

from .core import (
    as_partition,
    dom,
    two_rho,
    validate_omega_pair,
    _check_int,
    _int_tuple,
)

__all__ = [
    "Stage",
    "candidate",
    "ranking",
    "column_seq",
    "alg_A",
    "alg_A_stages",
    "gamma_forward",
]


def _ceil_div(a: int, b: int) -> int:
    # mathematical ceiling for b > 0, e.g. ceil(-3/2) = -1
    return -((-a) // b)


def _check_eps(eps) -> int:
    eps = _check_int(eps)
    if eps not in (-1, 1):
        raise ValueError(f"eps must be -1 or 1, got {eps!r}")
    return eps


def _check_rows(alpha, nu) -> tuple[tuple[int, ...], tuple[int, ...]]:
    alpha = _int_tuple(alpha)
    nu = _int_tuple(nu)
    if not alpha:
        raise ValueError("empty input: at least one row is required")
    if len(alpha) != len(nu):
        raise ValueError(f"alpha and nu must have equal length, got {len(alpha)} and {len(nu)}")
    for a in alpha:
        if a < 1:
            raise ValueError(f"row lengths must be positive, got {a}")
    return alpha, nu


def _check_permutation(sigma, ell: int) -> tuple[int, ...]:
    sigma = _int_tuple(sigma)
    if sorted(sigma) != list(range(1, ell + 1)):
        raise ValueError(f"not a permutation of 1..{ell}: {list(sigma)}")
    return sigma


def _inverse_permutation(sigma: tuple[int, ...]) -> tuple[int, ...]:
    # one-line notation, 1-based values
    inv = [0] * len(sigma)
    for i, p in enumerate(sigma, start=1):
        inv[p - 1] = i
    return tuple(inv)


def candidate(eps: int, alpha: Sequence[int], nu: Sequence[int], i: int,
              Ia: Iterable[int], Ib: Iterable[int]) -> int:
    """Candidate bound for row i given the rows ranked before (Ia) and after (Ib).

    Averages what is left of nu[i] after subtracting overlaps with earlier rows
    and adding overlaps with later rows; eps = -1 rounds up, eps = +1 rounds down.
    """
    eps = _check_eps(eps)
    alpha, nu = _check_rows(alpha, nu)
    ell = len(alpha)
    i = _check_int(i)
    if not 1 <= i <= ell:
        raise ValueError(f"row index {i} out of range 1..{ell}")
    Ia = frozenset(_check_int(j) for j in Ia)
    Ib = frozenset(_check_int(j) for j in Ib)
    if Ia & Ib or (Ia | Ib) != frozenset(range(1, ell + 1)) - {i}:
        raise ValueError("Ia and Ib must be disjoint and cover all rows other than i")
    ai = alpha[i - 1]
    numer = nu[i - 1]
    numer -= sum(min(ai, alpha[j - 1]) for j in Ia)
    numer += sum(min(ai, alpha[j - 1]) for j in Ib)
    return _ceil_div(numer, ai) if eps == -1 else numer // ai


def _overlap_totals(alpha: tuple[int, ...]) -> list[int]:
    # M[j] = sum over all other rows k of min(alpha[j], alpha[k])
    return [
        sum(min(a, b) for k, b in enumerate(alpha) if k != j)
        for j, a in enumerate(alpha)
    ]


def ranking(eps: int, alpha: Sequence[int], nu: Sequence[int]) -> tuple[int, ...]:
    """Rank the rows, returning a permutation in one-line notation.

    For eps = -1 positions are assigned front to back, each going to the
    numerically smallest row maximizing (candidate, length, entry)
    lexicographically; for eps = +1 back to front, to the numerically largest
    row minimizing (candidate, -length, entry).
    """
    eps = _check_eps(eps)
    alpha, nu = _check_rows(alpha, nu)
    return _ranking(eps, alpha, nu)


def _ranking(eps: int, alpha: tuple[int, ...], nu: tuple[int, ...]) -> tuple[int, ...]:
    ell = len(alpha)
    totals = _overlap_totals(alpha)
    # running sum, per unchosen row, of min-overlaps with the chosen set
    chosen_overlap = [0] * ell
    remaining = list(range(ell))
    order: list[int] = []  # 0-based rows in position order (front to back or back to front)
    for _ in range(ell):
        best = None
        best_key = None
        for j in remaining:
            if eps == -1:
                numer = nu[j] + totals[j] - 2 * chosen_overlap[j]
                key = (_ceil_div(numer, alpha[j]), alpha[j], nu[j])
                better = best_key is None or key > best_key
            else:
                numer = nu[j] - totals[j] + 2 * chosen_overlap[j]
                key = (numer // alpha[j], -alpha[j], nu[j])
                better = best_key is None or key < best_key or (key == best_key and j > best)
            if better:
                best, best_key = j, key
        remaining.remove(best)
        for j in remaining:
            chosen_overlap[j] += min(alpha[j], alpha[best])
        order.append(best)
    if eps == 1:
        order.reverse()
    sigma = [0] * ell
    for pos, j in enumerate(order, start=1):
        sigma[j] = pos
    return tuple(sigma)


def column_seq(eps: int, alpha: Sequence[int], nu: Sequence[int],
               sigma: Sequence[int]) -> tuple[int, ...]:
    """First-column entries for rows arranged by sigma; always weakly decreasing.

    Entry p is the row's candidate bound shifted by 2p - ell - 1, clamped
    against its already-computed neighbour (the previous entry for eps = -1,
    the next one for eps = +1).
    """
    eps = _check_eps(eps)
    alpha, nu = _check_rows(alpha, nu)
    return _column_seq(eps, alpha, nu, _check_permutation(sigma, len(alpha)))


def _column_seq(eps: int, alpha: tuple[int, ...], nu: tuple[int, ...],
                sigma: tuple[int, ...]) -> tuple[int, ...]:
    ell = len(alpha)
    inv = _inverse_permutation(sigma)
    totals = _overlap_totals(alpha)
    raw = []
    for p in range(1, ell + 1):
        j = inv[p - 1] - 1
        before = sum(min(alpha[j], alpha[inv[q] - 1]) for q in range(p - 1))
        numer = nu[j] + totals[j] - 2 * before
        c = _ceil_div(numer, alpha[j]) if eps == -1 else numer // alpha[j]
        raw.append(c + 2 * p - ell - 1)
    iota = [0] * ell
    if eps == -1:
        for p in range(ell):
            iota[p] = raw[p] if p == 0 else min(raw[p], iota[p - 1])
    else:
        for p in reversed(range(ell)):
            iota[p] = raw[p] if p == ell - 1 else max(raw[p], iota[p + 1])
    return tuple(iota)


def _reduce_input(alpha, nu, sigma, mu1):
    # drop the length-1 rows (their block entry equals their nu entry) and
    # subtract the assigned block entry from the survivors
    ell2 = sum(1 for a in alpha if a >= 2)
    if __debug__:
        for i in range(ell2, len(alpha)):
            assert mu1[sigma[i] - 1] == nu[i], "a dropped row must receive exactly its entry"
    alpha2 = tuple(a - 1 for a in alpha[:ell2])
    nu2 = tuple(nu[i] - mu1[sigma[i] - 1] for i in range(ell2))
    return alpha2, nu2


class Stage(NamedTuple):
    """One stage of Algorithm A: the reduced input and its ranking and block."""

    alpha: tuple[int, ...]
    nu: tuple[int, ...]
    sigma: tuple[int, ...]
    mu: tuple[int, ...]


def _stages(alpha: tuple[int, ...], nu: tuple[int, ...]) -> list[Stage]:
    stages = []
    while True:
        sigma = _ranking(-1, alpha, nu)
        mu = _column_seq(-1, alpha, nu, sigma)
        stages.append(Stage(alpha, nu, sigma, mu))
        if alpha[0] == 1:
            return stages
        alpha, nu = _reduce_input(alpha, nu, sigma, mu)


def _alg_A(alpha: tuple[int, ...], nu: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(v for stage in _stages(alpha, nu) for v in stage.mu)


def alg_A_stages(alpha, nu) -> tuple[Stage, ...]:
    """Stage table of Algorithm A; one stage per column of alpha.

    Accepts any nu of the right length, dominant with respect to alpha or not.
    """
    alpha = as_partition(alpha)
    nu = _int_tuple(nu)
    if len(nu) != alpha.ell:
        raise ValueError(f"nu has length {len(nu)}, expected {alpha.ell}")
    return tuple(_stages(alpha.parts, nu))


def alg_A(alpha, nu) -> tuple[int, ...]:
    """Blockwise weight of length n for a partition and a compatible sequence.

    Block j is weakly decreasing of the j-th column length; the blocks
    distribute each nu entry across its row.  Requires nu dominant with
    respect to alpha; the blocks are the mu of the stages of alg_A_stages.
    """
    alpha, nu = validate_omega_pair(alpha, nu)
    return _alg_A(alpha.parts, nu)


def gamma_forward(alpha, nu) -> tuple[int, ...]:
    """The forward bijection: dominant rearrangement of alg_A plus the root offset."""
    alpha, nu = validate_omega_pair(alpha, nu)
    mu = _alg_A(alpha.parts, nu)
    rho2 = two_rho(alpha)
    return dom(m + r for m, r in zip(mu, rho2, strict=True))
