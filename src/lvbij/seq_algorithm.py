"""Integer-sequences form of the forward map.

The output weight is assembled column block by column block: a ranking
function orders the rows, a column function chooses the entries of the
current block, and the residual input is reduced and fed back in.  The
forward bijection is the dominant rearrangement of the result plus the
doubled half-sum of positive roots.

Rows of equal length share their overlap with all other rows and with the
rows ranked so far, so a stage groups its rows by length and ranks and fills
them in one pass that compares only the heads of the length classes: O(l*d)
per stage for l rows of d distinct lengths.
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


def ranking(eps: int, alpha: Sequence[int], nu: Sequence[int]) -> tuple[int, ...]:
    """Rank the rows, returning a permutation in one-line notation.

    For eps = -1 positions are assigned front to back, each going to the
    numerically smallest row maximizing (candidate, length, entry)
    lexicographically; for eps = +1 back to front, to the numerically largest
    row minimizing (candidate, -length, entry).  Rows of equal length are
    picked in the order of their entries, so each pick compares only the
    heads of the d length classes: O(l*d) for l rows.
    """
    eps = _check_eps(eps)
    alpha, nu = _check_rows(alpha, nu)
    return _rank_and_fill(eps, alpha, nu)[0]


def _length_counts(alpha: Iterable[int]) -> dict[int, int]:
    counts: dict[int, int] = {}
    for a in alpha:
        counts[a] = counts.get(a, 0) + 1
    return counts


def _min_overlaps(weights: dict[int, int]) -> dict[int, int]:
    # for each length a: sum over lengths b of weights[b] * min(a, b), in one
    # sweep over the lengths in increasing order
    out = {}
    low = 0  # sum of weights[b] * b over b < a
    high = sum(weights.values())  # sum of weights[b] over b >= a
    for a in sorted(weights):
        out[a] = low + a * high
        low += weights[a] * a
        high -= weights[a]
    return out


def _class_totals(alpha: tuple[int, ...]) -> dict[int, int]:
    # T_a = sum over the other rows of min(a, length), one entry per distinct length a
    return {a: t - a for a, t in _min_overlaps(_length_counts(alpha)).items()}


def _rank_and_fill(eps: int, alpha: tuple[int, ...],
                   nu: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    # One pass computes ranking's sigma and column_seq's iota for that sigma.
    # Rows of length a share the overlap total T_a with all other rows and the
    # overlap C_a with the rows already picked, so within a class the key
    # depends only on the entry: the class is a queue ordered by (-nu, index)
    # for eps = -1 and by (nu, -index) for eps = +1, and each pick compares
    # the d class heads.  Keys of different classes differ in their length, so
    # they never tie.  With v = -eps * nu and slack = T_a - 2 C_a, both modes
    # maximize (ceil((v + slack) / a), a, v), and the row's candidate is
    # -eps times the first component.  For eps = +1 the picked rows are the
    # ones after the row, and T_a - 2 * before = 2 * after - T_a, so the
    # candidate is also column_seq's numerator over the length.
    ell = len(alpha)
    order = sorted(range(ell), key=nu.__getitem__, reverse=True)  # by (-nu, index)
    if eps == 1:
        order.reverse()
    queues: dict[int, list[int]] = {}
    for j in reversed(order):  # each queue's head goes last, for pop()
        queues.setdefault(alpha[j], []).append(j)
    live = [[a, total, queues[a]] for a, total in _class_totals(alpha).items()]
    sigma = [0] * ell
    iota = [0] * ell
    bound = None  # running min (eps = -1) or max (eps = +1) of the raw entries
    for step in range(ell):
        best = best_key = None
        for cls in live:
            a, slack, queue = cls
            v = -eps * nu[queue[-1]]
            key = (-(-(v + slack) // a), a, v)
            if best_key is None or key > best_key:
                best, best_key = cls, key
        a, _, queue = best
        j = queue.pop()
        if not queue:
            live.remove(best)
        for cls in live:
            cls[1] -= 2 * min(cls[0], a)
        p = step + 1 if eps == -1 else ell - step
        raw = -eps * best_key[0] + 2 * p - ell - 1
        if bound is not None:
            raw = min(raw, bound) if eps == -1 else max(raw, bound)
        bound = iota[p - 1] = raw
        sigma[j] = p
    return tuple(sigma), tuple(iota)


def column_seq(eps: int, alpha: Sequence[int], nu: Sequence[int],
               sigma: Sequence[int]) -> tuple[int, ...]:
    """First-column entries for rows arranged by sigma; always weakly decreasing.

    Entry p is the row's candidate bound shifted by 2p - ell - 1, clamped
    against its already-computed neighbour (the previous entry for eps = -1,
    the next one for eps = +1).  The overlap with the rows before position p
    comes from running counts per row length: O(l*d) for l rows of d
    distinct lengths.
    """
    eps = _check_eps(eps)
    alpha, nu = _check_rows(alpha, nu)
    sigma = _check_permutation(sigma, len(alpha))
    ell = len(alpha)
    totals = _class_totals(alpha)
    placed = dict.fromkeys(totals, 0)  # rows of each length at earlier positions
    raw = []
    for p, i in enumerate(_inverse_permutation(sigma), start=1):
        a = alpha[i - 1]
        before = sum(c * min(a, b) for b, c in placed.items())
        numer = nu[i - 1] + totals[a] - 2 * before
        c = _ceil_div(numer, a) if eps == -1 else numer // a
        raw.append(c + 2 * p - ell - 1)
        placed[a] += 1
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
        sigma, mu = _rank_and_fill(-1, alpha, nu)
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
