"""Integer-sequences form of the forward map.

The output weight is assembled column block by column block: a ranking
function orders the rows, a column function chooses the entries of the
current block, and the residual input is reduced and fed back in.  The
stages come one at a time: each passes on only its reduced input, so
`alg_A` holds one stage at once.  The forward bijection is the dominant
rearrangement of the result plus the doubled half-sum of positive roots.

Once a single row is left, its remaining blocks are the balanced split of
its entry.  A one-row stage of (a, N) has no overlaps and ranks nothing, so
its block is ceil(N/a) and it passes on (a - 1, N - ceil(N/a)).  With
N = q*a + r and 0 <= r < a, r > 0 gives the entry q + 1 and leaves
N' = q*(a - 1) + (r - 1), the same q with r - 1; r = 0 gives q and leaves
q*(a - 1), again r = 0.  So the row takes q + 1 for r stages, then q for
a - r stages, and `_stages` yields that tail as at most two batches of one
stage and its count.

Rows of equal length share their overlap with all other rows and with the
rows ranked so far, so a stage groups its rows by length and ranks and fills
them in one pass that compares only the heads of the length classes: O(l*d)
per stage for l rows of d distinct lengths.  The public functions check
their input with the helpers of `core`, and the kernels trust it.
"""

from collections.abc import Iterator
from itertools import accumulate, chain, groupby
from typing import Iterable, NamedTuple, Sequence

from .core import (
    two_rho,
    validate_omega_pair,
    _as_partition,
    _ceil_div,
    _check_eps,
    _check_int,
    _check_length,
    _check_permutation,
    _check_rows,
    _dom,
    _int_tuple,
    _inverse_permutation,
    _length_counts,
    _min_overlaps,
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


def _rank_and_fill(eps: int, alpha: Sequence[int], nu: Sequence[int]
                   ) -> tuple[tuple[int, ...], tuple[int, ...], list[int]]:
    # One pass computes ranking's sigma, column_seq's iota for that sigma and
    # the row at each position.  Rows of length a share the overlap total T_a
    # with all other rows and the overlap C_a with the rows already picked, so
    # a class is a queue ordered by its entries, by (-nu, index) for eps = -1
    # and by (nu, -index) for eps = +1, and each pick compares the d heads.
    # With v = -eps * nu and slack = T_a - 2 C_a, both modes maximize
    # (ceil((v + slack) / a), a, v); class keys differ in a, so they never
    # tie.  The row's candidate is -eps times the first component: for
    # eps = +1 the picked rows are the ones after the row, and
    # T_a - 2 * before = 2 * after - T_a, column_seq's numerator.  A pick of
    # length b lowers every slack by 2 * min(a, b); the next pick's scan
    # applies that as it reads the slack, so each pick is one loop.
    ell = len(alpha)
    v_of = nu if eps == -1 else [-x for x in nu]
    # ordered by (length, v, eps * index), the rows lay the classes out in
    # increasing length, each queue's head last, for pop() (two stable sorts,
    # the first over the indices in eps * index order); one sweep over the
    # classes then gives T_a = low + a * (high - 1), with low the total
    # length of the shorter rows and high the number of rows of length >= a
    order = sorted(range(ell)[::eps], key=v_of.__getitem__)
    order.sort(key=alpha.__getitem__)
    live = []
    low, high = 0, ell
    for a, queue in groupby(order, key=alpha.__getitem__):
        queue = list(queue)
        live.append([a, low + a * (high - 1), queue])
        low, high = low + a * len(queue), high - len(queue)
    sigma, iota, at = [0] * ell, [0] * ell, [0] * ell  # at[p - 1]: the row at position p
    bound = None  # running min (eps = -1) or max (eps = +1) of the raw entries
    b = 0  # length of the previous pick; 0 lowers nothing
    for step in range(ell):
        best = None
        for cls in live:
            a = cls[0]
            slack = cls[1] = cls[1] - 2 * (a if a < b else b)
            c = -(-(v_of[cls[2][-1]] + slack) // a)
            if best is None or c > best_c or c == best_c and a > best_a:
                best, best_c, best_a = cls, c, a
        b = best_a
        queue = best[2]
        j = queue.pop()
        if not queue:
            live.remove(best)
        p = step + 1 if eps == -1 else ell - step
        raw = -eps * best_c + 2 * p - ell - 1
        if bound is not None:
            raw = min(raw, bound) if eps == -1 else max(raw, bound)
        bound = iota[p - 1] = raw
        sigma[j] = p
        at[p - 1] = j
    return tuple(sigma), tuple(iota), at


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
    # T_a = sum over the other rows of min(a, length), one entry per distinct length a
    totals = {a: t - a for a, t in _min_overlaps(_length_counts(alpha)).items()}
    placed = dict.fromkeys(totals, 0)  # rows of each length at earlier positions
    raw = []
    for p, i in enumerate(_inverse_permutation(sigma), start=1):
        a = alpha[i - 1]
        before = sum(c * min(a, b) for b, c in placed.items())
        numer = nu[i - 1] + totals[a] - 2 * before
        c = _ceil_div(numer, a) if eps == -1 else numer // a
        raw.append(c + 2 * p - ell - 1)
        placed[a] += 1
    if eps == -1:
        return tuple(accumulate(raw, min))
    return tuple(accumulate(reversed(raw), max))[::-1]


class Stage(NamedTuple):
    """One stage of Algorithm A: the reduced input and its ranking and block."""

    alpha: tuple[int, ...]
    nu: tuple[int, ...]
    sigma: tuple[int, ...]
    mu: tuple[int, ...]


def _stages(alpha: tuple[int, ...], nu: tuple[int, ...]) -> Iterator[tuple[Stage, int]]:
    # Yields (stage, count) batches, each standing for count stages with the
    # same block: count 1 while two or more rows are live, then the lone
    # row's balanced split (module docstring) in at most two batches
    while len(alpha) > 1:
        sigma, mu, _ = _rank_and_fill(-1, alpha, nu)
        yield Stage(alpha, nu, sigma, mu), 1
        # alpha is weakly decreasing, so its rows of length 1 come last; they
        # drop out, each receiving exactly its nu entry, and the survivors
        # lose a box and the block entry they were assigned
        ell2 = len(alpha) - alpha.count(1)
        if __debug__:
            for i in range(ell2, len(alpha)):
                assert mu[sigma[i] - 1] == nu[i], "a dropped row must receive exactly its entry"
        if not ell2:
            return
        nu = tuple(nu[i] - mu[sigma[i] - 1] for i in range(ell2))
        alpha = tuple(a - 1 for a in alpha[:ell2])
    (a,), (n,) = alpha, nu
    q, r = divmod(n, a)
    if r:
        yield Stage(alpha, nu, (1,), (q + 1,)), r
    yield Stage((a - r,), (q * (a - r),), (1,), (q,)), a - r


def _alg_A(alpha: tuple[int, ...], nu: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(chain.from_iterable(stage.mu * count for stage, count in _stages(alpha, nu)))


def alg_A_stages(alpha, nu) -> tuple[Stage, ...]:
    """Stage table of Algorithm A; one stage per column of alpha.

    Accepts any nu of the right length, dominant with respect to alpha or not.
    """
    alpha = _as_partition(alpha)
    nu = _int_tuple(nu)
    _check_length("nu", nu, alpha.ell)
    out = []
    for stage, count in _stages(alpha.parts, nu):
        out.append(stage)
        if count > 1:
            # a lone row's batch: each later stage has one box less and has
            # given one more block entry away
            (a,), (n,), (m,) = stage.alpha, stage.nu, stage.mu
            out += (stage._replace(alpha=(a - k,), nu=(n - k * m,)) for k in range(1, count))
    return tuple(out)


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
    return _dom(m + r for m, r in zip(mu, rho2, strict=True))
