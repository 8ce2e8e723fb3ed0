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

The pass keys a class by its head's entry.  Write v = -eps * nu, so that
both modes maximize.  After t picks, let the head j of the class of length a
have the numerator v_j + T_a - 2*C_a, where T_a is its overlap with all
other rows and C_a = S + a*(t - N) its overlap with the picked rows, S and N
being the total length and the count of the picked rows shorter than a.
That is `column_seq`'s numerator for eps = -1, and minus it for eps = +1,
whose picked rows come after the row.  With c the ceiling of the numerator
over a, the row's entry before the clamp is -eps*E with E = c + 2t + 1 - l.
Since T_a - (l - 1)*a is minus the sum of a - L over the rows of length
L < a, E = ceil(y/a) with

    y = v_j + (sum of a - L over the picked rows of length L < a)
            - (sum of a - L over the other rows of length L < a).

E differs from c by 2t + 1 - l, the same for every class, so a pick, which
maximizes (c, length), takes the class of the largest E, the longer one on
a tie.  A pick of length b moves y by 2*(a - b) on every class longer than
b, leaves it on the shorter ones, and moves the picked class's y by the
change of its head.  So each pick recomputes E only on the classes longer
than the last pick and reads the stored E of the others.

Once one class is left, only its head moves its y, so it takes its rows in
queue order, and row j gets E = ceil((v_j + y')/a), where y' is y less the
head's v.  Its entries are read off in one step, with no scan.  In pick
order the clamp is the running minimum of E for both modes: for eps = +1 the
entries are -E and are clamped from the back by the running maximum.

One pick loop, `_pick`, takes its classes from one of two setups and hands on
the ranking as its pick order, the row at each position: the kernels' one
form of a ranking, which `core._check_permutation` makes of a given sigma.
Sigma is built from it only for `ranking`, `branch_plan` and `alg_A_stages`,
the results that show it.  The rows of `ranking` and of Algorithm W's nodes
come in any order, so `_rank_and_fill` sorts them by length and entry.  In
Algorithm A alpha is weakly decreasing, so each length class is a run of
consecutive indices, and the runs, read from the last one up, come in
increasing length: `_run_classes` reads them off with no sort.  A queue
orders its rows by (-nu, index), which is index order wherever nu is weakly
decreasing along the run, as a dominant nu is; so the queue, head last, is
the run reversed.

The residual nu stays dominant, so every stage of `alg_A` takes that path.
With eps = -1, y = nu_h + D for the head h of the class of length a:
D depends on the picks made, not on which row is the head, and a pick of a
shorter row of length L adds 2*(a - L) to it, so D never falls.  Let rows
i < j of the class have nu_i >= nu_j, so that i is picked first, at t_i,
and let d = nu_i - nu_j.  Every row k picked after i, up to j itself, has
E_k >= ceil((nu_j + D(t_i))/a): a row of the class has nu_k >= nu_j, and a
row of another class was picked over the class's head, whose nu_h >= nu_j.
Since ceil((x + d)/a) <= ceil(x/a) + d, that bound is at least E_i - d.
The entries are the running minimum of E in pick order, so the entries
mu_i and mu_j that rows i and j receive have mu_j >= mu_i - d, that is
nu_i - mu_i >= nu_j - mu_j: once every part has lost a box, the survivors
of the run are again a run, and their residual is again weakly decreasing.
(On 40 000 seeded dominant inputs, 359 191 runs of two or more rows were
set up, and none was out of order.)

`alg_A_stages` also accepts a nu that is not dominant.  So `_run_classes`
checks each run of two or more rows for order, at C speed, and where the
check fails it sorts the reversed run by nu.  The sort is stable, so equal
entries keep the higher index first, and the head is the lowest index of the
largest entry: the order of the sorting setup.  The classes and their keys
are then that setup's, and the one pick loop gives the same table.  Sorting
each block once at the boundary and mapping sigma back would not: residuals
that become equal at a later stage would break their tie by the permuted
index instead of the row index.
"""

from collections.abc import Iterator
from itertools import accumulate, chain, groupby
from operator import ge, neg
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
    _shown,
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
        raise ValueError(f"row index {_shown(i)} out of range 1..{ell}")
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
    heads of the d length classes, and rekeys only the classes longer than
    the last pick: O(l*d) for l rows.
    """
    eps = _check_eps(eps)
    alpha, nu = _check_rows(alpha, nu)
    return _inverse_permutation(_rank_and_fill(eps, alpha, nu)[1])


def _rank_and_fill(eps: int, alpha: Sequence[int], nu: Sequence[int]
                   ) -> tuple[tuple[int, ...], list[int]]:
    # The sorting setup, for rows in any order (ranking and Algorithm W's
    # nodes): ordered by (length, v, eps * index), the rows lay the classes
    # out in increasing length (two stable sorts, the first over the indices
    # in eps * index order)
    v_of = nu if eps == -1 else [-x for x in nu]
    order = sorted(range(len(alpha))[::eps], key=v_of.__getitem__)
    order.sort(key=alpha.__getitem__)
    live = []
    low = short = 0
    for a, queue in groupby(order, key=alpha.__getitem__):
        queue = list(queue)
        y = v_of[queue[-1]] + low - a * short
        live.append([a, y, -(-y // a), queue])
        low, short = low + a * len(queue), short + len(queue)
    return _pick(eps, v_of, live)


def _run_classes(alpha: tuple[int, ...], nu: tuple[int, ...]) -> list[list]:
    # Algorithm A's setup, for weakly decreasing alpha (module docstring):
    # each class is a run of equal parts, read from the last run, the
    # shortest, up, and its queue is the run reversed, sorted by nu only when
    # the run's nu is out of order
    live = []
    low = 0
    end = ell = len(alpha)
    while end:
        start = end - 1
        a = alpha[start]
        if start and alpha[start - 1] == a:  # a run of two or more rows
            start = alpha.index(a)
            queue = list(range(end - 1, start - 1, -1))
            if not all(map(ge, nu[start:end], nu[start + 1:end])):
                queue.sort(key=nu.__getitem__)
        else:
            queue = [start]
        y = nu[queue[-1]] + low - a * (ell - end)  # the rows past end are shorter
        live.append([a, y, -(-y // a), queue])
        low += a * (end - start)
        end = start
    return live


def _pick(eps: int, v_of: Sequence[int], live: list[list]
          ) -> tuple[tuple[int, ...], list[int]]:
    # The one pick loop: computes the ranking as its pick order at, the row at
    # each position, and column_seq's iota for it, with the keys E of the
    # module docstring.  A class is [a, y, E, queue], in increasing length:
    # its queue holds its rows ordered by their entries, by (-nu, index) for
    # eps = -1 and by (nu, -index) for eps = +1, head last for pop(), and y
    # and E = ceil(y / a) are its head's.  A setup starts y at v less the sum
    # of a - L over the shorter rows, that is v + low - a * short, with low
    # the total length and short the count of the shorter rows.
    at, keys = [], []  # the rows and their E, in pick order
    b = live[-1][0]  # the length of the last pick; the longest moves no class
    while len(live) > 1:
        best_e = None
        for cls in live:
            a = cls[0]
            if a > b:
                y = cls[1] = cls[1] + 2 * (a - b)
                e = cls[2] = -(-y // a)
            else:
                e = cls[2]
            if best_e is None or e >= best_e:  # ties go to the longer class
                best, best_e = cls, e
        b, _, _, queue = best
        j = queue.pop()
        if queue:
            y = best[1] = best[1] + v_of[queue[-1]] - v_of[j]
            best[2] = -(-y // b)
        else:
            live.remove(best)
        at.append(j)
        keys.append(best_e)
    # the last class takes its rows in queue order, row j with E =
    # ceil((v_j + y') / a), where y' = y - v_head once the last pick has moved y
    (a, y, _, queue), = live
    if a > b:
        y += 2 * (a - b)
    shift = v_of[queue[-1]] - y  # -y'
    queue.reverse()
    at += queue
    for j in queue:
        keys.append(-((shift - v_of[j]) // a))
    # the clamp is the running min of E in pick order, and positions run
    # back to front for eps = +1, whose entries are -E
    keys = accumulate(keys, min)
    if eps == -1:
        iota = tuple(keys)
    else:
        at.reverse()
        iota = tuple(map(neg, keys))[::-1]
    return iota, at


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
    ell = len(alpha)
    at = _check_permutation(sigma, ell)
    # T_a = sum over the other rows of min(a, length), one entry per distinct length a
    totals = {a: t - a for a, t in _min_overlaps(_length_counts(alpha)).items()}
    placed = dict.fromkeys(totals, 0)  # rows of each length at earlier positions
    raw = []
    for p, i in enumerate(at, start=1):
        a = alpha[i]
        before = sum(c * min(a, b) for b, c in placed.items())
        numer = nu[i] + totals[a] - 2 * before
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


def _stages(alpha: tuple[int, ...], nu: tuple[int, ...]) -> Iterator[tuple]:
    # Yields (alpha, nu, at, mu, count) batches, each standing for count stages
    # with the same block: count 1 while two or more rows are live, then the
    # lone row's balanced split (module docstring) in at most two batches
    while len(alpha) > 1:
        mu, at = _pick(-1, nu, _run_classes(alpha, nu))
        yield alpha, nu, at, mu, 1
        # each row loses its block entry; alpha is weakly decreasing, so its
        # rows of length 1 come last, and they drop out with residual 0
        left = list(nu)
        for j, m in zip(at, mu):
            left[j] -= m
        ell2 = len(alpha) - alpha.count(1)
        assert not any(left[ell2:]), "a dropped row must receive exactly its entry"
        if not ell2:
            return
        nu = tuple(left[:ell2])
        alpha = tuple(a - 1 for a in alpha[:ell2])
    (a,), (n,) = alpha, nu
    q, r = divmod(n, a)
    if r:
        yield alpha, nu, [0], (q + 1,), r
    yield (a - r,), (q * (a - r),), [0], (q,), a - r


def _alg_A(alpha: tuple[int, ...], nu: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(chain.from_iterable(mu * count for _, _, _, mu, count in _stages(alpha, nu)))


def alg_A_stages(alpha, nu) -> tuple[Stage, ...]:
    """Stage table of Algorithm A; one stage per column of alpha.

    Accepts any nu of the right length, dominant with respect to alpha or not.
    """
    alpha = _as_partition(alpha)
    nu = _int_tuple(nu)
    _check_length("nu", nu, alpha.ell)
    out = []
    for stage_alpha, stage_nu, at, mu, count in _stages(alpha.parts, nu):
        out.append(Stage(stage_alpha, stage_nu, _inverse_permutation(at), mu))
        if count > 1:
            # a lone row's batch: each later stage has one box and m of nu less
            (a,), (n,), (m,) = stage_alpha, stage_nu, mu
            out += (Stage((a - k,), (n - k * m,), (1,), mu) for k in range(1, count))
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
