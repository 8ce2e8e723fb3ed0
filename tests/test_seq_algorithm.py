import random
import tracemalloc
from itertools import groupby

import pytest

from lvbij import (
    alg_A,
    alg_A_stages,
    branch_plan,
    candidate,
    column_seq,
    dom,
    gamma_forward,
    gamma_via_diagrams,
    is_dominant_wrt,
    norm_sq,
    omega_pairs,
    ranking,
    two_rho,
)


def ceil_half(v):
    return -((-v) // 2)


def floor_half(v):
    return v // 2


def test_candidate_examples():
    assert candidate(-1, [2, 1], [5, 1], 1, [], [2]) == 3
    assert candidate(-1, [2, 1], [5, 1], 2, [], [1]) == 2
    assert candidate(1, [2], [7], 1, [], []) == 3


def test_candidate_mathematical_rounding():
    # round toward +inf / -inf on negative quotients
    assert candidate(-1, [2], [-3], 1, [], []) == -1
    assert candidate(1, [2], [-3], 1, [], []) == -2


def test_candidate_validation():
    with pytest.raises(ValueError):
        candidate(-1, [2, 0], [5, 1], 1, [], [2])
    with pytest.raises(ValueError):
        candidate(-1, [2, 1], [5, 1], 3, [], [2])
    with pytest.raises(ValueError):
        candidate(-1, [2, 1], [5, 1], 1, [2], [2])
    with pytest.raises(ValueError):
        candidate(0, [2, 1], [5, 1], 1, [], [2])
    with pytest.raises(ValueError, match="equal length"):
        candidate(-1, [2, 1], [5], 1, [], [2])


def test_ranking_examples():
    assert ranking(-1, [4, 3, 2, 1, 1], [15, 14, 9, 4, 4]) == (4, 2, 1, 3, 5)
    assert ranking(-1, [3, 2, 2, 1], [15, 8, 8, 4]) == (1, 2, 3, 4)
    assert ranking(1, [1, 2, 3], [5, 10, 11]) == (1, 2, 3)


def test_column_seq_examples():
    assert column_seq(-1, [4, 3, 2, 1, 1], [15, 14, 9, 4, 4], (4, 2, 1, 3, 5)) == (4, 4, 4, 4, 4)
    assert column_seq(1, [1, 2, 3], [5, 10, 11], (1, 2, 3)) == (5, 5, 4)
    assert column_seq(-1, [1], [7], (1,)) == (7,)


def test_column_seq_invalid_permutation():
    with pytest.raises(ValueError):
        column_seq(-1, [2, 1], [5, 1], (1, 3))


def test_ranking_and_column_seq_refuse_unequal_lengths():
    with pytest.raises(ValueError, match="equal length"):
        ranking(-1, [2, 1], [5])
    with pytest.raises(ValueError, match="equal length"):
        column_seq(-1, [2, 1], [5], (1, 2))


def naive_ranking(eps, alpha, nu):
    # direct transcription of the definitions via the public candidate()
    ell = len(alpha)
    inv = [0] * ell
    if eps == -1:
        chosen = []
        for pos in range(1, ell + 1):
            rest = [j for j in range(1, ell + 1) if j not in chosen]
            keys = {
                j: (candidate(-1, alpha, nu, j, chosen, [k for k in rest if k != j]),
                    alpha[j - 1], nu[j - 1])
                for j in rest
            }
            best = max(keys.values())
            inv[pos - 1] = min(j for j in rest if keys[j] == best)
            chosen.append(inv[pos - 1])
    else:
        chosen = []
        for step in range(1, ell + 1):
            rest = [j for j in range(1, ell + 1) if j not in chosen]
            keys = {
                j: (candidate(1, alpha, nu, j, [k for k in rest if k != j], chosen),
                    -alpha[j - 1], nu[j - 1])
                for j in rest
            }
            best = min(keys.values())
            inv[ell - step] = max(j for j in rest if keys[j] == best)
            chosen.append(inv[ell - step])
    sigma = [0] * ell
    for pos, j in enumerate(inv, start=1):
        sigma[j - 1] = pos
    return tuple(sigma)


def naive_column_seq(eps, alpha, nu, sigma):
    ell = len(alpha)
    inv = [0] * ell
    for i, p in enumerate(sigma, start=1):
        inv[p - 1] = i
    iota = [0] * ell
    if eps == -1:
        for p in range(1, ell + 1):
            c = candidate(-1, alpha, nu, inv[p - 1], inv[: p - 1], inv[p:])
            v = c - ell + 2 * p - 1
            iota[p - 1] = v if p == 1 else min(v, iota[p - 2])
    else:
        for p in range(ell, 0, -1):
            c = candidate(1, alpha, nu, inv[p - 1], inv[: p - 1], inv[p:])
            v = c + 2 * p - ell - 1
            iota[p - 1] = v if p == ell else max(v, iota[p])
    return tuple(iota)


def assert_kernel_matches_naive(eps, alpha, nu):
    sigma = ranking(eps, alpha, nu)
    assert sigma == naive_ranking(eps, alpha, nu), (eps, alpha, nu)
    iota = naive_column_seq(eps, alpha, nu, sigma)
    assert column_seq(eps, alpha, nu, sigma) == iota, (eps, alpha, nu)
    plan = branch_plan(alpha, nu, eps)
    assert (plan.sigma, plan.iota) == (sigma, iota), (eps, alpha, nu)
    return sigma, iota


def test_ranking_and_column_seq_match_naive_transcription():
    rng = random.Random(7)
    for _ in range(250):
        ell = rng.randint(1, 5)
        alpha = [rng.randint(1, 4) for _ in range(ell)]
        nu = [rng.randint(-6, 6) for _ in range(ell)]
        for eps in (-1, 1):
            assert_kernel_matches_naive(eps, alpha, nu)


def test_many_rows_of_few_lengths_match_naive_transcription():
    # rows of one length are ranked as a class, so draw many rows over at most
    # three lengths, with many equal entries, in no particular order
    rng = random.Random(41)
    for _ in range(40):
        ell = rng.randint(6, 30)
        lengths = rng.sample(range(1, 7), rng.randint(1, 3))
        alpha = [rng.choice(lengths) for _ in range(ell)]
        nu = [rng.randint(-3, 3) for _ in range(ell)]
        shuffled = list(range(1, ell + 1))
        rng.shuffle(shuffled)
        for eps in (-1, 1):
            sigma = ranking(eps, alpha, nu)
            assert sigma == naive_ranking(eps, alpha, nu)
            for perm in (sigma, tuple(shuffled)):
                assert column_seq(eps, alpha, nu, perm) == naive_column_seq(eps, alpha, nu, perm)
            assert branch_plan(alpha, nu, eps).iota == naive_column_seq(eps, alpha, nu, sigma)


def pick_order(eps, sigma):
    # rows (1-based) in the order they are picked: front to back for eps = -1,
    # back to front for eps = +1
    inv = [0] * len(sigma)
    for i, p in enumerate(sigma, start=1):
        inv[p - 1] = i
    return inv if eps == -1 else inv[::-1]


def tail_clamps(eps, alpha, nu, sigma, iota):
    # how many rows of the last class get a clamped entry rather than their
    # candidate + 2p - ell - 1; that class is the run of one length that ends
    # the pick order, since the pick before it used up the last other class
    ell = len(alpha)
    rows = pick_order(eps, sigma)
    start = ell - 1
    while start and alpha[rows[start - 1] - 1] == alpha[rows[-1] - 1]:
        start -= 1
    inv = pick_order(-1, sigma)
    clamped = 0
    for j in rows[start:]:
        p = sigma[j - 1]
        c = candidate(eps, alpha, nu, j, inv[: p - 1], inv[p:])
        clamped += iota[p - 1] != c + 2 * p - ell - 1
    return clamped


def ties_across_lengths(eps, alpha, nu, sigma):
    # how many picks find the best candidate on rows of two or more lengths
    ell = len(alpha)
    picked, ties = [], 0
    for j in pick_order(eps, sigma):
        rest = [k for k in range(1, ell + 1) if k not in picked]
        cands = {}
        for k in rest:
            others = [x for x in rest if x != k]
            before, after = (picked, others) if eps == -1 else (others, picked)
            cands[k] = candidate(eps, alpha, nu, k, before, after)
        best = max(cands.values()) if eps == -1 else min(cands.values())
        ties += len({alpha[k - 1] for k in rest if cands[k] == best}) > 1
        picked.append(j)
    return ties


def test_all_distinct_lengths_match_naive_transcription():
    # one row per class, so every pick rekeys the classes longer than it and
    # the last class is a single row
    rng = random.Random(53)
    for _ in range(30):
        ell = rng.randint(8, 14)
        alpha = rng.sample(range(1, 3 * ell), ell)
        nu = [rng.randint(-4 * ell, 4 * ell) for _ in range(ell)]
        for eps in (-1, 1):
            assert_kernel_matches_naive(eps, alpha, nu)


def test_long_last_class_whose_clamp_binds_matches_naive_transcription():
    # k rows of length L with entries x or x - 1, and one row of length 1 with
    # z = ceil((x - L + 1) / L) + 1.  The one-box row is picked first, with
    # entry z, since the class's key is z - 1.  That pick moves the class's
    # numerator by 2(L - 1), and with (x + 1) mod L = 0 or at least 3 that
    # lifts its key by 2, past z: the clamp binds in the last class.  For
    # eps = +1 the entries are negated.
    rng = random.Random(43)
    for _ in range(30):
        L = rng.randint(3, 8)
        k = rng.randint(6, 14)
        x = rng.choice([q * L - 1 + r for q in range(-2, 3) for r in [0, *range(3, L)]])
        z = -((L - 1 - x) // L) + 1
        alpha = [L] * k + [1]
        nu = sorted((x - rng.randint(0, 1) for _ in range(k)), reverse=True) + [z]
        for eps in (-1, 1):
            row_nu = nu if eps == -1 else [-v for v in nu]
            sigma, iota = assert_kernel_matches_naive(eps, alpha, row_nu)
            assert tail_clamps(eps, alpha, row_nu, sigma, iota) > 0, (eps, alpha, row_nu)
    # and a last class of many rows drawn at random, after a few shorter rows
    clamped = 0
    for _ in range(30):
        L = rng.randint(4, 8)
        alpha = [L] * rng.randint(6, 12) + [rng.randint(1, L - 1) for _ in range(rng.randint(1, 3))]
        nu = [rng.randint(-12, 4) for _ in range(len(alpha))]
        for eps in (-1, 1):
            sigma, iota = assert_kernel_matches_naive(eps, alpha, nu)
            clamped += tail_clamps(eps, alpha, nu, sigma, iota)
    assert clamped > 0


def test_ties_across_lengths_match_naive_transcription():
    # small entries over few short lengths make many picks tie on the
    # candidate between rows of different lengths; the longer row wins
    rng = random.Random(59)
    ties = 0
    for _ in range(60):
        ell = rng.randint(4, 8)
        alpha = [rng.randint(1, 4) for _ in range(ell)]
        nu = [rng.randint(-3, 3) for _ in range(ell)]
        for eps in (-1, 1):
            sigma, _ = assert_kernel_matches_naive(eps, alpha, nu)
            ties += ties_across_lengths(eps, alpha, nu, sigma)
    assert ties >= 100


def test_column_seq_weakly_decreasing():
    rng = random.Random(11)
    for _ in range(200):
        ell = rng.randint(1, 6)
        alpha = [rng.randint(1, 4) for _ in range(ell)]
        nu = [rng.randint(-9, 9) for _ in range(ell)]
        for eps in (-1, 1):
            iota = column_seq(eps, alpha, nu, ranking(eps, alpha, nu))
            assert all(iota[i] >= iota[i + 1] for i in range(ell - 1))


def test_alg_A_examples():
    assert alg_A([4, 3, 2, 1, 1], [15, 14, 9, 4, 4]) == (4, 4, 4, 4, 4, 5, 5, 5, 5, 4, 2)
    assert alg_A([3, 2, 2, 1], [15, 8, 8, 4]) == (4, 4, 4, 4, 5, 4, 4, 6)
    assert alg_A([2], [7]) == (4, 3)
    # the stage table also runs on nu that is not dominant with respect to alpha
    assert [s.mu for s in alg_A_stages([2, 2], [1, 2])] == [(1, 1), (1, 0)]


def test_alg_A_validation():
    with pytest.raises(ValueError):
        alg_A([2, 3], [1, 1])
    with pytest.raises(ValueError):
        alg_A([2, 2], [1, 2])
    with pytest.raises(ValueError):
        alg_A([2, 2], [1, 2, 3])


def test_alg_A_iter_examples():
    # alg_A runs as a loop over stages, not as a recursion
    assert alg_A([4, 3, 2, 1, 1], [15, 14, 9, 4, 4]) == (4, 4, 4, 4, 4, 5, 5, 5, 5, 4, 2)
    assert alg_A([1, 1], [3, 1]) == (3, 1)
    assert alg_A([1], [0]) == (0,)


def test_alg_A_holds_one_stage_at_a_time():
    # a single row of 5000 boxes runs 5000 stages; a stage table kept until
    # the end peaks near 1.5 MB, one stage at a time near 0.05 MB
    alg_A((5000,), (0,))
    tracemalloc.start()
    try:
        alg_A((5000,), (0,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 500_000


def test_alg_A_holds_one_stage_at_a_time_on_two_rows():
    # a lone row like (5000,) runs as at most two batches, so this twin keeps
    # two rows live through 4999 stages, each ranked and filled in full
    alg_A((5000, 4999), (0, 0))
    tracemalloc.start()
    try:
        alg_A((5000, 4999), (0, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 500_000


def per_column_stages(alpha, nu):
    # Algorithm A with one stage per column through the public ranking and
    # column_seq, a lone row included: the reference for its batched tail
    stages = []
    while alpha:
        sigma = ranking(-1, alpha, nu)
        mu = column_seq(-1, alpha, nu, sigma)
        stages.append((alpha, nu, sigma, mu))
        keep = [i for i, a in enumerate(alpha) if a > 1]
        nu = tuple(nu[i] - mu[sigma[i] - 1] for i in keep)
        alpha = tuple(alpha[i] - 1 for i in keep)
    return stages


def lone_row_cases(rng):
    # single rows whose entry leaves remainder 0, 1 or a - 1 (negative
    # entries included), a longest row that outlives the rest, and staircases
    cases = []
    for a in (1, 2, 3, 7, 40, 301):
        for r in sorted({0, 1 % a, a - 1}):
            for q in (-3, 0, 2):
                cases.append(((a,), (q * a + r,)))
    for alpha in ((9, 3, 3), (300, 2), (17, 1), (12, 5, 5, 1), (60, 59)):
        for _ in range(6):
            cases.append((alpha, tuple(rng.randint(-40, 40) for _ in alpha)))
    for s in range(1, 16):
        cases.append((tuple(range(s, 0, -1)), tuple(rng.randint(-5, 5) for _ in range(s))))
    return cases


def test_alg_A_stages_match_per_column_stages():
    for alpha, nu in lone_row_cases(random.Random(61)):
        stages = alg_A_stages(alpha, nu)
        assert [tuple(s) for s in stages] == per_column_stages(alpha, nu)
        assert len(stages) == alpha[0]


def test_long_row_exact_values():
    # 123457 = 1 * 100000 + 23457: the balanced split is 2 for 23457 columns,
    # then 1; one row has no root offset, so all three maps give the split
    n = 100_000
    for nu, expected in ((0, (0,) * n), (123_457, (2,) * 23_457 + (1,) * 76_543)):
        assert alg_A((n,), (nu,)) == expected
        assert gamma_forward((n,), (nu,)) == expected
        assert gamma_via_diagrams((n,), (nu,)) == expected


def test_alg_A_stage_table_golden():
    stages = alg_A_stages([4, 3, 2, 1, 1], [15, 14, 9, 4, 4])
    assert [(s.alpha, s.nu, s.sigma, s.mu) for s in stages] == [
        ((4, 3, 2, 1, 1), (15, 14, 9, 4, 4), (4, 2, 1, 3, 5), (4, 4, 4, 4, 4)),
        ((3, 2, 1), (11, 10, 5), (3, 1, 2), (5, 5, 5)),
        ((2, 1), (6, 5), (2, 1), (5, 4)),
        ((1,), (2,), (1,), (2,)),
    ]


def test_non_dominant_stage_table_breaks_ties_by_row_index():
    # nu is out of order on the runs of 5s and 3s.  At the third stage rows 4
    # and 6 of the run of 1s tie at -1 and are picked by row index; sorting
    # each block of equal parts once at the start and mapping sigma back
    # would pick row 6 first, giving sigma (4, 3, 1, 6, 2, 5) there
    stages = alg_A_stages((6, 5, 5, 3, 3, 3, 1, 1, 1), (-2, 2, 6, -2, 1, -1, 4, 0, -2))
    assert [(s.alpha, s.nu, s.sigma, s.mu) for s in stages] == [
        ((6, 5, 5, 3, 3, 3, 1, 1, 1), (-2, 2, 6, -2, 1, -1, 4, 0, -2),
         (6, 4, 2, 8, 3, 7, 1, 5, 9), (4, 0, 0, 0, 0, 0, 0, 0, -2)),
        ((5, 4, 4, 2, 2, 2), (-2, 2, 6, -2, 1, -1), (4, 3, 2, 6, 1, 5), (1, 1, 0, 0, 0, -1)),
        ((4, 3, 3, 1, 1, 1), (-2, 2, 5, -1, 0, -1), (4, 3, 1, 5, 2, 6), (0, 0, 0, 0, -1, -1)),
        ((3, 2, 2), (-2, 2, 5), (3, 2, 1), (3, 1, 0)),
        ((2, 1, 1), (-2, 1, 2), (3, 2, 1), (2, 1, 0)),
        ((1,), (-2,), (1,), (-2,)),
    ]


def dominant_per_block(alpha, nu):
    out = []
    for _, block in groupby(range(len(alpha)), key=alpha.__getitem__):
        out += sorted((nu[i] for i in block), reverse=True)
    return tuple(out)


def test_stage_tables_match_ranking_and_column_seq():
    # alg_A_stages reads its classes off the runs of alpha, and ranking and
    # column_seq sort their rows: the two setups must agree at every stage.
    # Half the small inputs have nu out of order on some run; the staircase
    # has one row per class, the few-sizes family four classes of 25 rows
    rng = random.Random(73)
    cases = []
    for k in range(2000):
        while True:
            ell = rng.randint(1, 12)
            alpha = tuple(sorted((rng.randint(1, 6) for _ in range(ell)), reverse=True))
            nu = tuple(rng.randint(-9, 9) for _ in range(ell))
            if k % 2:
                cases.append((alpha, dominant_per_block(alpha, nu)))
                break
            if not is_dominant_wrt(nu, alpha):
                cases.append((alpha, nu))
                break
    few = tuple(size for lo in (14, 10, 6, 2) for size in [rng.randint(lo, lo + 3)] * 25)
    for alpha in (tuple(range(50, 0, -1)), few):
        nu = tuple(rng.randint(-9, 9) for _ in alpha)
        cases += [(alpha, dominant_per_block(alpha, nu)), (alpha, nu)]
    for alpha, nu in cases:
        for stage in alg_A_stages(alpha, nu):
            assert stage.sigma == ranking(-1, stage.alpha, stage.nu), (alpha, nu)
            assert stage.mu == column_seq(-1, stage.alpha, stage.nu, stage.sigma), (alpha, nu)


def test_block_sum_conservation_and_block_monotonicity():
    from lvbij import levi_blocks

    for alpha, nu in omega_pairs(6, 3):
        mu = alg_A(alpha, nu)
        assert sum(mu) == sum(nu)
        for block in levi_blocks(mu, alpha):
            assert list(block) == sorted(block, reverse=True)


def test_gamma_forward_examples():
    assert gamma_forward([4, 3, 2, 1, 1], [15, 14, 9, 4, 4]) == (8, 7, 6, 6, 5, 4, 3, 3, 2, 2, 0)
    assert gamma_forward([1, 1], [0, 0]) == (1, -1)
    assert gamma_forward([2, 1], [5, 1]) == (3, 3, 0)


def test_gl2_closed_forms():
    for v1 in range(-10, 11):
        assert alg_A([2], [v1]) == (ceil_half(v1), floor_half(v1))
        assert gamma_forward([2], [v1]) == (ceil_half(v1), floor_half(v1))
        for v2 in range(-10, v1 + 1):
            assert alg_A([1, 1], [v1, v2]) == (v1, v2)
            assert gamma_forward([1, 1], [v1, v2]) == (v1 + 1, v2 - 1)


def test_two_one_closed_form():
    for v1 in range(-10, 11):
        for v2 in range(-10, 11):
            got_mu = alg_A([2, 1], [v1, v2])
            got_gamma = gamma_forward([2, 1], [v1, v2])
            if v1 >= 2 * v2:
                assert got_mu == (ceil_half(v1 - 1), v2, floor_half(v1 + 1))
                assert got_gamma == (ceil_half(v1 + 1), floor_half(v1 + 1), v2 - 1)
            else:
                assert got_mu == (v2, ceil_half(v1 + 1), floor_half(v1 - 1))
                assert got_gamma == (v2 + 1, ceil_half(v1 - 1), floor_half(v1 - 1))


def test_norm_subtlety_inferior_candidate():
    # balancing each row on its own can beat the algorithm's raw norm but
    # loses after the root offset is added
    mu = alg_A([3, 2, 2, 1], [15, 8, 8, 4])
    naive = (5, 4, 4, 4, 5, 4, 4, 5)
    rho2 = two_rho([3, 2, 2, 1])
    assert norm_sq(naive) < norm_sq(mu)
    shifted_naive = [a + r for a, r in zip(naive, rho2)]
    shifted_mu = [a + r for a, r in zip(mu, rho2)]
    assert shifted_mu == [7, 5, 3, 1, 7, 4, 2, 6]
    assert shifted_naive == [8, 5, 3, 1, 7, 4, 2, 5]
    assert norm_sq(shifted_mu) == 189
    assert norm_sq(shifted_mu) < norm_sq(shifted_naive)


def test_gamma_forward_matches_dom_of_shifted_weight():
    for alpha, nu in omega_pairs(5, 3):
        mu = alg_A(alpha, nu)
        rho2 = two_rho(alpha)
        assert gamma_forward(alpha, nu) == dom(a + r for a, r in zip(mu, rho2))


def test_deep_single_row_under_default_recursion_limit():
    # one stage per column: a row longer than the recursion limit must still work
    assert gamma_forward([1200], [0]) == (0,) * 1200
    assert gamma_forward([1200], [2401]) == (3,) + (2,) * 1199
    assert alg_A([1200], [-1]) == (0,) * 1199 + (-1,)


def test_zero_orbit_closed_form_at_scale():
    # gamma(1^l, nu) = dom(nu + 2rho) with 2rho = (l-1, l-3, ..., 1-l); all 5000
    # rows have one length, so each stage ranks a single class
    rng = random.Random(47)
    ell = 5000
    nu = sorted((rng.randint(-20, 20) for _ in range(ell)), reverse=True)
    rho2 = range(ell - 1, -ell, -2)
    assert gamma_forward([1] * ell, nu) == dom(v + r for v, r in zip(nu, rho2, strict=True))
