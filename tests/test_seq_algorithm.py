import random

import pytest

from lvbij import (
    alg_A,
    alg_A_stages,
    branch_plan,
    candidate,
    column_seq,
    dom,
    gamma_forward,
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


def test_ranking_and_column_seq_match_naive_transcription():
    rng = random.Random(7)
    for _ in range(250):
        ell = rng.randint(1, 5)
        alpha = [rng.randint(1, 4) for _ in range(ell)]
        nu = [rng.randint(-6, 6) for _ in range(ell)]
        for eps in (-1, 1):
            sigma = ranking(eps, alpha, nu)
            assert sigma == naive_ranking(eps, alpha, nu)
            assert column_seq(eps, alpha, nu, sigma) == naive_column_seq(eps, alpha, nu, sigma)
            assert branch_plan(alpha, nu, eps).iota == naive_column_seq(eps, alpha, nu, sigma)


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


def test_alg_A_stage_table_golden():
    stages = alg_A_stages([4, 3, 2, 1, 1], [15, 14, 9, 4, 4])
    assert [(s.alpha, s.nu, s.sigma, s.mu) for s in stages] == [
        ((4, 3, 2, 1, 1), (15, 14, 9, 4, 4), (4, 2, 1, 3, 5), (4, 4, 4, 4, 4)),
        ((3, 2, 1), (11, 10, 5), (3, 1, 2), (5, 5, 5)),
        ((2, 1), (6, 5), (2, 1), (5, 4)),
        ((1,), (2,), (1,), (2,)),
    ]


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
