import random
from itertools import permutations

import pytest

from lvbij import (
    WeightDiagram,
    alg_W,
    branch_plan,
    concat,
    dom,
    e_map,
    eta,
    gamma_via_diagrams,
    is_distinguished,
    kappa,
    omega_pairs,
    row_survival,
)


def test_row_survival_examples():
    assert row_survival([4, 3, 2, 1, 1], (4, 2, 1, 3, 5), [4, 4, 4, 4, 4]) == (
        (1, 1), (1, 2), (1, 0), (1, 3), (1, 0),
    )
    assert row_survival([1, 2, 3], (1, 2, 3), [5, 5, 4]) == ((1, 0), (1, 1), (2, 1))
    assert row_survival([1], (1,), [7]) == ((1, 0),)


def test_row_survival_rejects_non_monotone_iota():
    with pytest.raises(ValueError):
        row_survival([1, 2], (1, 2), [3, 4])


def test_alg_W_golden_example():
    pair = alg_W([4, 3, 2, 1, 1], [15, 14, 9, 4, 4], -1)
    assert pair.left == WeightDiagram([[4, 5], [4, 5, 5], [4], [4, 4, 4, 3], [4]])
    assert pair.right == WeightDiagram([[8, 7], [6, 5, 6], [4], [2, 2, 3, 3], [0]])


def test_alg_W_floor_example():
    pair = alg_W([1, 2, 3], [5, 10, 11], 1)
    assert pair.left == WeightDiagram([[5], [5, 5], [4, 4, 3]])
    assert pair.right == WeightDiagram([[7], [5, 6], [2, 3, 3]])


def test_alg_W_single_box():
    for eps in (-1, 1):
        pair = alg_W([1], [9], eps)
        assert pair.left == WeightDiagram([[9]])
        assert pair.right == WeightDiagram([[9]])


def test_alg_W_deep_single_row():
    # one worklist node per column: a row longer than the recursion limit must still work
    for eps in (-1, 1):
        pair = alg_W([1200], [0], eps)
        assert pair.left == pair.right == WeightDiagram([[0] * 1200])
    assert alg_W([1200], [1201], -1).right == WeightDiagram([[2] + [1] * 1199])


def test_alg_W_validation():
    with pytest.raises(ValueError):
        alg_W([], [], -1)
    with pytest.raises(ValueError):
        alg_W([0, 1], [1, 1], -1)
    with pytest.raises(ValueError):
        alg_W([1], [1], 2)


def test_branch_plan_golden():
    plan = branch_plan([1, 2, 3], [5, 10, 11], 1)
    assert plan.sigma == (1, 2, 3)
    assert plan.iota == (5, 5, 4)
    assert plan.k == 2
    assert plan.survivor_rows == ((2,), (3,))
    assert plan.sub_alpha == ((1,), (2,))
    assert plan.sub_nu == ((5,), (7,))
    assert plan.sub_nu_hat == ((6,), (6,))
    assert plan.total_counts == (2, 1)


def test_branch_correction_over_many_rows_of_few_lengths():
    # each surviving row's residual entry is corrected by its min-overlaps with
    # the surviving rows of the other branches: minus those before, plus those after
    rng = random.Random(43)
    for _ in range(60):
        ell = rng.randint(6, 30)
        lengths = rng.sample(range(1, 7), rng.randint(1, 3))
        alpha = [rng.choice(lengths) for _ in range(ell)]
        nu = [rng.randint(-3, 3) for _ in range(ell)]
        for eps in (-1, 1):
            plan = branch_plan(alpha, nu, eps)
            expected = []
            for x in range(plan.k):
                hat = []
                for a, v in zip(plan.sub_alpha[x], plan.sub_nu[x]):
                    for xp, sub in enumerate(plan.sub_alpha):
                        if xp != x:
                            sign = -1 if xp < x else 1
                            v += sign * sum(min(a, b) for b in sub)
                    hat.append(v)
                expected.append(tuple(hat))
            assert plan.sub_nu_hat == tuple(expected)


def test_gamma_via_diagrams_examples():
    assert gamma_via_diagrams([4, 3, 2, 1, 1], [15, 14, 9, 4, 4]) == (
        8, 7, 6, 6, 5, 4, 3, 3, 2, 2, 0,
    )
    assert gamma_via_diagrams([2], [7]) == (4, 3)
    assert gamma_via_diagrams([1, 1], [0, 0]) == (1, -1)


def test_permutation_invariance_exhaustive_small():
    rng = random.Random(17)
    for _ in range(60):
        ell = rng.randint(1, 4)
        alpha = [rng.randint(1, 3) for _ in range(ell)]
        nu = [rng.randint(-4, 4) for _ in range(ell)]
        expected = {eps: alg_W(alpha, nu, eps) for eps in (-1, 1)}
        for perm in permutations(range(ell)):
            beta = [alpha[i] for i in perm]
            xi = [nu[i] for i in perm]
            for eps in (-1, 1):
                assert alg_W(beta, xi, eps) == expected[eps]


def test_pair_coherence_and_kappa_recovery():
    for alpha, nu in omega_pairs(5, 3):
        for eps in (-1, 1):
            pair = alg_W(alpha.parts, nu, eps)
            assert e_map(pair.left) == pair.right
        assert kappa(alg_W(alpha.parts, nu, -1).left) == nu


def test_multiset_conservation():
    rng = random.Random(23)
    for _ in range(200):
        ell = rng.randint(1, 5)
        alpha = [rng.randint(1, 4) for _ in range(ell)]
        nu = [rng.randint(-5, 5) for _ in range(ell)]
        for eps in (-1, 1):
            X = alg_W(alpha, nu, eps).left
            got = sorted((len(row), sum(row)) for row in X.rows)
            assert got == sorted(zip(alpha, nu))


def test_adjacency_differences():
    rng = random.Random(29)
    for _ in range(200):
        ell = rng.randint(1, 5)
        alpha = [rng.randint(1, 4) for _ in range(ell)]
        nu = [rng.randint(-5, 5) for _ in range(ell)]
        for eps in (-1, 1):
            Y = alg_W(alpha, nu, eps).right
            for row in Y.rows:
                for j in range(1, len(row)):
                    assert row[j] - row[j - 1] in (0, eps * (-1) ** (j + 1))


def test_distinguished_by_parity():
    for alpha, nu in omega_pairs(5, 2):
        assert is_distinguished(alg_W(alpha.parts, nu, -1).left, "odd")
        assert is_distinguished(alg_W(alpha.parts, nu, 1).left, "even")


def test_extremal_entries_when_first_column_constant():
    rng = random.Random(31)
    checked = 0
    while checked < 80:
        ell = rng.randint(1, 5)
        alpha = [rng.randint(1, 4) for _ in range(ell)]
        nu = [rng.randint(-5, 5) for _ in range(ell)]
        for eps in (-1, 1):
            pair = alg_W(alpha, nu, eps)
            X, Y = pair.left, pair.right
            if len({row[0] for row in X.rows}) != 1:
                continue
            checked += 1
            entries = [v for row in Y.rows for v in row]
            if eps == -1:
                assert Y.rows[0][0] == max(entries)
            else:
                assert Y.rows[-1][0] == min(entries)


def test_cat_decomposition_over_full_branches():
    # the right diagram splits as the concatenation of the outputs on the
    # unfiltered branch inputs, recursed with the same rounding mode
    rng = random.Random(37)
    for _ in range(150):
        ell = rng.randint(1, 5)
        alpha = [rng.randint(1, 4) for _ in range(ell)]
        nu = [rng.randint(-5, 5) for _ in range(ell)]
        for eps in (-1, 1):
            plan = branch_plan(alpha, nu, eps)
            inv = [0] * ell
            for i, p in enumerate(plan.sigma, start=1):
                inv[p - 1] = i
            # branch x holds every position whose iota value is the x-th distinct one
            full_rows = [[] for _ in range(plan.k)]
            x = 0
            for i, value in enumerate(plan.iota, start=1):
                if i > 1 and value != plan.iota[i - 2]:
                    x += 1
                full_rows[x].append(i)
            full_alpha = [
                tuple(alpha[inv[i - 1] - 1] for i in rows) for rows in full_rows
            ]
            full_nu = [
                tuple(nu[inv[i - 1] - 1] for i in rows) for rows in full_rows
            ]
            pieces = []
            for x in range(plan.k):
                hat = []
                for a, v in zip(full_alpha[x], full_nu[x]):
                    v -= sum(min(a, b) for xp in range(x) for b in full_alpha[xp])
                    v += sum(min(a, b) for xp in range(x + 1, plan.k) for b in full_alpha[xp])
                    hat.append(v)
                pieces.append(alg_W(full_alpha[x], hat, eps).right)
            assert concat(*pieces) == alg_W(alpha, nu, eps).right


def test_eta_of_right_equals_dom_shift_of_left():
    from lvbij import h_weight, two_rho

    for alpha, nu in omega_pairs(5, 2):
        pair = alg_W(alpha.parts, nu, -1)
        rho2 = two_rho(alpha)
        assert eta(pair.right) == dom(a + r for a, r in zip(h_weight(pair.left), rho2))


def test_zero_orbit_closed_form_at_scale():
    # eta of the right diagram is gamma(1^l, nu) = dom(nu + 2rho), with
    # 2rho = (l-1, l-3, ..., 1-l)
    rng = random.Random(53)
    ell = 5000
    nu = sorted((rng.randint(-20, 20) for _ in range(ell)), reverse=True)
    rho2 = range(ell - 1, -ell, -2)
    expected = dom(v + r for v, r in zip(nu, rho2, strict=True))
    assert eta(alg_W([1] * ell, nu, -1).right) == expected
