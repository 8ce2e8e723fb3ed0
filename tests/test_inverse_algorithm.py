import random
from itertools import combinations

import pytest

from lvbij import (
    OmegaPair,
    Partition,
    WeightDiagram,
    alg_B,
    alg_W,
    clumps,
    eta,
    gamma_forward,
    gamma_inverse,
    is_dominant_wrt,
    kappa,
    majuscule_extract,
    omega_pairs,
)


def test_clumps_examples():
    assert clumps([8, 7, 6, 6, 5, 4, 3, 3, 2, 2, 0]) == (
        (8, 7, 6, 6, 5, 4, 3, 3, 2, 2), (0,),
    )
    assert clumps([5]) == ((5,),)
    assert clumps([7, 6, 5, 3, 3, 2]) == ((7, 6, 5), (3, 3, 2))


def test_clumps_validation():
    with pytest.raises(ValueError):
        clumps([])
    with pytest.raises(ValueError):
        clumps([1, 2])


def test_majuscule_extract_examples():
    assert majuscule_extract([8, 7, 6, 6, 5, 4, 3, 3, 2, 2], -1) == (
        (8, 6, 4, 2), (7, 6, 5, 3, 3, 2),
    )
    assert majuscule_extract([7, 6, 5], 1) == ((7, 5), (6,))
    assert majuscule_extract([0], -1) == ((0,), ())
    assert majuscule_extract([0], 1) == ((0,), ())


def exhaustive_majuscule(clump, eps):
    # value sequences of every longest anchored subsequence with gaps >= 2
    n = len(clump)
    anchor = 0 if eps == -1 else n - 1
    best: set[tuple[int, ...]] = set()
    best_size = 0
    for size in range(1, n + 1):
        for picked in combinations(range(n), size):
            if anchor not in picked:
                continue
            values = tuple(clump[i] for i in picked)
            if all(values[i] - values[i + 1] >= 2 for i in range(size - 1)):
                if size > best_size:
                    best, best_size = {values}, size
                elif size == best_size:
                    best.add(values)
    return best


def random_clump(rng, max_len=10):
    n = rng.randint(1, max_len)
    values = [rng.randint(-6, 6)]
    for _ in range(n - 1):
        values.append(values[-1] - rng.randint(0, 1))
    return values


def test_majuscule_extract_matches_exhaustive_search():
    # maximal-length value sequences need not be unique (from -6 in
    # [-6,-7,-8,-9] both (-6,-8) and (-6,-9) qualify), but the greedy pick
    # must be one of them, and only it admits the later attachment step
    rng = random.Random(41)
    for _ in range(300):
        clump = random_clump(rng)
        for eps in (-1, 1):
            longest = exhaustive_majuscule(clump, eps)
            got, rest = majuscule_extract(clump, eps)
            assert got in longest
            assert len(got) == max(len(seq) for seq in longest)
            assert sorted(got + rest) == sorted(clump)
            assert list(rest) == sorted(rest, reverse=True)


def test_alg_B_golden_example():
    assert alg_B([8, 7, 6, 6, 5, 4, 3, 3, 2, 2, 0], -1) == WeightDiagram(
        [[8, 7], [6, 5, 6], [4], [2, 2, 3, 3], [0]]
    )


def test_alg_B_floor_example():
    assert alg_B([7, 6, 5, 3, 3, 2], 1) == WeightDiagram([[7], [5, 6], [2, 3, 3]])


def test_alg_B_single_box():
    assert alg_B([4], -1) == WeightDiagram([[4]])


def test_gamma_inverse_examples():
    assert gamma_inverse([8, 7, 6, 6, 5, 4, 3, 3, 2, 2, 0]) == OmegaPair(
        Partition([4, 3, 2, 1, 1]), (15, 14, 9, 4, 4)
    )
    assert gamma_inverse([1, -1]) == OmegaPair(Partition([1, 1]), (0, 0))
    assert gamma_inverse([4, 3]) == OmegaPair(Partition([2]), (7,))


def test_gamma_inverse_validation():
    with pytest.raises(ValueError):
        gamma_inverse([])
    with pytest.raises(ValueError):
        gamma_inverse([1, 2])


def test_gamma_inverse_output_is_dominant():
    rng = random.Random(43)
    for _ in range(200):
        k = rng.randint(1, 7)
        lam = sorted((rng.randint(-6, 6) for _ in range(k)), reverse=True)
        alpha, nu = gamma_inverse(lam)
        assert is_dominant_wrt(nu, alpha)


def test_roundtrip_small():
    for alpha, nu in omega_pairs(5, 3):
        assert gamma_inverse(gamma_forward(alpha, nu)) == (alpha, nu)


def test_forward_of_inverse_small():
    rng = random.Random(47)
    for _ in range(300):
        k = rng.randint(1, 6)
        lam = tuple(sorted((rng.randint(-6, 6) for _ in range(k)), reverse=True))
        alpha, nu = gamma_inverse(lam)
        assert gamma_forward(alpha, nu) == lam


def test_section_agreement_small():
    rng = random.Random(53)
    for _ in range(200):
        k = rng.randint(1, 6)
        lam = tuple(sorted((rng.randint(-5, 5) for _ in range(k)), reverse=True))
        alpha, nu = gamma_inverse(lam)
        assert alg_B(lam, -1) == alg_W(alpha.parts, nu, -1).right


def test_deep_inputs_under_default_recursion_limit():
    # one stack entry per column: 1200 equal entries give a single row of 1200 boxes
    assert alg_B((0,) * 1200, -1) == WeightDiagram([[0] * 1200])
    assert gamma_inverse([0] * 1200) == ((1200,), (0,))


def random_partition(rng, n, largest):
    parts = []
    while n:
        parts.append(rng.randint(1, min(n, largest)))
        n -= parts[-1]
    return sorted(parts, reverse=True)


def test_roundtrip_large_random():
    # wide and tall shapes up to n = 2000, each map checked against the others
    rng = random.Random(59)
    for n, largest in ((2000, 2000), (2000, 40), (1000, 300), (500, 5)):
        alpha = random_partition(rng, n, largest)
        nu = [rng.randint(-9, 9) for _ in alpha]
        for i in range(1, len(alpha)):
            if alpha[i] == alpha[i - 1]:
                nu[i] = min(nu[i], nu[i - 1])
        lam = gamma_forward(alpha, nu)
        assert gamma_inverse(lam) == (alpha, tuple(nu))
        pair = alg_W(alpha, nu, -1)
        assert kappa(pair.left) == tuple(nu)
        assert eta(pair.right) == lam
