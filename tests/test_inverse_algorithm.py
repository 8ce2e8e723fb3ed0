import random
from itertools import combinations

import pytest

from lvbij import inverse_algorithm
from lvbij import (
    OmegaPair,
    Partition,
    WeightDiagram,
    alg_B,
    alg_W,
    clumps,
    e_inverse,
    eta,
    gamma_forward,
    gamma_inverse,
    is_dominant_wrt,
    kappa,
    majuscule_extract,
    omega_pairs,
    shape_class,
    two_rho,
)


def test_clumps_examples():
    assert clumps([8, 7, 6, 6, 5, 4, 3, 3, 2, 2, 0]) == (
        (8, 7, 6, 6, 5, 4, 3, 3, 2, 2), (0,),
    )
    assert clumps([5]) == ((5,),)
    assert clumps([7, 6, 5, 3, 3, 2]) == ((7, 6, 5), (3, 3, 2))


# weights that are empty or not weakly decreasing, with the message each
# inverse entry point gives: a rise at the first pair, right after a run, and
# at the last pair, which the run scan meets at its first, a middle and its
# last run
BAD_WEIGHTS = [
    ([], "the input weight must be non-empty"),
    *((lam, f"the input weight must be weakly decreasing, got {lam}")
      for lam in ([1, 2], [3, 3, 2, 2, 3], [5, 4, 4, 5])),
]


def test_clumps_validation():
    for lam, message in BAD_WEIGHTS:
        for call in (lambda: clumps(lam), lambda: majuscule_extract(lam, -1),
                     lambda: majuscule_extract(lam, 1)):
            with pytest.raises(ValueError) as refused:
                call()
            assert str(refused.value) == message


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
    for lam, message in BAD_WEIGHTS:
        for call in (lambda: gamma_inverse(lam), lambda: alg_B(lam, -1), lambda: alg_B(lam, 1)):
            with pytest.raises(ValueError) as refused:
                call()
            assert str(refused.value) == message


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


def entrywise_alg_B(lam, eps):
    # the entry-by-entry construction Algorithm B ran before it worked on
    # value runs: clumps cut by position, a greedy extraction over entry
    # indices, and a scan of the parent's first column for each attachment
    def split(lam):
        out, start = [], 0
        for i in range(1, len(lam)):
            if lam[i - 1] - lam[i] >= 2:
                out.append(lam[start:i])
                start = i
        return out + [lam[start:]]

    def extract(clump, eps):
        order = range(len(clump)) if eps == -1 else reversed(range(len(clump)))
        taken = []
        for idx in order:
            if not taken or eps * (clump[idx] - clump[taken[-1]]) >= 2:
                taken.append(idx)
        taken = sorted(taken)
        rest = tuple(v for i, v in enumerate(clump) if i not in taken)
        return tuple(clump[i] for i in taken), rest

    rows = []
    work = [(tuple(lam), eps, None)]
    while work:
        lam, eps, targets = work.pop()
        used = set()
        for clump in split(lam):
            first_col, remainder = extract(clump, eps)
            placed = []
            for value in first_col:
                if targets is None:
                    rows.append([])
                    row = rows[-1]
                else:
                    matches = [i for i, (t, _) in enumerate(targets) if value - t in (0, -eps)]
                    assert len(matches) == 1 and matches[0] not in used
                    used.add(matches[0])
                    row = targets[matches[0]][1]
                row.append(value)
                placed.append((value, row))
            if remainder:
                work.append((remainder, -eps, placed))
    return WeightDiagram(rows)


def seeded_weights(rng):
    # short weights of every spread; long ones built from runs of 200 or more
    # equal entries; long dense ones over a contiguous range, where a clump
    # repeats its levels until a run empties; and two-value splits into
    # nearly balanced runs, where a period takes one entry of each value
    for _ in range(400):
        k = rng.randint(1, 30)
        span = rng.randint(0, 12)
        yield tuple(sorted((rng.randint(0, span) for _ in range(k)), reverse=True))
    for _ in range(12):
        values = sorted(rng.sample(range(-8, 8), rng.randint(1, 4)), reverse=True)
        yield tuple(v for v in values for _ in range(rng.randint(200, 260)))
    for _ in range(8):
        k = rng.randint(600, 1000)
        lo = rng.randint(-3, 2)
        hi = min(3, lo + rng.randint(1, 6))
        yield tuple(sorted((rng.randint(lo, hi) for _ in range(k)), reverse=True))
    for _ in range(8):
        v, m = rng.randint(-3, 3), rng.randint(100, 300)
        yield (v,) * (m + rng.randint(-2, 2)) + (v - 1,) * m
    # every gap at least 2, so every clump is one entry; and one-entry clumps
    # between clumps of long runs, whose lower levels attach one-entry clumps
    for _ in range(40):
        lam = [rng.randint(-20, 20)]
        for _ in range(rng.randint(0, 60)):
            lam.append(lam[-1] - rng.randint(2, 4))
        yield tuple(lam)
    for _ in range(40):
        lam = []
        for _ in range(rng.randint(1, 8)):
            v = lam[-1] - rng.randint(2, 3) if lam else rng.randint(-10, 30)
            if rng.random() < 0.5:
                lam.append(v)
            else:
                for _ in range(rng.randint(1, 4)):
                    lam += [v] * rng.randint(1, 40)
                    v -= rng.randint(0, 1)
        yield tuple(lam)
    # several clumps [x+2]^m, [x+1]^c, [x]^m with a different m each: a
    # clump's outer runs lose one entry per level and empty at its level m,
    # so the clumps empty runs at staggered levels
    for _ in range(30):
        sizes = [rng.randint(2, 30) for _ in range(rng.randint(2, 6))]
        lam, x = [], rng.randint(10, 40)
        for m in sizes:
            lam += [x + 2] * m + [x + 1] * rng.randint(1, 3) + [x] * m
            x -= rng.randint(4, 6)
        yield tuple(lam)
    # clumps over contiguous values with short runs among long ones: a short
    # run empties within the first levels and splits its clump part-way
    for _ in range(30):
        lam, v = [], rng.randint(0, 30)
        for _ in range(rng.randint(1, 3)):
            for _ in range(rng.randint(3, 8)):
                lam += [v] * (rng.randint(1, 3) if rng.random() < 0.4 else rng.randint(8, 40))
                v -= 1
            v -= rng.randint(1, 3)
        yield tuple(lam)


def test_alg_B_matches_entrywise_construction():
    rng = random.Random(61)
    for lam in seeded_weights(rng):
        for eps in (-1, 1):
            assert alg_B(lam, eps) == entrywise_alg_B(lam, eps), (lam, eps)


def test_periods_wait_for_both_attachments(monkeypatch):
    # a batch of periods repeats the attachments F' -> F and F -> F' of the
    # last two levels, so it may start only once both have run and been
    # checked: at the third level that emptied no run, when each row of a
    # top-level clump holds the three entries of its first three levels
    first_batch = {}
    repeat_periods = inverse_algorithm._repeat_periods

    def recording(runs, placed):
        first_batch.setdefault("lengths", {len(row) for row in placed.values()})
        repeat_periods(runs, placed)

    monkeypatch.setattr(inverse_algorithm, "_repeat_periods", recording)
    for lam in ((0,) * 50, (1,) * 40 + (0,) * 40, (3,) * 30 + (2,) * 31 + (1,) * 30):
        for eps in (-1, 1):
            first_batch.clear()
            assert alg_B(lam, eps) == entrywise_alg_B(lam, eps)
            assert first_batch["lengths"] == {3}, (lam, eps)


@pytest.mark.parametrize("eps", [-1, 1])
@pytest.mark.parametrize("free_targets", [0, 2])
def test_attachment_needs_exactly_one_free_target(monkeypatch, eps, free_targets):
    # no input reaches the attachment check, so the extraction is patched:
    # [5, 4, 4] takes one column at the top and attaches the next one to it;
    # shifting that column far away leaves an entry no target, and adding
    # the top column's neighbour on the attaching side gives one entry two
    extract = inverse_algorithm._majuscule_extract
    columns = []

    def patched(clump, node_eps):
        taken, remainder = extract(clump, node_eps)
        columns.append(taken)
        if len(columns) == 1 and free_targets == 2:
            taken = taken + [taken[-1] + eps]
        elif len(columns) == 2 and free_targets == 0:
            taken = [v + 10 for v in taken]
        return taken, remainder

    monkeypatch.setattr(inverse_algorithm, "_majuscule_extract", patched)
    with pytest.raises(inverse_algorithm.InternalConsistencyError,
                       match=f"has {free_targets} free attachment targets"):
        alg_B([5, 4, 4], eps)


def test_gamma_inverse_reads_the_unshifted_diagram():
    rng = random.Random(67)
    for lam in seeded_weights(rng):
        X = e_inverse(alg_B(lam, -1))
        assert gamma_inverse(lam) == (shape_class(X), kappa(X)), lam


def test_inverse_of_long_inputs():
    # 10^5 equal entries repeat one period about n/2 times; the image of
    # 1^100000 is 10^5 one-entry clumps; a dense weight of 10^5 entries over
    # seven values runs several clumps and periods
    assert gamma_inverse((0,) * 100000) == ((100000,), (0,))
    assert gamma_inverse(two_rho((1,) * 100000)) == ((1,) * 100000, (0,) * 100000)
    rng = random.Random(71)
    lam = tuple(sorted((rng.randint(-3, 3) for _ in range(100000)), reverse=True))
    alpha, nu = gamma_inverse(lam)
    assert gamma_forward(alpha, nu) == lam


def test_deep_inputs_under_default_recursion_limit():
    # 1200 equal entries give a single row of 1200 boxes, with no recursion
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
