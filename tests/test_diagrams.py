import random
from itertools import permutations, product

import pytest

from lvbij import (
    WeightDiagram,
    alg_W,
    concat,
    dom,
    e_inverse,
    e_map,
    eta,
    h_weight,
    is_dominant_wrt,
    is_distinguished,
    kappa,
    omega_pairs,
    parse_diagram,
    partitions_of,
    render_diagram,
    shape_class,
    truncate_columns,
    two_rho,
)

GOLDEN_X = [[4, 5], [4, 5, 5], [4], [4, 4, 4, 3], [4]]
GOLDEN_Y = [[8, 7], [6, 5, 6], [4], [2, 2, 3, 3], [0]]


def test_weight_diagram_validation():
    with pytest.raises(ValueError):
        WeightDiagram([[1], []])
    with pytest.raises(TypeError):
        WeightDiagram([[1.5]])
    assert WeightDiagram([]).rows == ()


def test_e_map_examples():
    assert e_map(GOLDEN_X) == WeightDiagram(GOLDEN_Y)
    assert e_map([[3]]) == WeightDiagram([[3]])
    assert e_map([[4], [9]]) == WeightDiagram([[5], [8]])


def test_e_inverse_examples():
    assert e_inverse(GOLDEN_Y) == WeightDiagram(GOLDEN_X)
    assert e_inverse([[3]]) == WeightDiagram([[3]])
    assert e_inverse([[5], [8]]) == WeightDiagram([[4], [9]])


def random_diagram(rng, max_boxes=9, bound=5):
    n = rng.randint(1, max_boxes)
    rows = []
    while n > 0:
        k = rng.randint(1, n)
        rows.append([rng.randint(-bound, bound) for _ in range(k)])
        n -= k
    rng.shuffle(rows)
    return WeightDiagram(rows)


def test_e_roundtrip_exhaustive_small():
    # every arrangement of up to 3 boxes, entries in a small band
    shapes = [[(1,)], [(2,), (1, 1)], [(3,), (2, 1), (1, 2), (1, 1, 1)]]
    for group in shapes:
        for lengths in group:
            for entries in product(range(-2, 3), repeat=sum(lengths)):
                rows = []
                pos = 0
                for k in lengths:
                    rows.append(entries[pos : pos + k])
                    pos += k
                X = WeightDiagram(rows)
                assert e_inverse(e_map(X)) == X
                assert e_map(e_inverse(X)) == X


def test_e_roundtrip_random():
    rng = random.Random(3)
    for _ in range(300):
        X = random_diagram(rng)
        assert e_inverse(e_map(X)) == X


def test_kappa_examples():
    assert kappa(GOLDEN_X) == (15, 14, 9, 4, 4)
    assert kappa([[1, 1], [0, 0]]) == (2, 0)
    assert kappa([[1, 0], [0, 1]]) == (1, 1)
    assert kappa([[7]]) == (7,)


def test_h_weight_examples():
    assert h_weight(GOLDEN_X) == (4, 4, 4, 4, 4, 5, 5, 4, 5, 4, 3)
    assert h_weight([[1, 1], [0, 0]]) == (1, 0, 1, 0)
    assert h_weight([[1, 0], [0, 1]]) == (1, 0, 1, 0)
    assert h_weight([[7]]) == (7,)


def test_eta_examples():
    assert eta(GOLDEN_Y) == (8, 7, 6, 6, 5, 4, 3, 3, 2, 2, 0)
    assert eta([[7]]) == (7,)
    assert eta([[1, 2], [3]]) == (3, 2, 1)


def test_shape_class_examples():
    assert shape_class(GOLDEN_X) == (4, 3, 2, 1, 1)
    assert shape_class([[7]]) == (1,)
    assert shape_class([[1], [2, 2]]) == (2, 1)
    with pytest.raises(ValueError):
        shape_class([])


def test_truncate_columns_examples():
    assert truncate_columns(GOLDEN_X, 2) == WeightDiagram([[5], [5, 5], [4, 4, 3]])
    assert truncate_columns(GOLDEN_X, 1) == WeightDiagram(GOLDEN_X)
    assert truncate_columns(GOLDEN_X, 5) == WeightDiagram([])


def test_truncate_columns_composition():
    rng = random.Random(5)
    for _ in range(100):
        X = random_diagram(rng)
        for j in range(1, 4):
            for jp in range(1, 4):
                assert truncate_columns(truncate_columns(X, jp), j) == truncate_columns(
                    X, j + jp - 1
                )


def test_concat_examples():
    assert concat([[7], [5, 6]], [[2, 3, 3]]) == WeightDiagram([[7], [5, 6], [2, 3, 3]])
    assert concat(WeightDiagram(GOLDEN_X)) == WeightDiagram(GOLDEN_X)
    assert concat() == WeightDiagram([])


def test_is_distinguished_examples():
    assert is_distinguished(GOLDEN_X, "odd")
    assert not is_distinguished([[1, 0], [0, 1]], "odd")
    assert is_distinguished([[3]], "odd")
    with pytest.raises(ValueError):
        is_distinguished([[3]], "both")


def pairwise_is_distinguished(X, parity):
    # the four conditions checked pair by pair, as is_distinguished did
    # before it became two passes: every entry against every entry to its
    # right in its row, raisable/lowerable read off its column neighbours
    Y = e_map(X)
    cols = [Y.column(j) for j in range(1, max(Y.row_lengths(), default=0) + 1)]
    if any(a - b < 2 for col in cols for a, b in zip(col, col[1:])):
        return False
    eps = -1 if parity == "odd" else 1
    for row in Y.rows:
        for j in range(1, len(row)):
            if row[j] - row[j - 1] not in (0, eps if j % 2 == 1 else -eps):
                return False
    seen = [0] * len(cols)
    for row in Y.rows:
        for j, v in enumerate(row):
            col, p = cols[j], seen[j]
            seen[j] += 1
            raisable = p == 0 or col[p - 1] > v + 2
            lowerable = p == len(col) - 1 or col[p + 1] < v - 2
            for jp in range(j + 1, len(row)):
                w = row[jp]
                if (v <= w - 2 and raisable) or (v >= w + 2 and lowerable):
                    return False
                if j % 2 == jp % 2:
                    if (j % 2 == 0) == (parity == "odd"):
                        if v <= w - 1 and raisable:
                            return False
                    elif v >= w + 1 and lowerable:
                        return False
    return True


def stepped_rows(eps, start):
    # every row of 1 to 5 entries from start whose steps condition 1 allows
    rows = [[start]]
    for row in rows:
        if len(row) < 5:
            step = eps if len(row) % 2 == 1 else -eps
            rows += [row + [row[-1]], row + [row[-1] + step]]
    return rows


def two_row_diagrams():
    # e_inverse of every two-row diagram whose rows meet condition 1 for
    # either parity, the second row starting 2 to 5 below the first: the
    # column gaps of 2 or 3 decide which entries are raisable or lowerable
    for eps in (-1, 1):
        for top in stepped_rows(eps, 0):
            for start in range(-2, -6, -1):
                for bottom in stepped_rows(eps, start):
                    yield e_inverse([top, bottom])


def perturbed_outputs():
    # the left diagrams of Algorithm W in both parities, and each of them
    # with one box moved by -2, -1, 1 or 2
    for alpha, nu in omega_pairs(4, 2):
        for eps in (-1, 1):
            X = alg_W(alpha.parts, nu, eps).left
            yield X
            for i, row in enumerate(X.rows):
                for j in range(len(row)):
                    for d in (-2, -1, 1, 2):
                        rows = [list(r) for r in X.rows]
                        rows[i][j] += d
                        yield WeightDiagram(rows)


def test_is_distinguished_matches_pairwise_check():
    rng = random.Random(67)
    diagrams = [random_diagram(rng, max_boxes=12, bound=3) for _ in range(1500)]
    diagrams += two_row_diagrams()
    diagrams += perturbed_outputs()
    outcomes = set()
    for X in diagrams:
        for parity in ("odd", "even"):
            got = is_distinguished(X, parity)
            assert got == pairwise_is_distinguished(X, parity), (X, parity)
            outcomes.add((parity, got))
    assert len(outcomes) == 4


def test_kappa_dominant_and_sums_conserved():
    rng = random.Random(9)
    for _ in range(300):
        X = random_diagram(rng)
        kap = kappa(X)
        assert is_dominant_wrt(kap, shape_class(X))
        total = sum(v for row in X.rows for v in row)
        assert sum(kap) == total
        assert sum(h_weight(X)) == total


def test_row_permutation_fixes_kappa_and_h():
    # permuting whole rows of equal length changes neither map
    X = WeightDiagram([[3, 1], [2, 2], [0, 4], [9]])
    for perm in permutations(range(3)):
        rows = [X.rows[i] for i in perm] + [X.rows[3]]
        assert kappa(rows) == kappa(X)
        assert h_weight(rows) == h_weight(X)


def test_column_permutation_fixes_h_but_can_move_kappa():
    # the two fillings differ by swapping entries within the second column
    X1, X2 = [[1, 1], [0, 0]], [[1, 0], [0, 1]]
    assert h_weight(X1) == h_weight(X2)
    assert kappa(X1) != kappa(X2)


def column_sorted_diagram(rng):
    # column-decreasing diagrams arise from sorting each column of a filling
    shape = rng.choice([p for n in range(1, 8) for p in partitions_of(n)])
    columns = []
    for h in shape.conjugate():
        col = sorted((rng.randint(-5, 5) for _ in range(h)), reverse=True)
        columns.append(col)
    rows = []
    for i, length in enumerate(shape.parts):
        rows.append([columns[j][i] for j in range(length)])
    return WeightDiagram(rows), shape


def test_shift_compat_on_column_sorted_diagrams():
    # both sides computed and compared literally
    rng = random.Random(13)
    for _ in range(300):
        X, shape = column_sorted_diagram(rng)
        lhs = eta(e_map(X))
        rhs = dom(a + r for a, r in zip(h_weight(X), two_rho(shape)))
        assert lhs == rhs


def test_render_parse_roundtrip():
    X = WeightDiagram(GOLDEN_X)
    assert parse_diagram(render_diagram(X)) == X
    assert render_diagram([[1, -2], [3]]) == "1 -2\n3"
    assert parse_diagram("") == WeightDiagram([])
    with pytest.raises(ValueError):
        parse_diagram("1 2\n\n3")
