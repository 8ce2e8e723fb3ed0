"""Symmetries of the three maps, checked exhaustively on small bounds.

They check Algorithm A beyond the golden values, and they tie each rounding
mode eps of Algorithms W and B to the other one, so that a mistake made in
only one eps branch shows up.

- Twist: gamma(alpha, nu + c*alpha) = gamma(alpha, nu) + c.  This follows
  stage by stage from Algorithm A.  Adding c*a to the entry of each row of
  length a adds c to every candidate, since rounding commutes with adding
  an integer.  Within a length class the entries keep their order, so the
  ranking does not change, and every block entry and every clamp moves by c.
  A surviving row then keeps c*(a - 1) of its extra c*a, so the next stage
  is twisted by the same c.  dom commutes with adding c to every entry.
- Duality: gamma(alpha, nu*) = -w0 gamma(alpha, nu), where nu* reverses and
  negates nu within each block of equal parts of alpha and w0 reverses a
  weight.
- The two rounding modes: alg_W(alpha, nu, +1).right is
  alg_W(alpha, nu*, -1).right with every entry negated and the rows
  reversed; alg_B(lam, +1) and alg_B(-w0 lam, -1) with every entry negated
  have the same rows as multisets.

No argument is written down here for the duality and the two rounding
modes: they are measured invariants, which held on every input below.  The
duality of the distinguished predicate itself (the even predicate of X is
the odd one of X with its rows reversed and entries negated) is argued in
the docstring of is_distinguished, and test_diagrams checks it against the
pairwise transcription.

Past the small bounds, seeded inputs of a few scale families check, with no
timing gate, that the two forward maps agree and that the inverse undoes
them.  Up to n = 2000 they also check the twist, that alg_W's left diagram
is distinguished and recovers nu, and that alg_B gives its right diagram.
"""

import random
from collections import Counter
from itertools import combinations_with_replacement, groupby

import pytest

from lvbij import (
    alg_B,
    alg_W,
    gamma_forward,
    gamma_inverse,
    gamma_via_diagrams,
    is_distinguished,
    kappa,
    omega_pairs,
)

PAIRS = [(alpha.parts, nu) for alpha, nu in omega_pairs(6, 3)]
# all weakly decreasing weights of length <= 6 with entries in [-4, 4]
WEIGHTS = [lam for k in range(1, 7) for lam in combinations_with_replacement(range(4, -5, -1), k)]


def _star(alpha, nu):
    out = []
    for _, block in groupby(zip(alpha, nu), key=lambda row: row[0]):
        out.extend(-v for _, v in reversed(list(block)))
    return tuple(out)


def _negated(rows):
    return [tuple(-v for v in row) for row in rows]


def test_the_bounds_cover_every_input():
    assert len(PAIRS) == 6741
    assert len(WEIGHTS) == 5004
    assert _star((2, 2, 1), (3, 1, 5)) == (-1, -3, -5)


@pytest.mark.parametrize("c", [1, -2])
def test_twist_by_the_determinant(c):
    for alpha, nu in PAIRS:
        twisted = tuple(v + c * a for v, a in zip(nu, alpha))
        assert gamma_forward(alpha, twisted) == tuple(v + c for v in gamma_forward(alpha, nu)), (alpha, nu)


def test_duality():
    for alpha, nu in PAIRS:
        lam = gamma_forward(alpha, nu)
        assert gamma_forward(alpha, _star(alpha, nu)) == tuple(-v for v in reversed(lam)), (alpha, nu)


def test_alg_W_rounding_modes_are_dual():
    for alpha, nu in PAIRS:
        up = alg_W(alpha, nu, 1).right.rows
        down = alg_W(alpha, _star(alpha, nu), -1).right.rows
        assert list(up) == _negated(reversed(down)), (alpha, nu)


def test_alg_B_rounding_modes_are_dual():
    for lam in WEIGHTS:
        up = alg_B(lam, 1).rows
        down = alg_B(tuple(-v for v in reversed(lam)), -1).rows
        assert Counter(up) == Counter(_negated(down)), lam


def _few_sizes(rng):
    # 100 rows, 25 each of four sizes drawn from 14..17, 10..13, 6..9, 2..5
    return tuple(size for lo in (14, 10, 6, 2) for size in [rng.randint(lo, lo + 3)] * 25)


def test_scale_families_agree_invert_and_twist():
    # every stage ranks many classes on the staircases, one or two long
    # classes on 1^2000, 2^1000, 100^15, 1^100000 and 100^100, and four
    # classes of 25 rows on the few-sizes family; (100000) is one lone row.
    # nu is drawn dominant, per block of equal parts.  Up to n = 2000 the
    # twist is checked too, and the diagram pair (X, Y) of alg_W: X is
    # distinguished and recovers nu, and alg_B(lam) gives Y.
    rng = random.Random(67)
    families = [tuple(range(50, 0, -1)), (1,) * 2000, (2,) * 1000, (100,) * 15,
                _few_sizes(rng), _few_sizes(rng)]
    large = [tuple(range(200, 0, -1)), (1,) * 100_000, (100,) * 100, (100_000,)]
    for alpha in families + large:
        nu = []
        for _, block in groupby(alpha):
            nu += sorted((rng.randint(-9, 9) for _ in block), reverse=True)
        nu = tuple(nu)
        lam = gamma_forward(alpha, nu)
        assert gamma_via_diagrams(alpha, nu) == lam, alpha[:3]
        assert gamma_inverse(lam) == (alpha, nu), alpha[:3]
        if alpha in large:
            continue
        for c in (1, -2):
            twisted = tuple(v + c * a for v, a in zip(nu, alpha))
            assert gamma_forward(alpha, twisted) == tuple(v + c for v in lam), (alpha[:3], c)
        X, Y = alg_W(alpha, nu)
        assert kappa(X) == nu, alpha[:3]
        assert is_distinguished(X), alpha[:3]
        assert alg_B(lam) == Y, alpha[:3]
