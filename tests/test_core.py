import pytest

from lvbij import (
    Partition,
    alg_W,
    dom,
    gamma_forward,
    gamma_inverse,
    is_dominant_wrt,
    levi_blocks,
    norm_sq,
    partitions_of,
    two_rho,
    validate_omega_pair,
)


def test_conjugate_examples():
    assert Partition([4, 3, 2, 1, 1]).conjugate() == (5, 3, 2, 1)
    assert Partition([3, 2, 2, 1]).conjugate() == (4, 3, 1)
    assert Partition([1]).conjugate() == (1,)


def test_conjugate_involution_small():
    for n in range(1, 13):
        for alpha in partitions_of(n):
            assert alpha.conjugate().conjugate() == alpha
            assert alpha.conjugate().n == alpha.n


def test_dom_examples():
    assert dom([1, 3, 2]) == (3, 2, 1)
    assert dom([5, 5, 5]) == (5, 5, 5)
    assert dom([0, -2, 1]) == (1, 0, -2)
    assert dom([]) == ()


def test_dom_idempotent_and_multiset_preserving():
    seqs = [(3, -1, -1, 7), (0,), (2, 2, 2), (5, -5, 0, 5, -5)]
    for seq in seqs:
        out = dom(seq)
        assert dom(out) == out
        assert sorted(out) == sorted(seq)


def test_two_rho_examples():
    assert two_rho([2, 1]) == (1, -1, 0)
    assert two_rho([4, 3, 2, 1, 1]) == (4, 2, 0, -2, -4, 2, 0, -2, 1, -1, 0)
    assert two_rho([1]) == (0,)


def test_two_rho_blocks_sum_to_zero():
    for n in range(1, 10):
        for alpha in partitions_of(n):
            rho2 = two_rho(alpha)
            assert len(rho2) == alpha.n
            for block in levi_blocks(rho2, alpha):
                assert sum(block) == 0
                # reversing a block negates it
                assert tuple(reversed(block)) == tuple(-v for v in block)


def test_norm_sq_examples():
    assert norm_sq([7, 5, 3, 1, 7, 4, 2, 6]) == 189
    assert norm_sq([]) == 0
    assert norm_sq([-3]) == 9


def test_is_dominant_wrt_examples():
    assert is_dominant_wrt([15, 14, 9, 4, 4], [4, 3, 2, 1, 1])
    assert not is_dominant_wrt([1, 2], [2, 2])
    assert is_dominant_wrt([1, 2], [2, 1])


def test_is_dominant_wrt_length_mismatch():
    with pytest.raises(ValueError):
        is_dominant_wrt([1, 2, 3], [2, 1])


def test_levi_blocks_examples():
    assert levi_blocks([4, 4, 4, 4, 4, 5, 5, 5, 5, 4, 2], [4, 3, 2, 1, 1]) == (
        (4, 4, 4, 4, 4),
        (5, 5, 5),
        (5, 4),
        (2,),
    )
    assert levi_blocks([7], [1]) == ((7,),)
    assert levi_blocks([4, 4, 4, 4, 5, 4, 4, 6], [3, 2, 2, 1]) == (
        (4, 4, 4, 4),
        (5, 4, 4),
        (6,),
    )


def test_levi_blocks_length_mismatch():
    with pytest.raises(ValueError):
        levi_blocks([1, 2, 3], [2, 2])


def test_levi_blocks_of_dominant_pair_are_weakly_decreasing():
    # any valid blockwise weight is weakly decreasing inside each block
    mu = (4, 4, 4, 4, 4, 5, 5, 5, 5, 4, 2)
    for block in levi_blocks(mu, [4, 3, 2, 1, 1]):
        assert list(block) == sorted(block, reverse=True)


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition([])
    with pytest.raises(ValueError):
        Partition([2, 3])
    with pytest.raises(ValueError):
        Partition([2, 0])
    with pytest.raises(ValueError):
        Partition([-1])
    with pytest.raises(TypeError):
        Partition([2.0, 1.0])


def test_partition_views():
    alpha = Partition([4, 3, 2, 1, 1])
    assert alpha.n == 11
    assert alpha.ell == 5
    assert alpha.s == 4
    assert alpha.distinct_parts() == ((4, 1), (3, 1), (2, 1), (1, 2))
    assert alpha == (4, 3, 2, 1, 1)
    assert alpha == [4, 3, 2, 1, 1]
    assert alpha[0] == 4 and alpha[-1] == 1
    assert alpha[1:3] == (3, 2)
    assert Partition([1]) != 1
    assert hash(alpha) == hash(Partition((4, 3, 2, 1, 1)))


def test_validate_omega_pair():
    pair = validate_omega_pair([2, 2], [3, 1])
    assert pair.alpha == (2, 2) and pair.nu == (3, 1)
    with pytest.raises(ValueError):
        validate_omega_pair([2, 2], [1, 3])
    with pytest.raises(ValueError):
        validate_omega_pair([2, 2], [1])


def test_integer_likes_give_plain_ints_and_bool_float_are_refused():
    np = pytest.importorskip("numpy")
    alpha, nu = [4, 3, 2, 1, 1], [15, 14, 9, 4, 4]
    lam = gamma_forward(np.array(alpha, dtype=np.int64), np.array(nu, dtype=np.int64))
    assert lam == gamma_forward(alpha, nu)
    back = gamma_inverse(np.array(lam, dtype=np.int64))
    assert back == gamma_inverse(lam)
    pair = alg_W(np.array(alpha, dtype=np.int64), np.array(nu, dtype=np.int64), np.int64(-1))
    assert pair == alg_W(alpha, nu, -1)
    values = [*lam, *back.alpha, *back.nu, *(v for row in pair.right.rows for v in row)]
    assert all(type(v) is int for v in values)
    for bad in (2.0, True):
        with pytest.raises(TypeError):
            gamma_forward([2, bad], [1, 1])
        with pytest.raises(TypeError):
            gamma_forward([2], [bad])
        with pytest.raises(TypeError):
            gamma_inverse([3, bad])
    with pytest.raises(TypeError):
        alg_W([1], [1], True)
