import os
import subprocess
import sys
import textwrap
from itertools import permutations
from pathlib import Path

import pytest

import lvbij
from lvbij import (
    SearchSpaceError,
    WeightDiagram,
    alg_A,
    alg_W,
    default_window,
    distinguished_fillings,
    dominant_sequences,
    enumerate_fillings,
    h_weight,
    inverse_roundtrip_sweep,
    is_distinguished,
    min_norm_over_fillings,
    norm_sq,
    omega_pairs,
    oracle_sweep,
    partitions_of,
    roundtrip_sweep,
    two_rho,
)
from lvbij.oracle import _composition_count, _row_compositions


def test_partitions_of_counts():
    # partition numbers p(1)..p(10)
    expected = [1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    for n, count in enumerate(expected, start=1):
        assert len(list(partitions_of(n))) == count
    for alpha in partitions_of(8):
        assert alpha.n == 8


def test_dominant_sequences_respect_blocks():
    seqs = list(dominant_sequences([2, 2], 1))
    # pairs must be weakly decreasing: C(3+1, 2) = 6 of 9
    assert len(seqs) == 6
    assert all(a >= b for a, b in seqs)
    # distinct parts impose nothing
    assert len(list(dominant_sequences([2, 1], 1))) == 9


def test_negative_bounds_are_refused():
    # a negative bound would make every sweep an empty one that passes
    calls = [
        lambda: omega_pairs(-3, 2),
        lambda: omega_pairs(3, -1),
        lambda: dominant_sequences([2, 1], -1),
        lambda: roundtrip_sweep(-3, 2),
        lambda: oracle_sweep(3, -1),
        lambda: inverse_roundtrip_sweep(3, -1),
        lambda: inverse_roundtrip_sweep(-1, 2),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="must be >= 0"):
            call()
    assert list(omega_pairs(0, 2)) == []
    assert list(omega_pairs(2, 0)) == [((1,), (0,)), ((2,), (0,)), ((1, 1), (0, 0))]
    assert list(dominant_sequences([2, 1], 0)) == [(0, 0)]
    assert inverse_roundtrip_sweep(0, 2).cases == 0
    assert inverse_roundtrip_sweep(2, 0).cases == 2


def test_default_window():
    assert default_window([4, 3, 2, 1, 1]) == 5 + 4
    assert default_window([1]) == 2


def test_enumerate_fillings_forced():
    assert [f.rows for f in enumerate_fillings([1], [7], 0)] == [((7,),)]


def test_enumerate_fillings_two_compositions():
    assert [f.rows for f in enumerate_fillings([2], [7], 0)] == [((3, 4),), ((4, 3),)]


def test_enumerate_fillings_window_one():
    got = {f.rows for f in enumerate_fillings([2, 2], [2, 2], 1)}
    assert len(got) == 9
    assert ((1, 1), (1, 1)) in got
    assert ((2, 0), (1, 1)) in got
    assert ((0, 2), (2, 0)) in got
    for rows in got:
        assert all(sum(row) == 2 for row in rows)


def test_enumerate_fillings_search_space_guard():
    with pytest.raises(SearchSpaceError):
        list(enumerate_fillings([9, 9, 9, 9], [0, 0, 0, 0], 40))


def test_min_norm_examples():
    assert min_norm_over_fillings([3, 2, 2, 1], [15, 8, 8, 4], 3) == 189
    assert min_norm_over_fillings([1, 1], [3, 1], 0) == 16
    assert min_norm_over_fillings([1], [7], 0) == 49
    assert min_norm_over_fillings([1], [7], 5) == 49


def test_min_norm_matches_object_route():
    # the fast route agrees with computing h on the enumerated diagrams
    from lvbij import h_weight

    for alpha, nu in [((2, 1), (5, 1)), ((2, 2), (2, 0)), ((3,), (4,))]:
        rho2 = two_rho(alpha)
        window = default_window(alpha)
        best = min(
            norm_sq(a + r for a, r in zip(h_weight(f), rho2))
            for f in enumerate_fillings(alpha, nu, window)
        )
        assert best == min_norm_over_fillings(alpha, nu, window)


def naive_min_norm(alpha, nu, window):
    # the unpruned search: every in-window filling, norm of its column-sorted weight
    rho2 = two_rho(alpha)
    return min(
        norm_sq(a + r for a, r in zip(h_weight(f), rho2))
        for f in enumerate_fillings(alpha, nu, window)
    )


def naive_distinguished(alpha, nu, window):
    # the unpruned search: every in-window filling in every row order
    found = {
        WeightDiagram(rows)
        for f in enumerate_fillings(alpha, nu, window)
        for rows in set(permutations(f.rows))
        if is_distinguished(WeightDiagram(rows), "odd")
    }
    return sorted(found, key=lambda d: d.rows)


def test_pruned_searches_match_unpruned_search():
    for alpha, nu in omega_pairs(4, 2):
        window = default_window(alpha)
        for w in (0, 1, window, window + 2):
            if not list(enumerate_fillings(alpha, nu, w)):
                with pytest.raises(SearchSpaceError):
                    min_norm_over_fillings(alpha, nu, w)
                assert distinguished_fillings(alpha, nu, w) == []
                continue
            assert min_norm_over_fillings(alpha, nu, w) == naive_min_norm(alpha, nu, w)
            assert distinguished_fillings(alpha, nu, w) == naive_distinguished(alpha, nu, w)


def test_composition_count_matches_enumeration():
    # empty windows (hi < lo), windows shifted away from 0 and totals outside
    # every window included
    for length in range(1, 6):
        for total in range(-12, 13):
            for lo in range(-5, 5):
                for hi in range(lo - 2, lo + 7):
                    assert _composition_count(length, total, lo, hi) == len(
                        list(_row_compositions(length, total, lo, hi))
                    ), (length, total, lo, hi)


def test_pruned_searches_keep_the_search_space_guard():
    # the second input's count is about 5e18 fillings: the guard must refuse it
    # without counting them one window step at a time
    for alpha, nu, window in (([9, 9, 9, 9], [0, 0, 0, 0], 40), ([4], [0], 10**6)):
        with pytest.raises(SearchSpaceError):
            min_norm_over_fillings(alpha, nu, window)
        with pytest.raises(SearchSpaceError):
            distinguished_fillings(alpha, nu, window)


def test_distinguished_fillings_golden():
    got = distinguished_fillings([4, 3, 2, 1, 1], [15, 14, 9, 4, 4], 3)
    assert got == [WeightDiagram([[4, 5], [4, 5, 5], [4], [4, 4, 4, 3], [4]])]


def test_distinguished_fillings_trivial():
    assert distinguished_fillings([1], [4], 0) == [WeightDiagram([[4]])]


def test_distinguished_fillings_matches_algorithm():
    got = distinguished_fillings([2, 1], [5, 1], 2)
    assert got == [alg_W([2, 1], [5, 1], -1).left]


def test_roundtrip_sweep_examples():
    report = roundtrip_sweep(2, 2)
    assert report.ok
    assert report.cases == 5 + 5 + 15  # [1]; then [2] and [1,1] with bound 2
    tiny = roundtrip_sweep(1, 0)
    assert tiny.ok and tiny.cases == 1

    report = roundtrip_sweep(5, 4, extended=True)
    assert report.ok
    assert all(c.cases > 0 for c in report.checks.values())


def test_inverse_roundtrip_sweep_small():
    report = inverse_roundtrip_sweep(3, 3)
    assert report.ok
    assert report.cases == 7 + 28 + 84


def test_oracle_sweep_small():
    report = oracle_sweep(3, 2)
    assert report.ok
    assert set(report.checks) == {
        "min_norm_agreement",
        "window_stability",
        "uniqueness",
        "matches_algorithm",
    }


def test_window_stability_invariant_small():
    for alpha, nu in omega_pairs(4, 2):
        window = default_window(alpha)
        m1 = min_norm_over_fillings(alpha, nu, window)
        assert m1 == min_norm_over_fillings(alpha, nu, window + 2)
        rho2 = two_rho(alpha)
        assert m1 == norm_sq(a + r for a, r in zip(alg_A(alpha, nu), rho2))


def test_report_formatting():
    report = roundtrip_sweep(2, 1)
    text = report.format_text()
    assert "all checks passed" in text
    assert "roundtrip" in text


def test_reimporting_the_package_keeps_one_copy_alive():
    # subscripted typing generics are cached by typing; an Iterator[Partition]
    # annotation from typing would keep every re-imported copy of the package
    # alive, so each re-import would add one more Partition class
    script = textwrap.dedent("""
        import gc, importlib, sys
        for _ in range(20):
            for name in [m for m in sys.modules if m == "lvbij" or m.startswith("lvbij.")]:
                del sys.modules[name]
            importlib.import_module("lvbij")
        gc.collect()
        print(sum(1 for o in gc.get_objects()
                  if isinstance(o, type) and o.__module__ == "lvbij.core"
                  and o.__qualname__ == "Partition"))
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(lvbij.__file__).resolve().parent.parent))
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["1"]
