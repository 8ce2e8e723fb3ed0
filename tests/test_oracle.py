import os
import random
import subprocess
import sys
import textwrap
import tracemalloc
from itertools import accumulate, permutations, product
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
from lvbij.oracle import (
    STATE_LIMIT,
    _checked_search,
    _composition_count,
    _row_compositions,
    _step_rows,
)


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


def test_enumerate_fillings_of_a_long_row():
    # one entry per box of a 1200-box row: the rows are built by a loop, not
    # one recursion level per entry
    assert [f.rows for f in enumerate_fillings([1200], [0], 0)] == [((0,) * 1200,)]


def test_enumerate_fillings_search_space_guard():
    # the guard runs when enumerate_fillings is called, before any filling is
    # asked for, and refuses a window of more digits than str() converts too
    with pytest.raises(SearchSpaceError):
        enumerate_fillings([9, 9, 9, 9], [0, 0, 0, 0], 40)
    with pytest.raises(SearchSpaceError):
        enumerate_fillings([9, 9, 9, 9], [0, 0, 0, 0], 10**5000)


def test_enumerate_fillings_streams_its_first_row():
    # the 204763 rows of one 6-box row at window 6 are not all held before
    # the first filling
    tracemalloc.start()
    try:
        assert next(enumerate_fillings([6], [0], 6)).rows == ((-6, -6, -6, 6, 6, 6),)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_single_rows_are_refused_exactly_past_the_state_limit():
    # of the long rows, the counts of 450, 330 and (601, 300) have more than
    # 150 terms, so they are refused without counting; 449 has 150 terms, and
    # (601, 600) has 601 fillings, 1 term in the mirror image but 301 without
    rows = [(length, total, window) for length in range(1, 201) for window in (0, 1, 2)
            for total in {0, 1, length // 2, -length - 1}]
    rows += [(449, 0, 1), (450, 0, 1), (330, 0, 7), (601, 300, 0), (601, 600, 0)]
    for length, total, window in rows:
        lo, hi = total // length - window, -(-total // length) + window
        too_many = _composition_count(length, total, lo, hi) > STATE_LIMIT
        try:
            _checked_search([length], [total], window)
        except SearchSpaceError:
            assert too_many, (length, total, window)
        else:
            assert not too_many, (length, total, window)


def test_a_long_row_is_refused_without_counting(monkeypatch):
    def uncalled(*row):
        raise AssertionError(f"counted {row}")

    monkeypatch.setattr("lvbij.oracle._composition_count", uncalled)
    for length in (4000, 10**20):
        with pytest.raises(SearchSpaceError):
            min_norm_over_fillings([length], [0], length + 1)


def test_min_norm_examples():
    assert min_norm_over_fillings([3, 2, 2, 1], [15, 8, 8, 4], 3) == 189
    assert min_norm_over_fillings([1, 1], [3, 1], 0) == 16
    assert min_norm_over_fillings([1], [7], 0) == 49
    assert min_norm_over_fillings([1], [7], 5) == 49


def test_min_norm_matches_object_route():
    # the fast route agrees with computing h on the enumerated diagrams
    from lvbij import h_weight

    for alpha, nu in [
        ((2, 1), (5, 1)),
        ((2, 2), (2, 0)),
        ((3,), (4,)),
        ((2, 2, 2), (3, 3, -3)),
        ((3, 3), (3, -3)),
        ((3, 2, 1, 1), (-3, 1, 0, -2)),
        ((3, 2, 2), (1, 3, -3)),
    ]:
        rho2 = two_rho(alpha)
        window = default_window(alpha)
        best = min(
            norm_sq(a + r for a, r in zip(h_weight(f), rho2))
            for f in enumerate_fillings(alpha, nu, window)
        )
        assert best == min_norm_over_fillings(alpha, nu, window)


def test_min_norm_of_a_long_row_and_a_long_column():
    # one loop over the boxes, not one recursion level per box; a column of
    # h zeros has offset norm (h^3 - h) / 3
    assert min_norm_over_fillings([1200], [0], 0) == 0
    assert min_norm_over_fillings((1,) * 1200, (0,) * 1200, 0) == 575999600


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
            # every window holds the floor and ceiling of each row's
            # total/length, so the balanced filling, and no window is empty
            assert next(enumerate_fillings(alpha, nu, w), None) is not None
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


def test_row_compositions_are_the_window_rows_in_lexicographic_order():
    # with the count test above: every row in [lo, hi]^length summing to
    # total, each once, in increasing order
    for length in range(1, 6):
        for total in range(-8, 9):
            for lo, hi in ((-2, 1), (0, 3), (-1, -1), (1, 0)):
                rows = list(_row_compositions(length, total, lo, hi))
                assert rows == sorted(set(rows)), (length, total, lo, hi)
                for row in rows:
                    assert len(row) == length and sum(row) == total
                    assert all(lo <= v <= hi for v in row)


def product_step_rows(length, total, lo, hi, shifts):
    # every one of the 2^(length-1) step patterns, then the window
    choices = [(0, -1 if j % 2 == 1 else 1) for j in range(1, length)]
    for steps in product(*choices):
        offsets = [0]
        for j, step in enumerate(steps, start=1):
            offsets.append(offsets[-1] + step - shifts[j] + shifts[j - 1])
        first, rem = divmod(total - sum(offsets), length)
        if rem:
            continue
        row = tuple(first + o for o in offsets)
        if lo <= min(row) and max(row) <= hi:
            yield row


def test_step_rows_match_every_step_pattern():
    # shifts that move by at most 2 from column to column leave about four
    # cases in five with rows to find
    rng = random.Random(61)
    for _ in range(3000):
        length = rng.randint(1, 9)
        total = rng.randint(-3 * length, 3 * length)
        window = rng.randint(0, 4)
        shifts = list(accumulate(rng.randint(-2, 2) for _ in range(length)))
        lo, hi = total // length - window, -(-total // length) + window
        got = list(_step_rows(length, total, lo, hi, shifts))
        assert len(got) == len(set(got))
        assert set(got) == set(product_step_rows(length, total, lo, hi, shifts)), (
            length, total, window, shifts)


def test_distinguished_fillings_of_a_long_row():
    # the window cuts each step prefix, so the 2^59 step patterns of a 60-box
    # row are never listed
    assert distinguished_fillings([60], [0], 0) == [alg_W([60], [0], -1).left]


def test_distinguished_fillings_of_a_long_column():
    # rows are placed from an explicit stack, so 1200 one-box rows need no
    # recursion level each
    lengths, zeros = (1,) * 1200, (0,) * 1200
    assert distinguished_fillings(lengths, zeros, 0) == [alg_W(lengths, zeros, -1).left]


def test_pruned_searches_keep_the_search_space_guard():
    # the second input's count is about 5e18 fillings: the guard must refuse it
    # without counting them one window step at a time.  The third's count has
    # 1850 digits, the fourth's 6029 and the last window 5001, past what str()
    # converts: the message names only the limit
    for alpha, nu, window in (([9, 9, 9, 9], [0, 0, 0, 0], 40), ([4], [0], 10**6),
                              ([200], [0], 10**9), ([200], [0], 10**30),
                              ([9, 9, 9, 9], [0, 0, 0, 0], 10**5000)):
        for search in (min_norm_over_fillings, distinguished_fillings):
            with pytest.raises(SearchSpaceError) as refused:
                search(alpha, nu, window)
            assert len(str(refused.value)) < 120
            assert str(refused.value) == "the window spans more than 100000000 fillings"


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


def _counts(report):
    return report.cases, [(name, c.cases) for name, c in report.checks.items()]


def _failures(report):
    return {name: c.first_failure for name, c in report.checks.items() if not c.ok}


def test_inverse_sweep_names_each_failing_weight(monkeypatch):
    # two checks fail on two weights: each names its own
    clean = inverse_roundtrip_sweep(2, 1)
    forward, section = lvbij.oracle.gamma_forward, lvbij.oracle.alg_B
    wrong = {(1, 0): (9,)}
    monkeypatch.setattr(lvbij.oracle, "gamma_forward",
                        lambda alpha, nu: wrong.get(forward(alpha, nu), forward(alpha, nu)))
    monkeypatch.setattr(lvbij.oracle, "alg_B",
                        lambda lam, eps: section((1,) if lam == (0, -1) else lam, eps))
    report = inverse_roundtrip_sweep(2, 1)
    assert _failures(report) == {"roundtrip": "lambda=[1, 0]",
                                 "section_agreement": "lambda=[0, -1]"}
    assert _counts(report) == _counts(clean)


@pytest.mark.parametrize("name, wrong, failures", [
    ("alg_A", lambda alg_A: lambda alpha, nu: (2,) if nu == (1,) else alg_A(alpha, nu),
     {"min_norm_agreement": "alpha=[1], nu=[1]: fillings give 1, algorithm gives 4"}),
    ("min_norm_over_fillings",
     lambda m: lambda alpha, nu, w: m(alpha, nu, w) + (nu == (0, 0) and w > alpha.ell + alpha.s),
     {"window_stability": "alpha=[1, 1], nu=[0, 0]: window 3 gives 2, window 5 gives 3"}),
    ("is_distinguished", lambda d: lambda X, parity: X.rows != ((1,),) and d(X, parity),
     {"uniqueness": "alpha=[1], nu=[1]: found 0 distinguished diagrams",
      "matches_algorithm": "alpha=[1], nu=[1]"}),
], ids=["min-norm", "window", "uniqueness"])
def test_oracle_sweep_names_a_failing_input_and_its_detail(monkeypatch, name, wrong, failures):
    # each check fails on one input; the others, and every count, are as in a clean sweep
    clean = oracle_sweep(2, 1)
    monkeypatch.setattr(lvbij.oracle, name, wrong(getattr(lvbij.oracle, name)))
    report = oracle_sweep(2, 1)
    assert _failures(report) == failures
    assert _counts(report) == _counts(clean)


def test_roundtrip_sweep_names_the_permutation_that_fails(monkeypatch):
    clean = roundtrip_sweep(2, 1, extended=True)
    diagram = lvbij.oracle.alg_W
    monkeypatch.setattr(lvbij.oracle, "alg_W", lambda beta, xi, eps: diagram(
        [1, 1], [0, 0], eps) if list(xi) == [-1, 1] else diagram(beta, xi, eps))
    report = roundtrip_sweep(2, 1, extended=True)
    assert _failures(report) == {
        "permutation_invariance": "alpha=[1, 1], nu=[1, -1]: permuted to beta=[1, 1], xi=[-1, 1]"
    }
    # two adjacency records per case, and two permutations per case of more than one row
    assert _counts(report) == _counts(clean)
    assert report.checks["adjacency"].cases == 2 * report.cases
    assert report.checks["permutation_invariance"].cases == 2 * 6


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
    # or Iterator[Stage] annotation from typing would keep every re-imported
    # copy of the package alive, so each re-import would add one more copy of
    # every class the package defines
    script = textwrap.dedent("""
        import gc, importlib, sys
        from collections import Counter
        for _ in range(20):
            for name in [m for m in sys.modules if m == "lvbij" or m.startswith("lvbij.")]:
                del sys.modules[name]
            importlib.import_module("lvbij")
        gc.collect()
        copies = Counter(f"{o.__module__}.{o.__qualname__}" for o in gc.get_objects()
                         if isinstance(o, type) and o.__module__.startswith("lvbij."))
        for name, count in sorted(copies.items()):
            print(name, count)
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(lvbij.__file__).resolve().parent.parent))
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout
    copies = dict(line.split() for line in out.splitlines())
    assert "lvbij.core.Partition" in copies and "lvbij.seq_algorithm.Stage" in copies
    assert set(copies.values()) == {"1"}, copies
