"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The exhaustive sweeps (criteria 6-9) take minutes; they are shared across
criteria through module-scoped fixtures so each sweep runs once, and their
tests carry the `slow` marker, so `pytest -m "not slow"` leaves them out.
"""

import time

import pytest

from lvbij import (
    WeightDiagram,
    alg_A,
    alg_A_stages,
    alg_B,
    alg_W,
    clumps,
    eta,
    gamma_forward,
    gamma_inverse,
    h_weight,
    inverse_roundtrip_sweep,
    kappa,
    majuscule_extract,
    norm_sq,
    oracle_sweep,
    roundtrip_sweep,
    two_rho,
)

GOLDEN_ALPHA = (4, 3, 2, 1, 1)
GOLDEN_NU = (15, 14, 9, 4, 4)
GOLDEN_GAMMA = (8, 7, 6, 6, 5, 4, 3, 3, 2, 2, 0)
GOLDEN_X = WeightDiagram([[4, 5], [4, 5, 5], [4], [4, 4, 4, 3], [4]])
GOLDEN_Y = WeightDiagram([[8, 7], [6, 5, 6], [4], [2, 2, 3, 3], [0]])


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def best_time(fn, repeats: int = 20) -> float:
    fn()  # warm-up
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


@pytest.fixture(scope="module")
def forward_sweep():
    return roundtrip_sweep(7, 4, extended=True)


@pytest.fixture(scope="module")
def inverse_sweep():
    return inverse_roundtrip_sweep(7, 6)


@pytest.fixture(scope="module")
def oracle_report():
    return oracle_sweep(6, 3)


def failures(report_obj, names):
    return [
        f"{name}: {report_obj.checks[name].first_failure}"
        for name in names
        if not report_obj.checks[name].ok
    ]


def test_criterion_1_forward_golden():
    ok = gamma_forward(GOLDEN_ALPHA, GOLDEN_NU) == GOLDEN_GAMMA
    stages = alg_A_stages(GOLDEN_ALPHA, GOLDEN_NU)
    ok = ok and [(s.sigma, s.mu) for s in stages] == [
        ((4, 2, 1, 3, 5), (4, 4, 4, 4, 4)),
        ((3, 1, 2), (5, 5, 5)),
        ((2, 1), (5, 4)),
        ((1,), (2,)),
    ]
    elapsed = best_time(lambda: gamma_forward(GOLDEN_ALPHA, GOLDEN_NU))
    ok = ok and elapsed < 1e-3
    report(1, ok, f"forward golden example with stage table, best {elapsed * 1e6:.0f} us")


def test_criterion_2_norm_subtlety():
    mu = alg_A([3, 2, 2, 1], [15, 8, 8, 4])
    ok = mu == (4, 4, 4, 4, 5, 4, 4, 6)
    ok = ok and gamma_forward([3, 2, 2, 1], [15, 8, 8, 4]) == (7, 7, 6, 5, 4, 3, 2, 1)
    rho2 = two_rho([3, 2, 2, 1])
    norm_alg = norm_sq(a + r for a, r in zip(mu, rho2))
    norm_naive = norm_sq(a + r for a, r in zip((5, 4, 4, 4, 5, 4, 4, 5), rho2))
    ok = ok and norm_alg == 189 and norm_naive == norm_sq([8, 5, 3, 1, 7, 4, 2, 5])
    ok = ok and norm_alg < norm_naive
    elapsed = best_time(lambda: alg_A([3, 2, 2, 1], [15, 8, 8, 4]))
    ok = ok and elapsed < 1e-3
    report(2, ok, f"norm subtlety: 189 < {norm_naive}, best {elapsed * 1e6:.0f} us")


def test_criterion_3_diagram_golden():
    pair = alg_W(GOLDEN_ALPHA, GOLDEN_NU, -1)
    ok = pair.left == GOLDEN_X and pair.right == GOLDEN_Y
    ok = ok and kappa(pair.left) == GOLDEN_NU
    ok = ok and h_weight(pair.left) == (4, 4, 4, 4, 4, 5, 5, 4, 5, 4, 3)
    ok = ok and eta(pair.right) == GOLDEN_GAMMA
    elapsed = best_time(lambda: alg_W(GOLDEN_ALPHA, GOLDEN_NU, -1))
    ok = ok and elapsed < 1e-3
    report(3, ok, f"diagram pair golden example, best {elapsed * 1e6:.0f} us")


def test_criterion_4_inverse_golden():
    ok = clumps(GOLDEN_GAMMA) == ((8, 7, 6, 6, 5, 4, 3, 3, 2, 2), (0,))
    ok = ok and majuscule_extract((8, 7, 6, 6, 5, 4, 3, 3, 2, 2), -1)[0] == (8, 6, 4, 2)
    ok = ok and alg_B(GOLDEN_GAMMA, -1) == GOLDEN_Y
    ok = ok and gamma_inverse(GOLDEN_GAMMA) == (GOLDEN_ALPHA, GOLDEN_NU)
    elapsed = best_time(lambda: gamma_inverse(GOLDEN_GAMMA))
    ok = ok and elapsed < 1e-3
    report(4, ok, f"inverse golden example, best {elapsed * 1e6:.0f} us")


def test_criterion_5_closed_form_sweeps():
    def ceil_half(v):
        return -((-v) // 2)

    def floor_half(v):
        return v // 2

    t0 = time.perf_counter()
    ok = True
    for v1 in range(-10, 11):
        ok = ok and gamma_forward([2], [v1]) == (ceil_half(v1), floor_half(v1))
        for v2 in range(-10, 11):
            if v1 >= v2:
                ok = ok and gamma_forward([1, 1], [v1, v2]) == (v1 + 1, v2 - 1)
            if v1 >= 2 * v2:
                expected = (ceil_half(v1 + 1), floor_half(v1 + 1), v2 - 1)
            else:
                expected = (v2 + 1, ceil_half(v1 - 1), floor_half(v1 - 1))
            ok = ok and gamma_forward([2, 1], [v1, v2]) == expected
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    report(5, ok, f"closed forms for |nu_i| <= 10, total {elapsed:.2f} s")


@pytest.mark.slow
def test_criterion_6_exhaustive_roundtrips(forward_sweep, inverse_sweep):
    bad = failures(forward_sweep, ["roundtrip"]) + failures(inverse_sweep, ["roundtrip"])
    detail = (
        f"{forward_sweep.cases} forward and {inverse_sweep.cases} inverse round trips"
        if not bad
        else "; ".join(bad)
    )
    report(6, not bad, detail)


@pytest.mark.slow
def test_criterion_7_property_suite(forward_sweep):
    names = [
        "permutation_invariance",
        "pair_coherence",
        "kappa_recovery",
        "adjacency",
        "distinguished_odd",
        "distinguished_even",
        "shift_compat",
    ]
    bad = failures(forward_sweep, names)
    checked = sum(forward_sweep.checks[name].cases for name in names)
    report(7, not bad, f"{checked} property checks" if not bad else "; ".join(bad))


@pytest.mark.slow
def test_criterion_8_oracle_minimality(oracle_report):
    bad = failures(oracle_report, ["min_norm_agreement", "window_stability"])
    detail = (
        f"{oracle_report.cases} inputs, windows stable under +2"
        if not bad
        else "; ".join(bad)
    )
    report(8, not bad, detail)


@pytest.mark.slow
def test_criterion_9_oracle_uniqueness(oracle_report):
    bad = failures(oracle_report, ["uniqueness", "matches_algorithm"])
    detail = (
        f"{oracle_report.cases} inputs, singleton matches the diagram algorithm"
        if not bad
        else "; ".join(bad)
    )
    report(9, not bad, detail)
