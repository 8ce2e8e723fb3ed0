"""Every public parameter that must be an integer refuses bool and float.

Each case puts one value into one integer slot of a public function: a
valid value must pass, `True` and `1.5` must raise `TypeError`, and where
the slot has a range (a bound, a row length, an index, eps) a value out of
it must raise `ValueError`.  A function that returns an iterator checks its
input when it is called, not at the first item: the `on_call` cases do not
iterate.
"""

import sys

import pytest

from lvbij import (
    Partition,
    WeightDiagram,
    alg_A,
    alg_A_stages,
    alg_B,
    alg_W,
    branch_plan,
    candidate,
    clumps,
    column_seq,
    concat,
    default_window,
    distinguished_fillings,
    dom,
    dominant_sequences,
    e_inverse,
    e_map,
    enumerate_fillings,
    eta,
    gamma_forward,
    gamma_inverse,
    gamma_via_diagrams,
    h_weight,
    inverse_roundtrip_sweep,
    is_distinguished,
    is_dominant_wrt,
    kappa,
    levi_blocks,
    majuscule_extract,
    min_norm_over_fillings,
    norm_sq,
    omega_pairs,
    oracle_sweep,
    partitions_of,
    ranking,
    render_diagram,
    roundtrip_sweep,
    row_survival,
    shape_class,
    truncate_columns,
    two_rho,
    validate_omega_pair,
)

# (id, call with x in one integer slot, a valid x, an x that raises ValueError or None)
CASES = [
    ("Partition.parts", lambda x: Partition([2, x]), 1, 0),
    ("validate_omega_pair.alpha", lambda x: validate_omega_pair([2, x], [1, 1]), 1, 0),
    ("validate_omega_pair.nu", lambda x: validate_omega_pair([2, 1], [1, x]), 1, None),
    ("dom.iota", lambda x: dom([1, x]), 1, None),
    ("two_rho.alpha", lambda x: two_rho([2, x]), 1, 0),
    ("norm_sq.mu", lambda x: norm_sq([1, x]), 1, None),
    ("is_dominant_wrt.nu", lambda x: is_dominant_wrt([1, x], [2, 1]), 1, None),
    ("is_dominant_wrt.alpha", lambda x: is_dominant_wrt([1, 1], [2, x]), 1, 0),
    ("levi_blocks.mu", lambda x: levi_blocks([1, 1, x], [2, 1]), 1, None),
    ("levi_blocks.alpha", lambda x: levi_blocks([1, 1, 1], [2, x]), 1, 0),
    ("WeightDiagram.rows", lambda x: WeightDiagram([[1, x]]), 1, None),
    ("WeightDiagram.column", lambda x: WeightDiagram([[1, 2], [3]]).column(x), 1, 0),
    ("truncate_columns.j", lambda x: truncate_columns([[1, 2], [3]], x), 1, 0),
    ("truncate_columns.X", lambda x: truncate_columns([[1, x]], 1), 1, None),
    ("concat.diagrams", lambda x: concat([[1]], [[x]]), 1, None),
    ("e_map.X", lambda x: e_map([[1, x]]), 1, None),
    ("e_inverse.Y", lambda x: e_inverse([[1, x]]), 1, None),
    ("kappa.X", lambda x: kappa([[1, x]]), 1, None),
    ("h_weight.X", lambda x: h_weight([[1, x]]), 1, None),
    ("eta.Y", lambda x: eta([[1, x]]), 1, None),
    ("shape_class.X", lambda x: shape_class([[1, x]]), 1, None),
    ("is_distinguished.X", lambda x: is_distinguished([[1, x]]), 1, None),
    ("render_diagram.X", lambda x: render_diagram([[1, x]]), 1, None),
    ("candidate.eps", lambda x: candidate(x, [2, 1], [3, 1], 1, [], [2]), -1, 0),
    ("candidate.alpha", lambda x: candidate(-1, [2, x], [3, 1], 1, [], [2]), 1, 0),
    ("candidate.nu", lambda x: candidate(-1, [2, 1], [3, x], 1, [], [2]), 1, None),
    ("candidate.i", lambda x: candidate(-1, [2, 1], [3, 1], x, [], [2]), 1, 0),
    ("candidate.Ia", lambda x: candidate(-1, [2, 1], [3, 1], 1, [x], []), 2, 0),
    ("candidate.Ib", lambda x: candidate(-1, [2, 1], [3, 1], 1, [], [x]), 2, 0),
    ("ranking.eps", lambda x: ranking(x, [2, 1], [3, 1]), -1, 0),
    ("ranking.alpha", lambda x: ranking(-1, [2, x], [3, 1]), 1, 0),
    ("ranking.nu", lambda x: ranking(-1, [2, 1], [3, x]), 1, None),
    ("column_seq.eps", lambda x: column_seq(x, [2, 1], [3, 1], [1, 2]), -1, 0),
    ("column_seq.alpha", lambda x: column_seq(-1, [2, x], [3, 1], [1, 2]), 1, 0),
    ("column_seq.nu", lambda x: column_seq(-1, [2, 1], [3, x], [1, 2]), 1, None),
    ("column_seq.sigma", lambda x: column_seq(-1, [2, 1], [3, 1], [1, x]), 2, 0),
    ("alg_A.alpha", lambda x: alg_A([2, x], [3, 1]), 1, 0),
    ("alg_A.nu", lambda x: alg_A([2, 1], [3, x]), 1, None),
    ("alg_A_stages.alpha", lambda x: alg_A_stages([2, x], [3, 1]), 1, 0),
    ("alg_A_stages.nu", lambda x: alg_A_stages([2, 1], [3, x]), 1, None),
    ("gamma_forward.alpha", lambda x: gamma_forward([2, x], [3, 1]), 1, 0),
    ("gamma_forward.nu", lambda x: gamma_forward([2, 1], [3, x]), 1, None),
    ("row_survival.alpha", lambda x: row_survival([2, x], [1, 2], [3, 3]), 1, 0),
    ("row_survival.sigma", lambda x: row_survival([2, 1], [1, x], [3, 3]), 2, 0),
    ("row_survival.iota", lambda x: row_survival([2, 1], [1, 2], [3, x]), 1, None),
    ("branch_plan.alpha", lambda x: branch_plan([2, x], [3, 1]), 1, 0),
    ("branch_plan.nu", lambda x: branch_plan([2, 1], [3, x]), 1, None),
    ("branch_plan.eps", lambda x: branch_plan([2, 1], [3, 1], x), -1, 0),
    ("alg_W.alpha", lambda x: alg_W([2, x], [3, 1]), 1, 0),
    ("alg_W.nu", lambda x: alg_W([2, 1], [3, x]), 1, None),
    ("alg_W.eps", lambda x: alg_W([2, 1], [3, 1], x), -1, 0),
    ("gamma_via_diagrams.alpha", lambda x: gamma_via_diagrams([2, x], [3, 1]), 1, 0),
    ("gamma_via_diagrams.nu", lambda x: gamma_via_diagrams([2, 1], [3, x]), 1, None),
    ("clumps.lam", lambda x: clumps([3, x]), 1, None),
    ("majuscule_extract.clump", lambda x: majuscule_extract([2, x], -1), 1, None),
    ("majuscule_extract.eps", lambda x: majuscule_extract([2, 1], x), -1, 0),
    ("alg_B.lam", lambda x: alg_B([3, x]), 1, None),
    ("alg_B.eps", lambda x: alg_B([3, 1], x), -1, 0),
    ("gamma_inverse.lam", lambda x: gamma_inverse([3, x]), 1, None),
    ("partitions_of.n", lambda x: list(partitions_of(x)), 1, None),
    ("partitions_of.n.on_call", lambda x: partitions_of(x), 1, None),
    ("dominant_sequences.alpha", lambda x: list(dominant_sequences([2, x], 1)), 1, 0),
    ("dominant_sequences.entry_bound", lambda x: list(dominant_sequences([1], x)), 1, -1),
    ("omega_pairs.n_max", lambda x: list(omega_pairs(x, 1)), 1, -1),
    ("omega_pairs.entry_bound", lambda x: list(omega_pairs(1, x)), 1, -1),
    ("default_window.alpha", lambda x: default_window([2, x]), 1, 0),
    ("enumerate_fillings.alpha", lambda x: list(enumerate_fillings([2, x], [3, 1], 1)), 1, 0),
    ("enumerate_fillings.nu", lambda x: list(enumerate_fillings([2, 1], [3, x], 1)), 1, None),
    ("enumerate_fillings.window", lambda x: list(enumerate_fillings([2], [7], x)), 1, -1),
    ("enumerate_fillings.alpha.on_call", lambda x: enumerate_fillings([2, x], [3, 1], 1), 1, 0),
    ("enumerate_fillings.window.on_call", lambda x: enumerate_fillings([2], [7], x), 1, -1),
    ("min_norm_over_fillings.alpha", lambda x: min_norm_over_fillings([2, x], [3, 1], 3), 1, 0),
    ("min_norm_over_fillings.nu", lambda x: min_norm_over_fillings([2, 1], [3, x], 3), 1, None),
    ("min_norm_over_fillings.window", lambda x: min_norm_over_fillings([2], [7], x), 1, -1),
    ("distinguished_fillings.alpha", lambda x: distinguished_fillings([2, x], [3, 1], 3), 1, 0),
    ("distinguished_fillings.nu", lambda x: distinguished_fillings([2, 1], [3, x], 3), 1, None),
    ("distinguished_fillings.window", lambda x: distinguished_fillings([2], [7], x), 1, -1),
    ("roundtrip_sweep.n_max", lambda x: roundtrip_sweep(x, 1), 1, -1),
    ("roundtrip_sweep.entry_bound", lambda x: roundtrip_sweep(1, x), 1, -1),
    ("inverse_roundtrip_sweep.max_len", lambda x: inverse_roundtrip_sweep(x, 1), 1, -1),
    ("inverse_roundtrip_sweep.entry_bound", lambda x: inverse_roundtrip_sweep(1, x), 1, -1),
    ("oracle_sweep.n_max", lambda x: oracle_sweep(x, 1), 1, -1),
    ("oracle_sweep.entry_bound", lambda x: oracle_sweep(1, x), 1, -1),
]


@pytest.mark.parametrize("call, valid, out_of_range", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_integer_parameter_refuses_bool_float_and_out_of_range(call, valid, out_of_range):
    call(valid)
    for bad in (True, 1.5):
        with pytest.raises(TypeError):
            call(bad)
    if out_of_range is not None:
        with pytest.raises(ValueError):
            call(out_of_range)


HUGE = 10**5000  # past the 4300 digits str() allows by default

# (id, call, a pattern of the function's own refusal)
HUGE_CASES = [
    ("gamma_inverse", lambda: gamma_inverse([5, HUGE]), r"weakly decreasing, got \[5, <16610-bit integer>\]"),
    ("Partition.order", lambda: Partition([1, HUGE]), r"weakly decreasing, got \[1, <16610-bit integer>\]"),
    ("Partition.sign", lambda: Partition([-HUGE]), r"positive, got <16610-bit negative integer>"),
    ("validate_omega_pair", lambda: validate_omega_pair([2, 2], [0, HUGE]),
     r"nu=\[0, <16610-bit integer>\] is not dominant with respect to alpha=\[2, 2\]"),
    ("alg_A_stages", lambda: alg_A_stages([2, 2], [0, HUGE]),
     r"nu=\[0, <16610-bit integer>\] is not dominant with respect to alpha=\[2, 2\]"),
    ("alg_W", lambda: alg_W([0, HUGE], [1, 1]), r"row lengths must be positive, got \[0, <16610-bit integer>\]"),
    ("row_survival", lambda: row_survival([2, 1], [1, 2], [0, HUGE]),
     r"iota must be weakly decreasing, got \[0, <16610-bit integer>\]"),
    ("column_seq.sigma", lambda: column_seq(-1, [2, 1], [3, 1], [1, HUGE]),
     r"not a permutation of 1..2: \[1, <16610-bit integer>\]"),
    ("ranking.eps", lambda: ranking(HUGE, [2, 1], [3, 1]), r"eps must be -1 or 1, got <16610-bit integer>"),
    ("candidate.i", lambda: candidate(-1, [2, 1], [3, 1], HUGE, [], [2]), r"row index <16610-bit integer> out of range"),
    ("enumerate_fillings.window", lambda: enumerate_fillings([2], [7], -HUGE),
     r"window must be >= 0, got <16610-bit negative integer>"),
]


@pytest.fixture
def default_digit_limit():
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    if get_limit is None:
        pytest.skip("this Python has no limit on integer string conversion")
    saved = get_limit()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(saved)


@pytest.mark.parametrize("call, message", [case[1:] for case in HUGE_CASES],
                         ids=[case[0] for case in HUGE_CASES])
def test_refusal_names_an_entry_past_the_digit_limit(default_digit_limit, call, message):
    # the refusal is the function's own, not str()'s "Exceeds the limit"
    with pytest.raises(ValueError, match=message):
        call()


def test_an_entry_at_the_digit_limit_is_shown_in_full(default_digit_limit):
    nines = 10**4300 - 1
    with pytest.raises(ValueError, match=f"got \\[1, {nines}\\]"):
        Partition([1, nines])
