"""Tests of the benchmark's own checks and tracer: each check accepts the
program's result and rejects a perturbed one.

    python3 bench/test_checks.py
"""

import random
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

import lvbij as lv  # noqa: E402

GOLDEN_ALPHA = (4, 3, 2, 1, 1)
GOLDEN_NU = (15, 14, 9, 4, 4)


def bump(seq, i, delta=1):
    seq = list(seq)
    seq[i] += delta
    return tuple(seq)


class CountTests(unittest.TestCase):
    def test_closed_form_counts_match_enumeration_and_sweeps(self):
        for n, b in [(1, 0), (3, 1), (4, 2)]:
            self.assertEqual(inputs.omega_count(n, b), len(inputs.omega_inputs(n, b)))
            self.assertEqual(inputs.omega_count(n, b), lv.roundtrip_sweep(n, b).cases)
        for k, b in [(1, 0), (4, 2)]:
            self.assertEqual(inputs.dominant_count(k, b), len(inputs.dominant_weights(k, b)))
            self.assertEqual(inputs.dominant_count(k, b), lv.inverse_roundtrip_sweep(k, b).cases)

    def test_sweep_check_rejects_a_wrong_count_or_a_failed_check(self):
        report = lv.roundtrip_sweep(3, 1)
        expected = inputs.omega_count(3, 1)
        self.assertEqual(checks.sweep_problems("fwd", report, expected), [])
        self.assertTrue(checks.sweep_problems("fwd", report, expected + 1))
        report.check("roundtrip").record(False, "perturbed")
        self.assertTrue(checks.sweep_problems("fwd", report, expected))


class ClosedFormTests(unittest.TestCase):
    def test_closed_forms_agree_with_the_program(self):
        rng = random.Random(3)
        for ell in (1, 2, 5, 40):
            nu = tuple(sorted((rng.randint(-9, 9) for _ in range(ell)), reverse=True))
            self.assertEqual(lv.gamma_forward((1,) * ell, nu), checks.zero_orbit(nu))
        for n in (1, 2, 7, 60):
            v = rng.randint(-100, 100)
            self.assertEqual(lv.gamma_forward((n,), (v,)), checks.regular_orbit(n, v))
            self.assertEqual(lv.gamma_inverse((0,) * n), ((n,), (0,)))
        for alpha, nu in inputs.closed_form_inputs(4):
            self.assertEqual(lv.gamma_forward(alpha, nu), checks.closed_form(alpha, nu))

    def test_image_check_rejects_perturbed_images(self):
        cases = [((1, 1, 1), (3, 0, 0)), ((5,), (12,)), ((2, 1), (4, -1)), (GOLDEN_ALPHA, GOLDEN_NU)]
        for alpha, nu in cases:
            lam = lv.gamma_forward(alpha, nu)
            self.assertEqual(checks.image_problems(alpha, nu, lam), [])
            self.assertTrue(checks.image_problems(alpha, nu, bump(lam, 0)))  # sum
            self.assertTrue(checks.image_problems(alpha, nu, lam + (0,)))  # length
            moved = bump(bump(lam, 0, -1), -1, +1)  # same sum and length
            if checks.closed_form(alpha, nu) is not None and len(lam) > 1:
                self.assertTrue(checks.image_problems(alpha, nu, moved))
            elif len(lam) > 1:  # no closed form: the round trip catches it
                self.assertTrue(checks.roundtrip_problems(alpha, nu, lv.gamma_inverse(moved)))
        self.assertTrue(checks.image_problems((2, 1), (0, 0), (0, 0, 0)))  # only the closed form fails

    def test_regular_orbit_check_rejects_an_unbalanced_split(self):
        self.assertTrue(checks.image_problems((4,), (2,), (2, 0, 0, 0)))
        self.assertEqual(checks.image_problems((4,), (2,), (1, 1, 0, 0)), [])


class DiagramTests(unittest.TestCase):
    def setUp(self):
        self.pair = lv.alg_W(GOLDEN_ALPHA, GOLDEN_NU)
        self.lam = lv.gamma_forward(GOLDEN_ALPHA, GOLDEN_NU)
        self.left, self.right = self.pair.left.rows, self.pair.right.rows

    def problems(self, left, right, lam=None):
        return checks.diagram_problems(GOLDEN_ALPHA, GOLDEN_NU, lam or self.lam, left, right)

    def test_readouts_match_the_program(self):
        self.assertEqual(checks.e_map(self.left), self.right)
        self.assertEqual(checks.eta(self.right), lv.eta(self.pair.right))
        self.assertEqual(checks.kappa(self.left), lv.kappa(self.pair.left))
        self.assertEqual(self.problems(self.left, self.right), [])
        self.assertEqual(checks.diagram_problems(GOLDEN_ALPHA, GOLDEN_NU, None, self.left, self.right), [])

    def test_rejects_perturbed_diagrams(self):
        left = list(self.left)
        left[0] = bump(left[0], 0)
        self.assertTrue(self.problems(tuple(left), self.right))
        right = list(self.right)
        right[-1] = bump(right[-1], 0)
        self.assertTrue(self.problems(self.left, tuple(right)))
        self.assertTrue(self.problems(self.left, self.right, lam=bump(self.lam, 0)))
        self.assertTrue(self.problems(self.left[:-1], self.right[:-1]))  # shape-class and kappa

    def test_rejects_a_perturbed_round_trip(self):
        omega = lv.gamma_inverse(self.lam)
        self.assertEqual(checks.roundtrip_problems(GOLDEN_ALPHA, GOLDEN_NU, omega), [])
        self.assertTrue(checks.roundtrip_problems(GOLDEN_ALPHA, bump(GOLDEN_NU, 0), omega))

    def test_rejects_a_perturbed_preimage(self):
        lam = (3, 3, 2, 1, 1, 0, -2)
        omega = lv.gamma_inverse(lam)
        back = lv.gamma_forward(*omega)
        self.assertEqual(checks.preimage_problems(lam, omega, back), [])
        alpha, nu = tuple(omega[0]), tuple(omega[1])
        self.assertTrue(checks.preimage_problems(lam, (alpha, bump(nu, 0)), back))
        self.assertTrue(checks.preimage_problems(lam, (alpha + (1,), nu + (0,)), back))
        self.assertTrue(checks.preimage_problems(lam, omega, bump(back, 0)))


class RoundTests(unittest.TestCase):
    small = run.Workload((2, 1), (3, 1), (2, 1), lambda rng: inputs.sweep_family(3, 1, 3, 1))

    def test_a_round_of_correct_outputs_passes(self):
        family = self.small.family(random.Random(0))
        r = run.run_round(lv, self.small, family)
        self.assertEqual(run.check_round(lv, self.small, family, r), [])
        self.assertEqual(r.failed, [])

    def test_a_wrong_image_is_caught(self):
        family = inputs.Family([((3, 1), (4, 0)), ((1, 1), (2, 2))], [(1, 0)])
        r = run.run_round(lv, self.small, family)
        r.outputs["images"][0] = bump(r.outputs["images"][0], 0)
        self.assertTrue(run.check_round(lv, self.small, family, r))

    def test_deep_attempts_count_as_failed_or_pass_the_checks(self):
        family = inputs.Family([], [], deep=(((1200,), (0,)),))
        r = run.run_round(lv, self.small, family)
        self.assertEqual(len(r.outputs["deep"]), 3)
        self.assertEqual(run.check_round(lv, self.small, family, r), [])
        self.assertLessEqual(len(r.failed), 3)

    def test_large_family_is_fixed_by_its_seed(self):
        a = inputs.large_family(random.Random(5))
        self.assertEqual(a, inputs.large_family(random.Random(5)))
        self.assertNotEqual(a, inputs.large_family(random.Random(6)))
        for alpha, nu in a.forward:
            lv.validate_omega_pair(alpha, nu)
        self.assertEqual(len(inputs.few_sizes_partition(random.Random(5))), 100)


class TracerTests(unittest.TestCase):
    def test_counts_calls_and_restores_the_functions(self):
        tracer = spans.Tracer()
        original = lv.diagram_algorithm.ranking
        with tracer.installed(lv):
            self.assertIsNot(lv.diagram_algorithm.ranking, original)
            lv.gamma_forward(GOLDEN_ALPHA, GOLDEN_NU)
        self.assertIs(lv.diagram_algorithm.ranking, original)
        self.assertEqual(tracer.calls["seq_algorithm.gamma_forward"], 1)
        self.assertEqual(tracer.calls["seq_algorithm.ranking"], max(GOLDEN_ALPHA))  # one per column
        self.assertEqual(tracer.calls["seq_algorithm.alg_A"], 0)
        self.assertEqual(tracer.skipped, [])

    def test_self_time_excludes_child_spans(self):
        tracer = spans.Tracer()
        with tracer.installed(lv):
            start = spans.perf_counter_ns()
            lv.alg_W(GOLDEN_ALPHA, GOLDEN_NU)
            total = spans.perf_counter_ns() - start
        self.assertGreater(tracer.self_ns["diagram_algorithm.branch_plan"], 0)
        self.assertLessEqual(sum(tracer.self_ns.values()), total)

    def test_hit_ratio_counts_only_the_oracle_search(self):
        tracer = spans.Tracer()
        with tracer.installed(lv):
            found = lv.distinguished_fillings((2, 1), (1, 0), 3)
            lv.is_distinguished(found[0])
        self.assertEqual(tracer.search_found, 1)
        self.assertEqual(tracer.calls["diagrams.is_distinguished"], tracer.search_checks + 1)

    def test_a_missing_function_is_skipped_and_named(self):
        tracer = spans.Tracer()
        original = lv.inverse_algorithm.clumps
        del lv.inverse_algorithm.clumps
        try:
            with tracer.installed(lv):
                pass
        finally:
            lv.inverse_algorithm.clumps = original
        self.assertEqual(tracer.skipped, ["inverse_algorithm.clumps"])


if __name__ == "__main__":
    unittest.main()
