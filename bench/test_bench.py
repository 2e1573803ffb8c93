"""Self-tests of the benchmark harness.

Run from the repository root with either of:

    python3 -m unittest discover -s bench
    python3 -m pytest bench
"""

import json
import os
import sys
import types
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(REPO, "src"))

import calibration  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class InputsTest(unittest.TestCase):
    def test_one_seed_gives_identical_inputs_and_two_seeds_differ(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                self.assertEqual(workloads.generate(workload, 7), workloads.generate(workload, 7))
                self.assertNotEqual(workloads.generate(workload, 7), workloads.generate(workload, 8))

    def test_experiment_and_verify_draw_from_separate_streams(self):
        self.assertNotEqual(workloads.generate("experiment", 7)[1],
                            workloads.generate("verify", 7)[1])

    def test_batches_carry_the_pinned_examples_and_minimal_ideals(self):
        for workload in ("experiment", "verify"):
            batches = workloads.generate(workload, 3)
            self.assertEqual(batches[0][:2], [gens for gens, _ in workloads.PINNED])
            self.assertEqual(len(batches), workloads.BATCHES[workload])
            for batch in batches:
                self.assertEqual(len(batch), workloads.BATCH_SIZE)
                for gens in batch:
                    self.assertEqual(gens, workloads.minimalize(gens))
                    self.assertTrue(1 <= len(gens) <= workloads.MODEL_MAX_GENS)

    def test_staircase_ideals_are_antichains_of_one_degree(self):
        sizes = []
        for [gens] in workloads.generate("staircase", 3):
            sizes.append(len(gens))
            self.assertEqual(len({sum(g) for g in gens}), 1)
            self.assertEqual(gens, workloads.minimalize(gens))
        span = range(workloads.STAIRCASE_MIN, workloads.STAIRCASE_MAX + 1)
        self.assertEqual(sorted(sizes), [q for q in span for _ in range(workloads.STAIRCASE_REPEAT)])


class CalibrationTest(unittest.TestCase):
    def test_local_medians_and_scaling(self):
        self.assertEqual(calibration.local_medians([5, 1, 9, 3], reach=1), [3, 5, 3, 6])
        slow_kernel_ns = 2 * calibration.REFERENCE_MS * 1e6
        self.assertEqual(calibration.scale(10.0, slow_kernel_ns), 5.0)

    def test_kernel_is_deterministic(self):
        self.assertEqual(calibration.kernel(), calibration.kernel())
        self.assertGreater(calibration.kernel_ns(), 0)


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


class TracerTest(unittest.TestCase):
    def test_self_time_of_a_nested_call(self):
        # outer [0, 100] calls inner [10, 30] and inner [40, 45]
        tracer = tracing.Tracer(clock=FakeClock([0, 10, 30, 40, 45, 100]))
        inner = tracer.wrap("inner", lambda: None)
        outer = tracer.wrap("outer", lambda: (inner(), inner()))
        tracer.request = 4
        outer()
        self.assertEqual(tracer.self_times(), {"inner": 25, "outer": 75})
        self.assertEqual(tracer.call_counts(), {"inner": 2, "outer": 1})
        self.assertEqual(tracer.root_time(), 100)
        self.assertEqual(list(tracer.spans()), [
            ("outer", 0, 100, -1, 4),
            ("inner", 10, 30, 0, 4),
            ("inner", 40, 45, 0, 4),
        ])

    def test_span_closes_when_the_call_raises(self):
        tracer = tracing.Tracer(clock=FakeClock([0, 7]))

        def boom():
            raise KeyError("x")

        with self.assertRaises(KeyError):
            tracer.wrap("boom", boom)()
        self.assertEqual(tracer.self_times(), {"boom": 7})

    def test_install_patches_every_alias_and_tolerates_missing_functions(self):
        home = types.ModuleType("pkg.home")
        user = types.ModuleType("pkg.user")

        def work(x):
            return x + 1

        home.work = work
        user.work = work
        user.alias = work
        calls = []
        tracer = tracing.Tracer()
        restore, missing = tracing.install(
            tracer,
            [("home.work", "pkg.home", "work"), ("home.gone", "pkg.home", "gone"),
             ("absent.f", "pkg.absent", "f")],
            [home, user],
            {"home.work": lambda args, kwargs, result: calls.append((args, result))},
        )
        self.assertEqual(missing, ["home.gone", "absent.f"])
        self.assertEqual(user.alias(1) + user.work(2) + home.work(3), 2 + 3 + 4)
        self.assertEqual(tracer.call_counts(), {"home.work": 3})
        self.assertEqual(calls, [((1,), 2), ((2,), 3), ((3,), 4)])
        restore()
        self.assertIs(home.work, work)
        self.assertIs(user.alias, work)


def betti_json_line(gens, betti):
    return json.dumps({
        "schema": 1,
        "generators": [workloads.format_monomial(g) for g in gens],
        "betti": list(betti),
        "pd": max(i for i, b in enumerate(betti) if b),
        "pd2_condition": False,
    })


def verify_line(number, gens, betti, verdict="ok"):
    tags = " ".join(f"{field}={verdict}" for field in workloads.VERDICT_FIELDS)
    return (f"line {number}: {tags}  betti={list(betti)}  "
            f"[{workloads.format_ideal(gens)}]")


class CheckerTest(unittest.TestCase):
    ideals = [gens for gens, _ in workloads.PINNED]
    expected = dict(workloads.PINNED)

    def lines(self, make):
        return [make(i, gens, betti) for i, (gens, betti) in enumerate(workloads.PINNED, start=1)]

    def test_correct_outputs_pass(self):
        out = "\n".join(self.lines(lambda i, g, b: betti_json_line(g, b))) + "\n"
        self.assertEqual(workloads.check("experiment", self.ideals, self.expected, 0, out, ""),
                         [True, True])
        out = "\n".join(self.lines(verify_line)) + "\n"
        self.assertEqual(workloads.check("verify", self.ideals, self.expected, 0, out, ""),
                         [True, True])

    def test_corrupted_betti_line_is_flagged(self):
        lines = self.lines(lambda i, g, b: betti_json_line(g, b))
        lines[1] = lines[1].replace("24", "25")
        self.assertEqual(workloads.check("experiment", self.ideals, self.expected, 0,
                                         "\n".join(lines), ""), [True, False])
        lines[1] = lines[1][:-1]
        self.assertEqual(workloads.check("staircase", self.ideals, self.expected, 0,
                                         "\n".join(lines), ""), [True, False])

    def test_fail_verdict_and_wrong_line_number_are_flagged(self):
        lines = self.lines(verify_line)
        lines[0] = lines[0].replace("char3=ok", "char3=FAIL")
        lines[1] = lines[1].replace("line 2:", "line 3:")
        self.assertEqual(workloads.check("verify", self.ideals, self.expected, 0,
                                         "\n".join(lines), ""), [False, False])

    def test_missing_line_exit_code_or_stderr_fail_the_request(self):
        lines = self.lines(lambda i, g, b: betti_json_line(g, b))
        out = "\n".join(lines)
        self.assertEqual(workloads.check("experiment", self.ideals, self.expected, 0,
                                         lines[0], ""), [False, False])
        self.assertEqual(workloads.check("experiment", self.ideals, self.expected, 2, out, ""),
                         [False, False])
        self.assertEqual(workloads.check("experiment", self.ideals, self.expected, 0, out, "oops"),
                         [False, False])


class HarnessTest(unittest.TestCase):
    def test_benchmark_json_names_the_metrics_the_harness_prints(self):
        with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.per_layer_units())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))

    def test_paired_pass_reports_null_for_a_missing_function(self):
        import betti4.cli

        batches = [[gens for gens, _ in workloads.PINNED]]
        expected, stats = run.expected_tables(batches, workloads.STAIRCASE_CAP)
        argv = workloads.warmup_argv("verify")
        client = run.Client("verify", betti4.cli.main, [(argv, batches[0])], expected)
        targets = run.TARGETS + (("engine.removed", "betti4.engine", "removed"),)
        original = run.TARGETS
        run.TARGETS = targets
        try:
            tracer, exact, missing, _, correct, sent = run.paired_pass(client, stats)
        finally:
            run.TARGETS = original
        self.assertEqual(missing, ["engine.removed"])
        self.assertIsNone(exact["engine.removed.calls"])
        self.assertEqual((correct, sent), ({False: 2, True: 2}, 4))
        self.assertEqual(exact["homology.oracle_betti.calls"], 8)
        self.assertEqual(exact["multidegrees.enumerate_multidegrees.calls"], 10)
        self.assertEqual(exact["engine.quadruples_scanned"], 1 + 70)
        self.assertGreater(tracer.self_times()["homology.koszul_complex"], 0)


if __name__ == "__main__":
    unittest.main()
