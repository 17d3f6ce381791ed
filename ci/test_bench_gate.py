#!/usr/bin/env python3
"""Unit tests for bench_gate.py, invoked from CI as `python3 ci/test_bench_gate.py`.

The gate runs as a subprocess against temp digest files, exactly as CI
invokes it, so the exit-code contract is what's under test.
"""
import json
import os
import subprocess
import sys
import tempfile
import unittest

GATE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "bench_gate.py")


def digest(**kv):
    base = {
        "evals_per_sec": 100.0,
        "sim_cycles_per_sec": 5e7,
        "warm_evals_per_sec": 0,
        "eval_p50_ms": 30.0,
        "eval_p99_ms": 40.0,
        "eval_us_per_eval": 20000.0,
        "pass_us_per_compile": 300.0,
        "cache_hit_rate": 0.5,
        "total_evals": 132,
        "sim_runs": 7,
        "compiles": 132,
        "sim_cycles": 6467496,
    }
    base.update(kv)
    return base


def run_gate(base, fresh):
    with tempfile.TemporaryDirectory() as d:
        bp = os.path.join(d, "base.json")
        fp = os.path.join(d, "fresh.json")
        with open(bp, "w") as f:
            json.dump(base, f)
        with open(fp, "w") as f:
            json.dump(fresh, f)
        proc = subprocess.run(
            [sys.executable, GATE, bp, fp], capture_output=True, text=True
        )
    return proc.returncode, proc.stdout


class BenchGate(unittest.TestCase):
    def test_improvement_passes(self):
        # The tiered-backend shape: throughput up, latency down. Faster
        # must never trip the gate's inversion (latency) checks.
        code, out = run_gate(
            digest(),
            digest(evals_per_sec=220.0, sim_cycles_per_sec=1.2e8, eval_p50_ms=15.0),
        )
        self.assertEqual(code, 0, out)
        self.assertNotIn("FAIL", out)

    def test_zero_warm_baseline_skips_with_note(self):
        # The committed digest carries warm_evals_per_sec: 0 for cold smoke
        # runs; a 0 baseline is ungateable, not an infinite improvement.
        code, out = run_gate(digest(warm_evals_per_sec=0), digest(warm_evals_per_sec=50.0))
        self.assertEqual(code, 0, out)
        self.assertIn("warm_evals_per_sec: SKIP", out)
        self.assertIn("ungateable", out)

    def test_zero_throughput_baseline_skips_with_note(self):
        code, out = run_gate(digest(sim_cycles_per_sec=0), digest())
        self.assertEqual(code, 0, out)
        self.assertIn("sim_cycles_per_sec: SKIP", out)

    def test_cold_fresh_run_does_not_fail_warm_gate(self):
        # A warm baseline with a cold fresh run means "unmeasured", not a
        # regression.
        code, out = run_gate(digest(warm_evals_per_sec=80.0), digest(warm_evals_per_sec=0))
        self.assertEqual(code, 0, out)
        self.assertIn("no warm evaluations", out)

    def test_throughput_regression_fails(self):
        code, out = run_gate(digest(), digest(evals_per_sec=40.0))
        self.assertEqual(code, 1, out)
        self.assertIn("FAIL: evals_per_sec", out)

    def test_eval_cost_within_margin_passes(self):
        code, out = run_gate(digest(), digest(eval_us_per_eval=39000.0))
        self.assertEqual(code, 0, out)
        self.assertIn(
            "eval_us_per_eval: baseline 20000.0us, fresh 39000.0us (1.95x)", out
        )

    def test_eval_cost_regression_fails(self):
        # Lower is better: more time per evaluation is the regression.
        code, out = run_gate(digest(), digest(eval_us_per_eval=41000.0))
        self.assertEqual(code, 1, out)
        self.assertIn("FAIL: eval_us_per_eval", out)
        code, out = run_gate(digest(), digest(eval_us_per_eval=5000.0))
        self.assertEqual(code, 0, out)

    def test_eval_cost_skips_without_a_floor(self):
        base = digest()
        del base["eval_us_per_eval"]
        code, out = run_gate(base, digest(eval_us_per_eval=1e9))
        self.assertEqual(code, 0, out)
        self.assertIn("eval_us_per_eval: SKIP (baseline digest lacks the key)", out)
        code, out = run_gate(digest(eval_us_per_eval=0), digest())
        self.assertEqual(code, 0, out)
        self.assertIn("eval_us_per_eval: SKIP (baseline 0 is ungateable", out)

    def test_bucket_latency_keys_are_not_gated(self):
        # The log2-bucket quantiles move in 2x steps; only the exact-span
        # mean gates evaluation latency.
        code, out = run_gate(digest(), digest(eval_p50_ms=300.0, eval_p99_ms=400.0))
        self.assertEqual(code, 0, out)
        self.assertNotIn("eval_p50_ms", out)
        self.assertNotIn("eval_p99_ms", out)

    def test_missing_keys_skip(self):
        base = digest()
        del base["warm_evals_per_sec"]
        code, out = run_gate(base, digest())
        self.assertEqual(code, 0, out)
        self.assertIn("warm_evals_per_sec: SKIP", out)

    def test_pass_cost_within_margin_passes(self):
        code, out = run_gate(digest(), digest(pass_us_per_compile=550.0))
        self.assertEqual(code, 0, out)
        self.assertIn("pass_us_per_compile: baseline 300.0us, fresh 550.0us (1.83x)", out)

    def test_pass_cost_regression_fails(self):
        # Lower is better: more pass time per compile is the regression.
        code, out = run_gate(digest(), digest(pass_us_per_compile=650.0))
        self.assertEqual(code, 1, out)
        self.assertIn("FAIL: pass_us_per_compile", out)
        code, out = run_gate(digest(), digest(pass_us_per_compile=100.0))
        self.assertEqual(code, 0, out)

    def test_baseline_without_pass_cost_skips_with_note(self):
        base = digest()
        del base["pass_us_per_compile"]
        code, out = run_gate(base, digest(pass_us_per_compile=1e6))
        self.assertEqual(code, 0, out)
        self.assertIn("pass_us_per_compile: SKIP (baseline digest lacks the key)", out)

    def test_equal_counts_pass(self):
        code, out = run_gate(digest(), digest())
        self.assertEqual(code, 0, out)
        for key in ["total_evals", "sim_runs", "compiles", "sim_cycles"]:
            self.assertIn(f"{key}: baseline", out)

    def test_any_count_that_differs_fails(self):
        # Exact counts gate for equality: fewer is as wrong as more.
        for key, moved in [
            ("total_evals", 131),
            ("sim_runs", 8),
            ("compiles", 133),
            ("sim_cycles", 6467495),
        ]:
            code, out = run_gate(digest(), digest(**{key: moved}))
            self.assertEqual(code, 1, out)
            self.assertIn(f"FAIL: {key} differs", out)

    def test_count_missing_from_either_digest_skips(self):
        base = digest()
        del base["sim_runs"]
        code, out = run_gate(base, digest(sim_runs=99))
        self.assertEqual(code, 0, out)
        self.assertIn("sim_runs: SKIP (baseline digest lacks the key)", out)
        fresh = digest()
        del fresh["compiles"]
        code, out = run_gate(digest(), fresh)
        self.assertEqual(code, 0, out)
        self.assertIn("compiles: SKIP (fresh digest lacks the key)", out)


if __name__ == "__main__":
    unittest.main()
