#!/usr/bin/env python3
"""CI throughput gate: compare a fresh fixed-seed smoke-run digest against
the committed BENCH_evals.json baseline. Fail when an exact count differs,
or on a >2x regression in evaluation throughput, simulator speed,
evaluation time per evaluation or compiler pass time per compile.

Usage: bench_gate.py BENCH_evals.json target/BENCH_evals.json

Both files are `metaopt trace-report --bench-json` output. The exact counts
(evaluations, simulator runs, compiles, simulated cycles) do not depend on
the clock, the host or the thread count, so they must equal the committed
ones: a change that moves them commits a new BENCH_evals.json and says why.
The 2x margin on the timed keys absorbs runner-to-runner noise; a real
pathology (accidentally quadratic pass, validation left on in the hot path)
shows up as 10x+.
"""
import json
import sys


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__.strip())
        return 2
    with open(sys.argv[1]) as f:
        base = json.load(f)
    with open(sys.argv[2]) as f:
        fresh = json.load(f)
    failed = False
    for key in ["total_evals", "sim_runs", "compiles", "sim_cycles"]:
        b, got = base.get(key), fresh.get(key)
        if b is None or got is None:
            side = "baseline" if b is None else "fresh"
            print(f"{key}: SKIP ({side} digest lacks the key)")
            continue
        print(f"{key}: baseline {b}, fresh {got}")
        if got != b:
            print(f"FAIL: {key} differs from BENCH_evals.json (an exact count)")
            failed = True
    # A baseline of 0 (or a missing key) is ungateable: there is no floor to
    # regress from, so dividing by it would be meaningless. Skip such keys
    # with a note instead of failing or printing an infinite ratio — e.g.
    # the committed digest carries `warm_evals_per_sec: 0` whenever the
    # smoke run was cold.
    for key in ["evals_per_sec", "sim_cycles_per_sec", "warm_evals_per_sec"]:
        b, got = base.get(key), fresh.get(key)
        if b is None or got is None:
            side = "baseline" if b is None else "fresh"
            print(f"{key}: SKIP ({side} digest lacks the key)")
            continue
        if b <= 0:
            print(f"{key}: SKIP (baseline {b} is ungateable; fresh measured {got:.1f})")
            continue
        if key == "warm_evals_per_sec" and got <= 0:
            # 0 means "the fresh run never hit a warm cache", not "the warm
            # path got infinitely slower".
            print(f"{key}: SKIP (fresh run measured no warm evaluations)")
            continue
        ratio = got / b
        print(f"{key}: baseline {b:.1f}, fresh {got:.1f} ({ratio:.2f}x)")
        if got * 2 < b:
            print(f"FAIL: {key} regressed more than 2x against BENCH_evals.json")
            failed = True
    # Cost keys derived from exact spans gate lower-is-better at the same 2x
    # margin as the throughput keys: there is no bucket quantization to
    # absorb. `eval_us_per_eval` is the summed `eval` span time over the
    # number of evaluations; `pass_us_per_compile` is the summed `pass` wall
    # time over the number of compiles (one `schedule` run each). Digests
    # written before the log2-bucket `eval_p50_ms` / `eval_p99_ms` keys were
    # retired may still carry them; they are ignored, since a bucket bound
    # moves in 2x steps.
    for key in ["eval_us_per_eval", "pass_us_per_compile"]:
        b, got = base.get(key), fresh.get(key)
        if b is None or got is None:
            side = "baseline" if b is None else "fresh"
            print(f"{key}: SKIP ({side} digest lacks the key)")
            continue
        if b <= 0:
            print(f"{key}: SKIP (baseline {b} is ungateable; fresh measured {got:.1f}us)")
            continue
        ratio = got / b
        print(f"{key}: baseline {b:.1f}us, fresh {got:.1f}us ({ratio:.2f}x)")
        if got > b * 2:
            print(f"FAIL: {key} regressed more than 2x against BENCH_evals.json")
            failed = True
    print(
        "cache_hit_rate: baseline {:.3f}, fresh {:.3f}".format(
            base["cache_hit_rate"], fresh["cache_hit_rate"]
        )
    )
    if "warm_evals" in fresh:
        print(f"warm_evals: fresh {fresh['warm_evals']}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
