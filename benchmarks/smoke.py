"""Smoke test of the benchmark itself (about a minute):

    python3 benchmarks/smoke.py

1. Every workload runs at a tiny size with no failed op.
2. A share corrupted on purpose after each store shows up as failed ops,
   and the run still completes.
3. Two traced runs with the same seed give identical per-layer counts.
4. run.py prints a result line with exactly the metrics BENCHMARK.json
   names, with their units, for --trace 0 and --trace 1.
5. run.py exits non-zero, printing no result, in a directory that holds
   only BENCHMARK.json and the benchmark's own files.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
import time

import bench
import layers

RUN = bench.BENCH_DIR / "run.py"


def tiny(workload):
    """The same workload on 8 KiB objects; the audit workload audits only (6,3,5,4)."""
    return dataclasses.replace(
        workload, size=8 * bench.KIB, audits=workload.audits[:1], trace_cycles=2
    )


def measure_tiny(name, seed, trace=False, corrupt_share=False):
    return bench.measure(
        tiny(bench.WORKLOADS[name]), seed, 0.5, trace, time.monotonic(), corrupt_share=corrupt_share
    )


def traced_counts_in_child(name, seed):
    """Per-layer counts of a tiny traced run, in a fresh interpreter (the
    hooks stay installed for the life of a process)."""
    out = subprocess.run(
        [sys.executable, __file__, "--traced-counts", name, str(seed)],
        stdout=subprocess.PIPE, text=True, check=True, timeout=170,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def run_py(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=170,
    )


def check_result_line(stdout, trace):
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    line = json.loads(stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}, line.keys()
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1, line
    got = {name: m["unit"] for name, m in line["metrics"].items()}
    assert got == expected, (got, expected)
    for name, m in line["metrics"].items():
        assert isinstance(m["value"], (int, float)), (name, m)


def main() -> int:
    if sys.argv[1:2] == ["--traced-counts"]:
        result = measure_tiny(sys.argv[2], int(sys.argv[3]), trace=True)
        assert not result["failures"], result["failures"]
        assert not result["hooks"]["missing"] and not result["hooks"]["idle"], result["hooks"]
        print(json.dumps({k: result["per_layer"][k] for k in layers.COUNT_METRICS}))
        return 0

    for name in bench.WORKLOADS:
        result = measure_tiny(name, seed=1)
        assert not result["failures"], (name, result["failures"])
        assert all(v is not None for v in result["end_to_end"].values()), (name, result["end_to_end"])
        print(f"ok   tiny {name}: {result['attempted']} ops, none failed")

    result = measure_tiny("audit", seed=2, corrupt_share=True)
    failed_ops = {f.split(":")[0] for f in result["failures"]}
    assert {"reconstruct", "repair"} <= failed_ops, result["failures"]
    print(f"ok   corrupted share: {len(result['failures'])} of {result['attempted']} ops failed, no crash")

    for name in bench.WORKLOADS:
        first, second = traced_counts_in_child(name, 5), traced_counts_in_child(name, 5)
        assert first == second, (name, first, second)
        assert all(first.values()), (name, first)
        print(f"ok   traced counts repeat exactly on {name}")

    for trace in (0, 1):
        proc = run_py(bench.ROOT, "audit", trace)
        assert proc.returncode == 0, proc.returncode
        check_result_line(proc.stdout, trace)
        print(f"ok   run.py --trace {trace}: result line matches BENCHMARK.json")

    bare = bench.WORK_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(
        bench.BENCH_DIR, bare / "benchmarks",
        ignore=shutil.ignore_patterns(".work", "__pycache__"),
    )
    shutil.copy(bench.ROOT / "BENCHMARK.json", bare)
    try:
        proc = run_py(bare, "audit", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and '"metrics"' not in proc.stdout, (proc.returncode, proc.stdout)
    print(f"ok   without src/ run.py exits with status {proc.returncode} and no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
