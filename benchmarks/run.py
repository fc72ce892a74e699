"""weavesafe benchmark: one workload, one seed, one result line.

    python3 benchmarks/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads are defined in bench.py and described in README.md.  Each run
starts the measurement in a child process (a single-threaded closed loop,
one client) and, with --trace 0, first starts four more children that only
set up, so that setup_s is a median of five.  With --trace 1 the child runs
the workload's fixed work once untraced and once with per-layer hooks.

The report names every metric with its unit; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics (the end-to-end metrics with --trace 0, the per-layer ones with
--trace 1).  The program is imported from src/ of this checkout; without
it the run exits with status 2 and prints no result.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import bench
import layers

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_PROBES = 4
RUN_LIMIT_S = 170  # every child of one run ends within this


def run_child(args, deadline: float, setup_only: bool = False) -> dict:
    start = time.monotonic()
    cmd = [
        sys.executable, str(BENCH_DIR / "bench.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--start", repr(start),
    ]
    if setup_only:
        cmd.append("--setup-only")
    # On timeout, subprocess.run kills the child and waits for it.
    proc = subprocess.run(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=max(deadline - start, 1)
    )
    if proc.returncode != 0:
        raise SystemExit(f"benchmark child exited with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def report_end_to_end(result: dict, setups: list) -> dict:
    metrics = {"setup_s": statistics.median(setups), **result["end_to_end"]}
    samples = result["samples"]
    notes = {
        "setup_s": f"median of {len(setups)} set-ups: " + ", ".join(f"{s:.3f}" for s in setups),
        "audit_checks_per_s": f"{samples.get('audit', 0)} audits",
        "peak_rss_mib": "child process, getrusage",
        "stored_bytes_per_input_byte": "shares and manifest",
    }
    for kind in ("store", "reconstruct", "repair"):
        for name in (f"{kind}_mbps", f"{kind}_p50_ms", f"{kind}_p90_ms"):
            notes[name] = f"{samples.get(kind, 0)} samples"
    for name, unit in bench.UNITS.items():
        note = notes.get(name, "") + ("" if name in bench.GATED else ", not gated")
        print(f"{name} {_fmt(metrics[name])} {unit}  ({note.lstrip(', ')})")
    return metrics


def report_layers(result: dict) -> dict:
    metrics = result["per_layer"]
    for name in layers.TIME_METRICS + layers.COUNT_METRICS + ("trace.overhead_s",):
        unit = "count" if name in layers.COUNT_METRICS else "s"
        print(f"{name} {_fmt(metrics[name])} {unit}")
    print("tracing overhead (traced minus untraced, same inputs):")
    for name, unit in bench.UNITS.items():
        if name in result["untraced"]:
            u, t = result["untraced"][name], result["traced"][name]
            delta = None if u is None or t is None else t - u
            print(f"  {name} {_fmt(t)} - {_fmt(u)} = {_fmt(delta)} {unit}")
    for kind in ("missing", "idle"):
        if result["hooks"][kind]:
            line = f"warning: {kind} hooks: {', '.join(result['hooks'][kind])}"
            print(line)
            print(line, file=sys.stderr)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(bench.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "weavesafe" / "__init__.py").is_file():
        print(f"error: no weavesafe sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    setups = []
    attempted = 0
    failures = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            probe = run_child(args, deadline, setup_only=True)
            setups.append(probe["setup_s"])
            attempted += probe["attempted"]
            failures += probe["failures"]
    result = run_child(args, deadline)
    setups.append(result["setup_s"])
    attempted += result["attempted"]
    failures += result["failures"]

    m = result["machine"]
    print(
        f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}  "
        f"audits {result['units']['audit']}  cycles {result['units']['cycle']}"
    )
    print(
        f"machine: nproc {m['nproc']} (usable {m['cpus_usable']}), Python {m['python']}, "
        f"numpy {m['numpy']}, {m['platform']}"
    )
    print(f"flush policy: {m['flush_policy']}")
    metrics = report_layers(result) if args.trace else report_end_to_end(result, setups)
    print(f"ops_failed_ratio {len(failures) / attempted:.6g} ratio  ({len(failures)} of {attempted} ops)")
    for failure in failures[:10]:
        print(f"failed: {failure}")

    if args.trace:
        units = {name: "count" if name in layers.COUNT_METRICS else "s" for name in metrics}
    else:
        units = {name: bench.UNITS[name] for name in bench.GATED}
    line = {
        "correct": not failures and all(metrics[name] is not None for name in units),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
