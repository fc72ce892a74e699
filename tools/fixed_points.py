"""Throughput and peak RSS at ROADMAP's fixed points, parent against change.

Store mode (default) measures store, reconstruct and repair MB/s at the
store points:

    python3 tools/fixed_points.py --out BENCH_kernel.json \
        --tree parent=/path/to/parent/checkout --tree change=.

Every (tree, point, repetition) runs in a fresh child process that imports
weavesafe from the tree's src/, then runs one untimed warm-up cycle and
``--cycles`` timed cycles of store, reconstruct, fail and repair, each on
a random file of ``--size`` bytes (unseeded store, as in production), so
that the first timed cycle finds the heap already grown to that size.
Every cycle checks the bytes and the repaired share.  Its result is the median seconds per op,
the median minor page faults per op (``ru_minflt`` deltas) and the
process's peak RSS (getrusage).

Map mode (``--maps``) times the GF kernel calls inside those operations:

    python3 tools/fixed_points.py --maps --out BENCH_gather.json \
        --tree parent=/path/to/parent/checkout --tree change=.

Each child wraps ``Field.mat_mul_cols`` and runs the same warm-up and
timed cycles, recording every call of a timed store, reconstruct and
repair with its coefficient shape, its column count and the kernel path
it took (bit-sliced, fan-in or tables).  Its result is the median
milliseconds of each call, named by operation, order, shape, columns and
path, so that the same map is compared across the trees.

Audit mode measures ``verify_weak_secrecy`` at the audit points and at
the store point (20,10,16,8):

    python3 tools/fixed_points.py --audit --out BENCH_audit.json \
        --tree parent=/path/to/parent/checkout --tree change=.

Each child builds the codec, runs one untimed g = 0 verification (field
tables and the like), then times verifications at the point's g, one
after another, until ``AUDIT_WINDOW_S`` seconds have passed and at least
``AUDIT_MIN_CALLS`` calls are done, checking that each passes with the
expected number of checks.  A single call at a small point takes a few
milliseconds and its time is bimodal, and one at (8,4,7,5) g=7 takes
about a second, longer than the window; so its result is checks per
second of the median call, with the number of calls and the process's
peak RSS.

In both modes repetitions alternate between the trees, so that each tree
samples the same phases of a shared machine.  The output file holds the
machine, the settings, and per point and tree the median of each metric
over the repetitions, its range, and the ratio of each tree to the first
one.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

POINTS = ((5, 3, 4, 8), (12, 6, 10, 8), (20, 10, 16, 8), (12, 6, 10, 16))
OPS = ("store", "reconstruct", "repair")
# (n, k, d, m) -> (guesses, the checks of a pass)
AUDIT_POINTS = {
    (6, 3, 5, 4): (4, 3822),
    (7, 4, 6, 5): (6, 184324),
    (8, 4, 7, 5): (7, 2111592),
    (20, 10, 16, 8): (1, 128820),  # the largest store point
}
# Seconds of back-to-back verifications each audit child times, and the
# fewest calls it times, however long one call takes.
AUDIT_WINDOW_S = 0.5
AUDIT_MIN_CALLS = 3


def _import(src: str):
    sys.path.insert(0, src)
    import weavesafe as ws

    if Path(ws.__file__).resolve().parent != (Path(src) / "weavesafe").resolve():
        raise SystemExit(f"weavesafe was imported from {ws.__file__}, not from {src}")
    return ws


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def audit_child(src: str, point: tuple) -> dict:
    """One child's audit measurement; runs inside the child process."""
    ws = _import(src)
    guesses, checks = AUDIT_POINTS[point]
    codec = ws.make_codec(ws.params_new(*point))
    ws.verify_weak_secrecy(codec, 0)
    calls = []
    start = time.perf_counter()
    while len(calls) < AUDIT_MIN_CALLS or time.perf_counter() - start < AUDIT_WINDOW_S:
        t0 = time.perf_counter()
        result = ws.verify_weak_secrecy(codec, guesses)
        calls.append(time.perf_counter() - t0)
        if not result.passed or result.checks != checks:
            raise SystemExit(f"{point} g={guesses}: {result}, expected a pass after {checks} checks")
    seconds = statistics.median(calls)
    return {
        "checks_per_s": checks / seconds, "verify_s": seconds, "calls": len(calls),
        "peak_rss_mib": _peak_rss_mib(),
    }


def _record_maps(ws) -> list:
    """Wrap ``Field.mat_mul_cols`` so that every call appends (name,
    seconds) to the returned list, the name giving the coefficient shape,
    the column count and the path the call took."""
    field = ws.gf2m.Field
    calls, paths = [], []
    mat_mul_cols = field.mat_mul_cols

    def spy(path, method):
        def wrapper(self, *args):
            paths.append(path)
            return method(self, *args)
        return wrapper

    def timed(self, rows, cols):
        paths.clear()
        t0 = time.perf_counter()
        out = mat_mul_cols(self, rows, cols)
        seconds = time.perf_counter() - t0
        path = paths[0] if paths else "tables"
        calls.append((f"{len(rows)}x{cols.shape[0]} over {cols.shape[1]}, {path}", seconds))
        return out

    field._mat_mul_sliced = spy("bit-sliced", field._mat_mul_sliced)
    field._mat_mul_fan_in = spy("fan-in", field._mat_mul_fan_in)
    field.mat_mul_cols = timed
    return calls


def child(src: str, point: tuple, size: int, cycles: int, seed: int, maps: bool = False) -> dict:
    """One child's measurement; runs inside the child process.  With
    ``maps`` its result is the median milliseconds of each kernel call
    instead (see the module docstring)."""
    import numpy as np

    ws = _import(src)
    params = ws.params_new(*point)
    rng = np.random.default_rng(seed)
    seconds = {op: [] for op in OPS}
    faults = {op: [] for op in OPS}
    calls = _record_maps(ws) if maps else []
    map_ms = {}
    work = Path(tempfile.mkdtemp(prefix="fixed-points-"))
    try:
        for c in range(cycles + 1):
            data = rng.bytes(size)
            node = int(rng.integers(1, params.n + 1))
            root = work / f"c{c}"
            calls.clear()
            f0, t0 = _minor_faults(), time.perf_counter()
            ws.cluster_store(data, params, root)
            f1, t1 = _minor_faults(), time.perf_counter()
            stored = len(calls)
            if ws.cluster_reconstruct(root) != data:
                raise SystemExit(f"{point}: reconstructed bytes differ")
            f2, t2 = _minor_faults(), time.perf_counter()
            read = len(calls)
            share = ws.store.Cluster(root).share_path(node)
            original = share.read_bytes()
            ws.cluster_fail(root, node)
            f3, t3 = _minor_faults(), time.perf_counter()
            ws.cluster_repair(root, node)
            f4, t4 = _minor_faults(), time.perf_counter()
            if share.read_bytes() != original:
                raise SystemExit(f"{point}: repaired share differs")
            shutil.rmtree(root)
            if c:  # cycle 0 is the warm-up
                seconds["store"].append(t1 - t0)
                seconds["reconstruct"].append(t2 - t1)
                seconds["repair"].append(t4 - t3)
                for op, delta in zip(OPS, (f1 - f0, f2 - f1, f4 - f3)):
                    faults[op].append(delta)
                for op, part in zip(OPS, (calls[:stored], calls[stored:read], calls[read:])):
                    for i, (name, s) in enumerate(part, 1):
                        map_ms.setdefault(f"{op} {i}: {name}", []).append(1e3 * s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if maps:
        return {name: statistics.median(ms) for name, ms in map_ms.items()}
    out = {f"{op}_mbps": size / statistics.median(s) / 1e6 for op, s in seconds.items()}
    out.update({f"{op}_faults_per_op": statistics.median(f) for op, f in faults.items()})
    out["peak_rss_mib"] = _peak_rss_mib()
    return out


def run_child(tree: Path, point: tuple, args, seed: int) -> dict:
    cmd = [
        sys.executable, __file__, "--child", str(tree / "src"), ",".join(map(str, point)),
        "--size", str(args.size), "--cycles", str(args.cycles), "--seed", str(seed),
    ] + ["--audit"] * args.audit + ["--maps"] * args.maps
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True, timeout=600)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def machine() -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "processor": platform.processor() or platform.machine(),
    }


def _revision(tree: Path) -> str:
    """The tree's git commit, marked dirty when it has uncommitted changes."""
    proc = subprocess.run(
        ["git", "-C", str(tree), "describe", "--always", "--dirty", "--abbrev=12"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    return proc.stdout.strip() or "unknown"


def summarize(runs: list) -> dict:
    out = {}
    for name in runs[0]:
        values = sorted(r[name] for r in runs)
        out[name] = {"median": statistics.median(values), "min": values[0], "max": values[-1]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="JSON file to write")
    parser.add_argument("--audit", action="store_true", help="measure verify_weak_secrecy at the audit points")
    parser.add_argument("--maps", action="store_true", help="time each kernel call at the store points")
    parser.add_argument(
        "--tree", action="append", default=[],
        help="LABEL=DIR of a checkout to measure (repeatable; default: this checkout)",
    )
    parser.add_argument("--size", type=int, default=1 << 20, help="bytes per stored file")
    parser.add_argument("--cycles", type=int, default=3, help="timed cycles per child")
    parser.add_argument("--reps", type=int, default=5, help="children per tree and point")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--child", nargs=2, metavar=("SRC", "POINT"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.audit and args.maps:
        parser.error("--audit and --maps are separate modes")

    if args.child:
        src, point = args.child[0], tuple(int(x) for x in args.child[1].split(","))
        if args.audit:
            print(json.dumps(audit_child(src, point)))
        else:
            print(json.dumps(child(src, point, args.size, args.cycles, args.seed, args.maps)))
        return 0
    if not args.out:
        parser.error("--out is required")

    trees = dict(t.split("=", 1) for t in args.tree) or {"this": str(Path(__file__).resolve().parents[1])}
    trees = {label: Path(d).resolve() for label, d in trees.items()}
    points = tuple(AUDIT_POINTS) if args.audit else POINTS
    runs = {(point, label): [] for point in points for label in trees}
    for rep in range(args.reps):
        for point in points:
            labels = list(trees) if rep % 2 == 0 else list(reversed(trees))
            for label in labels:
                result = run_child(trees[label], point, args, args.seed + rep)
                runs[(point, label)].append(result)
                shown = {"kernel_ms": sum(result.values())} if args.maps else result
                print(f"rep {rep} {point} {label}: " + ", ".join(f"{k} {v:.3g}" for k, v in shown.items()),
                      flush=True)

    first = next(iter(trees))
    results = {}
    for point in points:
        entry = {label: summarize(runs[(point, label)]) for label in trees}
        for label in trees:
            if label != first:
                entry[f"{label}/{first}"] = {  # None where the first tree's median is 0
                    name: entry[label][name]["median"] / entry[first][name]["median"]
                    if entry[first][name]["median"] else None
                    for name in entry[label] if name in entry[first]  # a map on another path is its own name
                }
        name = "(%d,%d,%d,%d)" % point
        if args.audit:
            name += " g=%d" % AUDIT_POINTS[point][0]
        results[name] = entry
    settings = {
        "reps": args.reps, "trees": {label: _revision(path) for label, path in trees.items()},
    }
    if args.audit:
        settings["timing"] = (f"verify_weak_secrecy calls back to back for {AUDIT_WINDOW_S} s "
                              f"(at least {AUDIT_MIN_CALLS} calls) "
                              "per child after an untimed g=0 call, checks/s of the median call, "
                              "median over children; peak RSS of each child process from getrusage")
    else:
        settings.update({
            "size_bytes": args.size, "cycles_per_child": args.cycles, "seed": args.seed,
            "timing": "median milliseconds of each Field.mat_mul_cols call (op i: rows x columns of the "
                      "map over the input's columns, path) within a child, median over children"
                      if args.maps else
                      "median seconds and minor page faults (ru_minflt) per op within a child, "
                      "median over children; peak RSS of each child process from getrusage",
        })
    doc = {"machine": machine(), "settings": settings, "points": results}
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
