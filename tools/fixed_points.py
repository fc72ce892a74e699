"""Store, reconstruct and repair MB/s and peak RSS at ROADMAP's store points.

    python3 tools/fixed_points.py --out BENCH_kernel.json \
        --tree parent=/path/to/parent/checkout --tree change=.

Every (tree, point, repetition) runs in a fresh child process that imports
weavesafe from the tree's src/, runs one small warm-up cycle, then
``--cycles`` cycles of store, reconstruct, fail and repair on a random
file of ``--size`` bytes (unseeded store, as in production), checking the
bytes and the repaired share.  Its result is the median seconds per op and
the process's peak RSS (getrusage).  Repetitions alternate between the
trees, so that each tree samples the same phases of a shared machine.

The output file holds the machine, the settings, and per point and tree
the median MB/s and peak RSS over the repetitions, their ranges, and the
ratio of each tree to the first one.
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


def child(src: str, point: tuple, size: int, cycles: int, seed: int) -> dict:
    """One child's measurement; runs inside the child process."""
    sys.path.insert(0, src)
    import numpy as np
    import weavesafe as ws

    if Path(ws.__file__).resolve().parent != (Path(src) / "weavesafe").resolve():
        raise SystemExit(f"weavesafe was imported from {ws.__file__}, not from {src}")
    params = ws.params_new(*point)
    rng = np.random.default_rng(seed)
    seconds = {op: [] for op in OPS}
    work = Path(tempfile.mkdtemp(prefix="fixed-points-"))
    try:
        for c in range(cycles + 1):
            data = rng.bytes(size if c else 4096)
            node = int(rng.integers(1, params.n + 1))
            root = work / f"c{c}"
            t0 = time.perf_counter()
            ws.cluster_store(data, params, root)
            t1 = time.perf_counter()
            if ws.cluster_reconstruct(root) != data:
                raise SystemExit(f"{point}: reconstructed bytes differ")
            t2 = time.perf_counter()
            share = ws.store.Cluster(root).share_path(node)
            original = share.read_bytes()
            ws.cluster_fail(root, node)
            t3 = time.perf_counter()
            ws.cluster_repair(root, node)
            t4 = time.perf_counter()
            if share.read_bytes() != original:
                raise SystemExit(f"{point}: repaired share differs")
            shutil.rmtree(root)
            if c:  # cycle 0 is the warm-up
                seconds["store"].append(t1 - t0)
                seconds["reconstruct"].append(t2 - t1)
                seconds["repair"].append(t4 - t3)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    out = {f"{op}_mbps": size / statistics.median(s) / 1e6 for op, s in seconds.items()}
    out["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return out


def run_child(tree: Path, point: tuple, args, seed: int) -> dict:
    cmd = [
        sys.executable, __file__, "--child", str(tree / "src"), ",".join(map(str, point)),
        "--size", str(args.size), "--cycles", str(args.cycles), "--seed", str(seed),
    ]
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

    if args.child:
        point = tuple(int(x) for x in args.child[1].split(","))
        print(json.dumps(child(args.child[0], point, args.size, args.cycles, args.seed)))
        return 0
    if not args.out:
        parser.error("--out is required")

    trees = dict(t.split("=", 1) for t in args.tree) or {"this": str(Path(__file__).resolve().parents[1])}
    trees = {label: Path(d).resolve() for label, d in trees.items()}
    runs = {(point, label): [] for point in POINTS for label in trees}
    for rep in range(args.reps):
        for point in POINTS:
            labels = list(trees) if rep % 2 == 0 else list(reversed(trees))
            for label in labels:
                result = run_child(trees[label], point, args, args.seed + rep)
                runs[(point, label)].append(result)
                print(f"rep {rep} {point} {label}: " + ", ".join(f"{k} {v:.3g}" for k, v in result.items()),
                      flush=True)

    first = next(iter(trees))
    points = {}
    for point in POINTS:
        entry = {label: summarize(runs[(point, label)]) for label in trees}
        for label in trees:
            if label != first:
                entry[f"{label}/{first}"] = {
                    name: entry[label][name]["median"] / entry[first][name]["median"]
                    for name in entry[label]
                }
        points["(%d,%d,%d,%d)" % point] = entry
    doc = {
        "machine": machine(),
        "settings": {
            "size_bytes": args.size, "cycles_per_child": args.cycles, "reps": args.reps,
            "seed": args.seed, "trees": {label: _revision(path) for label, path in trees.items()},
            "timing": "median seconds per op within a child, median over children; "
                      "peak RSS of each child process from getrusage",
        },
        "points": points,
    }
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
