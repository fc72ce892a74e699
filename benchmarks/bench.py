"""One benchmark child process: set up one workload, measure it, print JSON.

``run.py`` starts this file once per measurement (and a few more times,
with ``--setup-only``, to time set-up).  It can also be run by hand:

    python3 benchmarks/bench.py --workload wide-m8 --seed 1 --seconds 5 --trace 0

The last line of standard output is one JSON object (see ``measure``).
The program under test is imported from ``src/`` of the checkout this
file sits in, never from an installed copy.
"""

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import layers

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = BENCH_DIR / ".work"
KIB = 1 << 10
MIB = 1 << 20
WARMUP_BYTES = 4 * KIB

# End-to-end metrics and their units, in report order.  The result line
# carries the GATED ones, which regression checks compare against bounds.
UNITS = {
    "setup_s": "s",
    "store_mbps": "MB/s",
    "reconstruct_mbps": "MB/s",
    "repair_mbps": "MB/s",
    "store_p50_ms": "ms",
    "store_p90_ms": "ms",
    "reconstruct_p50_ms": "ms",
    "reconstruct_p90_ms": "ms",
    "repair_p50_ms": "ms",
    "repair_p90_ms": "ms",
    "peak_rss_mib": "MiB",
    "audit_checks_per_s": "checks/s",
    "stored_bytes_per_input_byte": "ratio",
}

# Per-object latency percentiles swing with the fast and slow phases of a
# shared machine more than the throughputs do, so they are reported but
# not gated.
GATED = tuple(name for name in UNITS if not name.endswith(("_p50_ms", "_p90_ms")))

FLUSH_POLICY = (
    "shares are written without fsync and read back through the page cache; "
    "the file cache is not dropped between operations"
)


@dataclass(frozen=True)
class Workload:
    """What a workload stores, and what it audits in between.

    A timed run is a closed loop of cycles (store, reconstruct, fail,
    repair, each object in its own cluster root) and audits, the next audit
    in the list whenever audits have had less than ``audit_share`` of the
    run.  Short audits keep both kinds of work spread over the whole run,
    so that each metric averages over the machine's fast and slow phases
    instead of sampling one of them.
    """

    name: str
    params: tuple  # (n, k, d, m) of every stored object
    size: int  # bytes of every stored object
    audits: tuple  # ((n, k, d, m), guesses) pairs, run in turn
    audit_share: float
    trace_cycles: int  # fixed work of a traced run (each audit once first)


WIDE = (20, 10, 16, 8)
WORKLOADS = {
    w.name: w
    for w in (
        Workload("wide-m8", WIDE, MIB, ((WIDE, 0),), 0.2, trace_cycles=2),
        # Audits take half of each run.  At (7,4,6,5), g = 3 keeps one
        # battery to about 6 s (g = 4 takes 12 s).  Store cycles at the
        # larger audit parameters fill the other half.
        Workload(
            "audit", (7, 4, 6, 5), 256 * KIB,
            (((6, 3, 5, 4), 4), ((7, 4, 6, 5), 3)), 0.5, trace_cycles=12,
        ),
    )
}

# What weavesafe 0.1.0 reports for every audit the workloads run:
# (passed, rank checks, counterexample present) per verification, and
# (success, steps) for the extended parity-check certificate.
EXPECTED_AUDIT = {
    ((6, 3, 5, 4), 4): {
        "weak": (True, 3822, False),
        "baseline_fail": (False, 691, True),
        "baseline_pass": (True, 468, False),
        "certificate": (True, 5),
    },
    ((7, 4, 6, 5), 3): {
        "weak": (True, 17612, False),
        "baseline_fail": (False, 10389, True),
        "baseline_pass": (True, 6909, False),
        "certificate": (True, 6),
    },
    (WIDE, 0): {"weak": (True, 2260, False), "certificate": (True, 16)},
}


def import_weavesafe():
    """Import the package from this checkout's src/; exit if it is not there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import weavesafe
    except ImportError as exc:
        raise SystemExit(f"cannot import weavesafe from {src}: {exc}") from None
    if Path(weavesafe.__file__).resolve().parent != (src / "weavesafe").resolve():
        raise SystemExit(f"weavesafe was imported from {weavesafe.__file__}, not from {src}")
    return weavesafe


@dataclass(frozen=True)
class Cycle:
    data: bytes
    node: int  # the node failed and repaired


class Inputs:
    """Seeded stream of cycles: plaintext and failed nodes."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.rng = np.random.default_rng(seed)

    def _cycle(self, size) -> Cycle:
        node = int(self.rng.integers(1, self.workload.params[0] + 1))
        return Cycle(self.rng.bytes(size), node)

    def warmup(self) -> Cycle:
        return self._cycle(WARMUP_BYTES)

    def cycle(self) -> Cycle:
        return self._cycle(self.workload.size)


def _tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def _flip_payload_byte(path: Path) -> None:
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 0x01
    path.write_bytes(bytes(raw))


def _audit_outcome(result) -> dict:
    """Normalise an AuditReport or a (VerifyResult, DecodeCertificate) pair."""
    def verdict(v):
        return (v.passed, v.checks, v.counterexample is not None)

    if isinstance(result, tuple):
        weak, cert = result
        return {"weak": verdict(weak), "certificate": (cert.success, len(cert.steps))}
    return {
        "weak": verdict(result.weak_secrecy),
        "baseline_fail": verdict(result.baseline_fail),
        "baseline_pass": verdict(result.baseline_pass),
        "certificate": (result.certificate_success, result.certificate_steps),
    }


class Runner:
    """Runs cycles and audits through the public API and checks every output.

    An op that raises or fails its check is counted as failed and the run
    goes on.  ``corrupt_share`` flips one payload byte of a live share after
    each store, which the checks must catch (used by the smoke test).
    """

    def __init__(self, ws, corrupt_share: bool = False):
        self.ws = ws
        self.corrupt_share = corrupt_share
        self.samples = defaultdict(list)  # op -> seconds per successful op
        self.bytes = defaultdict(int)  # op -> plaintext bytes of successful ops
        self.attempted = 0
        self.failures = []
        self.audit_checks = 0
        self.stored_bytes = 0
        self.input_bytes = 0

    def _op(self, kind, check, fn, *args, nbytes=0):
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # a failed op is recorded, never fatal to the run
            traceback.print_exc(file=sys.stderr)
            self.failures.append(f"{kind}: {type(exc).__name__}: {exc}")
            return False, None
        elapsed = time.perf_counter() - t0
        problem = check(result) if check else None
        if problem:
            self.failures.append(f"{kind}: {problem}")
            return False, None
        self.samples[kind].append(elapsed)
        self.bytes[kind] += nbytes
        return True, result

    def audit(self, params: tuple, guesses: int) -> None:
        ws = self.ws
        codec = ws.make_codec(ws.params_new(*params))
        expected = EXPECTED_AUDIT[(params, guesses)]

        if "baseline_fail" in expected:
            def run():
                return ws.audit_report(codec, guesses=guesses)
        else:
            # Past toy sizes the battery's baseline probes (at g = k-1)
            # exceed the audit cap; weak secrecy and the certificate remain.
            def run():
                return ws.verify_weak_secrecy(codec, guesses), ws.certify_extended_parity(codec)

        def check(result):
            got = _audit_outcome(result)
            if got != expected:
                return f"audit of {params} at g={guesses} gave {got}, expected {expected}"
            return None

        ok, result = self._op("audit", check, run)
        if ok:
            self.audit_checks += sum(v[1] for k, v in _audit_outcome(result).items() if k != "certificate")

    def cycle(self, params: tuple, c: Cycle) -> None:
        ws = self.ws
        params = ws.params_new(*params)
        size = len(c.data)
        root = Path(tempfile.mkdtemp(prefix="cluster-", dir=WORK_DIR))
        try:
            # seed=None: the store draws its coset randomness from os.urandom,
            # as in production.
            ok, manifest = self._op("store", None, ws.cluster_store, c.data, params, root, nbytes=size)
            if not ok:
                return
            self.input_bytes += size
            self.stored_bytes += _tree_bytes(root)
            cluster = ws.store.Cluster(root)
            share = cluster.share_path(c.node)
            if self.corrupt_share:
                _flip_payload_byte(cluster.share_path(2 if c.node == 1 else 1))

            def check_reconstruct(out):
                return None if out == c.data else "reconstructed bytes differ from the input"

            self._op("reconstruct", check_reconstruct, ws.cluster_reconstruct, root, nbytes=size)
            original = share.read_bytes()

            def check_fail(_):
                return f"share of node {c.node} still present" if share.exists() else None

            ok, _ = self._op("fail", check_fail, ws.cluster_fail, root, c.node)
            if not ok:
                return

            def check_repair(stats):
                expected = params.d * manifest.chunk_count
                if stats.symbols_downloaded != expected:
                    return f"downloaded {stats.symbols_downloaded} symbols, expected d * chunks = {expected}"
                if not share.exists() or share.read_bytes() != original:
                    return f"repaired share of node {c.node} differs from the original"
                return None

            self._op("repair", check_repair, ws.cluster_repair, root, c.node, nbytes=size)
        finally:
            shutil.rmtree(root, ignore_errors=True)

    def end_to_end(self) -> dict:
        """Every end-to-end metric except setup_s; None where nothing succeeded."""
        def rate(kind):
            t = sum(self.samples[kind])
            return self.bytes[kind] / t / 1e6 if t else None

        def pct(kind, q):
            s = self.samples[kind]
            if not s:
                return None
            if q == 50 or len(s) == 1:
                return 1e3 * statistics.median(s)
            return 1e3 * statistics.quantiles(s, n=10, method="inclusive")[q // 10 - 1]

        audit_s = sum(self.samples["audit"])
        out = {}
        for kind in ("store", "reconstruct", "repair"):
            out[f"{kind}_mbps"] = rate(kind)
        for kind in ("store", "reconstruct", "repair"):
            out[f"{kind}_p50_ms"] = pct(kind, 50)
            out[f"{kind}_p90_ms"] = pct(kind, 90)
        out["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        out["audit_checks_per_s"] = self.audit_checks / audit_s if audit_s else None
        out["stored_bytes_per_input_byte"] = (
            self.stored_bytes / self.input_bytes if self.input_bytes else None
        )
        return out


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "flush_policy": FLUSH_POLICY,
    }


def timed_run(workload: Workload, inputs: Inputs, seconds: float, runner: Runner) -> dict:
    """Closed loop of cycles and audits for about ``seconds``."""
    t_begin = time.perf_counter()
    spent = {"audit": [], "cycle": []}
    audits = itertools.cycle(workload.audits)
    while True:
        elapsed = time.perf_counter() - t_begin
        audit_s = sum(spent["audit"])
        kind = "audit" if audit_s <= workload.audit_share * elapsed else "cycle"
        # Stop once the next unit would end more than half its usual length
        # past the run's time, so that small changes in speed do not flip
        # the number of units a run completes.
        if spent[kind] and elapsed + statistics.mean(spent[kind]) / 2 > seconds:
            break
        t0 = time.perf_counter()
        if kind == "audit":
            runner.audit(*next(audits))
        else:
            runner.cycle(workload.params, inputs.cycle())
        spent[kind].append(time.perf_counter() - t0)
    return {
        "measured_s": time.perf_counter() - t_begin,
        "units": {kind: len(v) for kind, v in spent.items()},
        "end_to_end": runner.end_to_end(),
        "samples": {k: len(v) for k, v in runner.samples.items()},
    }


def traced_run(workload: Workload, inputs: Inputs, untraced: Runner, traced: Runner) -> dict:
    """The workload's fixed work twice on the same inputs: without hooks, then with."""
    cycles = [inputs.cycle() for _ in range(workload.trace_cycles)]
    tracer = layers.Tracer()
    walls = []
    for runner in (untraced, traced):
        if runner is traced:
            tracer.install()
        t0 = time.perf_counter()
        for params, guesses in workload.audits:
            runner.audit(params, guesses)
        for c in cycles:
            runner.cycle(workload.params, c)
        walls.append(time.perf_counter() - t0)
    per_layer = tracer.metrics()
    per_layer["trace.overhead_s"] = walls[1] - walls[0]
    return {
        "units": {"audit": len(workload.audits), "cycle": len(cycles)},
        "per_layer": per_layer,
        "untraced": untraced.end_to_end(),
        "traced": traced.end_to_end(),
        "hooks": {"missing": tracer.missing, "idle": tracer.idle()},
    }


def measure(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    start: float,
    setup_only: bool = False,
    corrupt_share: bool = False,
) -> dict:
    """Set up, then either time a closed loop for ``seconds`` (trace off) or
    run the workload's fixed traced work once untraced and once traced."""
    ws = import_weavesafe()
    WORK_DIR.mkdir(exist_ok=True)
    inputs = Inputs(workload, seed)
    runners = [Runner(ws, corrupt_share)]
    runners[0].cycle(workload.params, inputs.warmup())
    result = {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "setup_s": time.monotonic() - start,
        "machine": machine(),
    }
    if not setup_only:
        runners += [Runner(ws, corrupt_share) for _ in range(1 + trace)]
        if trace:
            result.update(traced_run(workload, inputs, runners[1], runners[2]))
        else:
            result.update(timed_run(workload, inputs, seconds, runners[1]))
    result["attempted"] = sum(r.attempted for r in runners)
    result["failures"] = [f for r in runners for f in r.failures]
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--start", type=float, default=None,
        help="time.monotonic() when the parent spawned this process (default: now)",
    )
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    start = time.monotonic() if args.start is None else args.start
    result = measure(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), start,
        setup_only=args.setup_only,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
