"""Command-line front end.

Exit codes: 0 ok, 1 other error, 2 usage, 3 invalid parameters,
4 insufficient nodes, 5 secrecy violation, 6 enumeration cap exceeded.
"""

import argparse
import json
import sys

from . import store
from .audit import DEFAULT_VERIFY_CAP, audit_report, verify_weak_secrecy
from .errors import (
    CapExceededError,
    InsufficientNodesError,
    ParameterError,
    WeavesafeError,
)
from .pm_mbr import params_new
from .weaksec import make_codec

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_PARAMS = 3
EXIT_NODES = 4
EXIT_SECRECY = 5
EXIT_CAP = 6


def default_degree(n: int, d: int) -> int:
    for m in (4, 8, 16):
        if (1 << m) >= n + 2 * d:
            return m
    raise ParameterError(f"no supported field fits n + 2d = {n + 2 * d}")


def non_negative_int(text: str) -> int:
    """A non-negative int option; argparse turns a refusal into exit 2."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{value} is negative")
    return value


def _add_param_flags(parser, required=True):
    parser.add_argument("-n", type=int, required=required, help="number of storage nodes")
    parser.add_argument("-k", type=int, required=required, help="nodes needed to reconstruct")
    parser.add_argument("-d", type=int, required=required, help="helpers consulted per repair")
    parser.add_argument(
        "-m", type=int, default=None,
        help="field degree (bits per symbol); default: smallest of 4, 8, 16 that fits",
    )


def _params_from_args(args):
    m = args.m if args.m is not None else default_degree(args.n, args.d)
    return params_new(args.n, args.k, args.d, m)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weavesafe",
        description="Store a file across simulated nodes so that no single "
        "eavesdropped node learns anything about any small group of message symbols.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="encode a file into a cluster directory")
    _add_param_flags(p)
    p.add_argument("--seed", type=int, default=None, help="randomness seed (tests only)")
    p.add_argument("file", help="input file")
    p.add_argument("root", help="cluster directory to create")

    p = sub.add_parser("reconstruct", help="rebuild the file from any k live nodes")
    p.add_argument("root")
    p.add_argument("out", help="output file")

    p = sub.add_parser("fail", help="simulate a node failure")
    p.add_argument("root")
    p.add_argument("node", type=int)

    p = sub.add_parser("repair", help="regenerate a failed node from d helpers")
    p.add_argument("root")
    p.add_argument("node", type=int)

    p = sub.add_parser("eavesdrop", help="dump everything one node stores")
    p.add_argument("root")
    p.add_argument("node", type=int)
    p.add_argument("-o", "--out", default=None, help="write JSON here instead of stdout")

    p = sub.add_parser("audit", help="verify the secrecy claims by rank computation")
    _add_param_flags(p, required=False)
    p.add_argument("root", nargs="?", default=None, help="audit an existing cluster")
    p.add_argument("-g", type=int, default=None, help="guesses to verify (default: the guaranteed maximum)")
    p.add_argument("--baseline", action="store_true", help="audit the inner code without the outer layer")
    p.add_argument(
        "--cap", type=non_negative_int, default=DEFAULT_VERIFY_CAP,
        help="max (subset, node) rank checks (default: %(default)s)",
    )
    p.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def cmd_encode(args) -> int:
    params = _params_from_args(args)
    with open(args.file, "rb") as fh:
        data = fh.read()
    manifest = store.cluster_store(data, params, args.root, seed=args.seed)
    print(
        f"stored {manifest.original_length} bytes as {manifest.chunk_count} chunks "
        f"across {params.n} nodes under {args.root}"
    )
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    data = store.cluster_reconstruct(args.root)
    with open(args.out, "wb") as fh:
        fh.write(data)
    print(f"reconstructed {len(data)} bytes to {args.out} (digest verified)")
    return EXIT_OK


def cmd_fail(args) -> int:
    store.cluster_fail(args.root, args.node)
    print(f"node {args.node} failed")
    return EXIT_OK


def cmd_repair(args) -> int:
    stats = store.cluster_repair(args.root, args.node)
    print(
        f"node {stats.node} repaired from helpers {list(stats.helpers)}; "
        f"downloaded {stats.symbols_per_chunk} symbols per chunk "
        f"({stats.symbols_downloaded} total)"
    )
    return EXIT_OK


def cmd_eavesdrop(args) -> int:
    cluster = store.Cluster(args.root)
    manifest = cluster.manifest()
    observations = cluster.read(args.node, manifest)
    params = manifest.params
    doc = {
        "node": args.node,
        "params": {"n": params.n, "k": params.k, "d": params.d, "m": params.m},
        "chunk_count": int(observations.shape[0]),
        "observations": observations.tolist(),
    }
    text = json.dumps(doc, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {observations.shape[0]} observation vectors to {args.out}")
    else:
        print(text)
    return EXIT_OK


def cmd_audit(args) -> int:
    flags = (args.n, args.k, args.d, args.m)
    missing = "/".join(f"-{c}" for c, v in zip("nkd", flags) if v is None)
    if args.root is not None and flags == (None,) * 4:
        cluster = store.Cluster(args.root)
        manifest = cluster.manifest()
        params = manifest.params
    elif args.root is None and not missing:
        params = _params_from_args(args)
    elif args.root is None:
        raise ParameterError(f"audit without a cluster root needs {missing}")
    else:
        raise ParameterError("audit needs either -n/-k/-d or a cluster root, not both")
    codec = make_codec(params)
    g = params.max_guesses if args.g is None else args.g

    if args.baseline:
        result = verify_weak_secrecy(codec, g, baseline=True, max_checks=args.cap)
        if args.format == "json":
            print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
        else:
            print("\n".join(result.to_lines("baseline (no outer code)")))
        return EXIT_OK if result.passed else EXIT_SECRECY

    report = audit_report(codec, guesses=g, max_checks=args.cap)
    if args.root is not None:
        report.cluster_demo = store.cluster_observation_demo(cluster, manifest)
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.to_text())
    return EXIT_OK if report.weak_secrecy.passed else EXIT_SECRECY


_COMMANDS = {
    "encode": cmd_encode,
    "reconstruct": cmd_reconstruct,
    "fail": cmd_fail,
    "repair": cmd_repair,
    "eavesdrop": cmd_eavesdrop,
    "audit": cmd_audit,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ParameterError as exc:
        print(f"weavesafe: parameter error: {exc}", file=sys.stderr)
        return EXIT_PARAMS
    except InsufficientNodesError as exc:
        print(f"weavesafe: insufficient nodes: {exc}", file=sys.stderr)
        return EXIT_NODES
    except CapExceededError as exc:
        print(f"weavesafe: cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (WeavesafeError, OSError, ValueError) as exc:
        print(f"weavesafe: error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
