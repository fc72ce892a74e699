"""Per-layer tracing for the benchmark: hooks around each module's public calls.

A hook replaces a function or method of ``weavesafe`` with a wrapper that
records a span (its self time: wall time minus the time of hooked calls
made inside it) and, optionally, a count.  Module-level functions are
replaced in every ``weavesafe`` module that holds a reference to them,
because ``store`` and ``audit`` import several of them by name; methods
are replaced on their class.

Nothing under ``src/`` knows about these hooks.  A target that no longer
exists is reported as missing and skipped, so the benchmark keeps running
when a later change renames or folds a function; a hook that never fires
during a traced run is reported as idle.
"""

import os
import sys
from collections import defaultdict
from time import perf_counter

_MATMUL = "gf2m.matmul_s"


def _matmul_symbols(args, parent):
    """Nonzero coefficients times columns for Field.mat_mul_cols(rows, cols)."""
    rows, cols = args[1], args[2]
    return sum(1 for row in rows for c in row if c) * cols.shape[1]


def _mul_vec_symbols(args, parent):
    """Field.mul_vec(a, vec) outside mat_mul_cols (those are counted there)."""
    if parent == _MATMUL or not args[1]:
        return 0
    return args[2].size


def _file_size(args, parent):
    return os.path.getsize(args[0])


# (target "module:qualname", self-time metric or None, count metric or None,
#  counter(args, enclosing span name) -> int, or None to count calls)
HOOKS = (
    # The numpy copies of the tables, built on a field's first bulk use, fall
    # into gf2m.matmul_s: the kernel fetches them on every call.
    ("gf2m:Field.__init__", "gf2m.field_init_s", "gf2m.field_inits", None),
    ("gf2m:Field.mat_mul_cols", _MATMUL, "gf2m.symbol_mults", _matmul_symbols),
    ("gf2m:Field.mul_vec", _MATMUL, "gf2m.symbol_mults", _mul_vec_symbols),
    ("linalg:invert", "linalg.invert_s", "linalg.invert_calls", None),
    ("linalg:rank", "linalg.rank_s", "linalg.rank_calls", None),
    ("weaksec:SecureCodec.__init__", "weaksec.codec_build_s", "weaksec.codec_builds", None),
    ("weaksec:OuterCode.coset_encode_bulk", "weaksec.coset_encode_s", None, None),
    ("weaksec:OuterCode.coset_decode_bulk", "weaksec.coset_decode_s", None, None),
    ("pm_mbr:encode_bulk", "pm_mbr.encode_s", None, None),
    ("pm_mbr:reconstruct_bulk", "pm_mbr.reconstruct_s", None, None),
    ("pm_mbr:repair_bulk", "pm_mbr.repair_s", None, None),
    ("store:chunk_plaintext", "store.chunk_s", None, None),
    ("store:unchunk_plaintext", "store.chunk_s", None, None),
    ("store:SymbolSource.symbols", "store.randomness_s", None, None),
    ("store:write_share", "store.share_write_s", "store.share_bytes_written", _file_size),
    ("store:read_share", "store.share_read_s", "store.share_bytes_read", _file_size),
    ("store:Manifest.from_json", None, "store.manifest_parses", None),
    ("audit:verify_weak_secrecy", "audit.verify_s", None, None),
    ("audit:leakage", None, "audit.leakage_calls", None),
    ("audit:certify_extended_parity", "audit.certify_s", None, None),
)

# Spans whose work is mostly kernel calls also report their inclusive time
# (kernel calls made inside them included) as "<name>_incl_s", so that a
# change to how they drive the kernel shows up on the caller.
INCLUSIVE = (
    "weaksec.coset_encode_s",
    "weaksec.coset_decode_s",
    "pm_mbr.encode_s",
    "pm_mbr.reconstruct_s",
    "pm_mbr.repair_s",
)


def _incl(name):
    return name[: -len("_s")] + "_incl_s"


TIME_METRICS = tuple(dict.fromkeys(h[1] for h in HOOKS if h[1])) + tuple(map(_incl, INCLUSIVE))
COUNT_METRICS = tuple(dict.fromkeys(h[2] for h in HOOKS if h[2]))


class Tracer:
    """Accumulates self time and counts per metric for the installed hooks."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.counts = defaultdict(int)
        self.fired = defaultdict(int)  # target -> calls
        self.missing = []
        self._stack = []  # open spans: [metric name, seconds of hooked children]

    def install(self):
        """Wrap every hook target that exists; returns the missing ones."""
        for target, time_metric, count_metric, counter in HOOKS:
            if not _patch(target, self._wrap(target, time_metric, count_metric, counter)):
                self.missing.append(target)
        return self.missing

    def idle(self):
        """Installed targets that never ran."""
        return [h[0] for h in HOOKS if h[0] not in self.missing and not self.fired[h[0]]]

    def metrics(self):
        out = {name: self.seconds[name] for name in TIME_METRICS}
        out.update((name, self.counts[name]) for name in COUNT_METRICS)
        return out

    def _wrap(self, target, time_metric, count_metric, counter):
        stack = self._stack

        def wrap(fn):
            def hooked(*args, **kwargs):
                parent = stack[-1] if stack else None
                span = [time_metric, 0.0]
                if time_metric:
                    stack.append(span)
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    t1 = perf_counter()
                    if time_metric:
                        stack.pop()
                        self.seconds[time_metric] += t1 - t0 - span[1]
                        if time_metric in INCLUSIVE:
                            self.seconds[_incl(time_metric)] += t1 - t0
                    self.fired[target] += 1
                    if count_metric:
                        self.counts[count_metric] += (
                            counter(args, parent and parent[0]) if counter else 1
                        )
                    if parent is not None:
                        # A span's time leaves its parent's self time; a
                        # counter's cost is charged to no layer at all.
                        traced = t1 - t0 if time_metric else 0.0
                        parent[1] += traced + perf_counter() - t1

            hooked.__wrapped__ = fn
            hooked.__name__ = getattr(fn, "__name__", "hooked")
            return hooked

        return wrap


def _patch(target, wrap):
    module_name, qualname = target.split(":")
    module = sys.modules.get(f"weavesafe.{module_name}")
    if module is None:
        return False
    owner_name, _, attr = qualname.rpartition(".")
    if owner_name:
        owner = getattr(module, owner_name, None)
        raw = getattr(owner, "__dict__", {}).get(attr)
        if raw is None:
            return False
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(wrap(raw.__func__)))
        else:
            setattr(owner, attr, wrap(raw))
        return True
    original = getattr(module, attr, None)
    if original is None:
        return False
    hooked = wrap(original)
    for name, mod in list(sys.modules.items()):
        if name == "weavesafe" or name.startswith("weavesafe."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, hooked)
    return True
