"""On-disk cluster simulation: chunking, share files, manifest, repair.

Layout under a cluster root:

    root/manifest.json
    root/node_<i>/share.wsrc      one file per node, i = 1..n; a store removes any above n

Share file format (bit-exact):

    magic   4 bytes  "WSRC"
    version u8       1
    m, n, k, d, node u8 each
    reserved u16     0
    chunk_count u32  little-endian
    payload          chunk_count * d symbols, each big-endian
                     ceil(m/8) bytes, high bits zero

The plaintext is packed big-endian into m-bit symbols, grouped into
chunks of B-2 symbols (zero-padded at the tail), and every chunk runs
through coset encoding with two fresh random symbols before the inner
code fans it out to the nodes.  In memory, symbols are numpy arrays at
native width from chunking to share files and back: uint8 for m <= 8,
uint16 above (``gf2m.native_dtype``).  A failed node is simply a
missing share file; repair rebuilds it bit-identically from d live
helpers.  Store, fail and repair hold the single-writer lock (root/.lock)
for the whole operation; reconstruct and eavesdrop read without it.

Reusing a seed voids the uniformity that the coset layer's secrecy rests
on: the seed flag exists for tests and reproducibility checks only.
"""

import hashlib
import json
import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    InsufficientNodesError,
    IntegrityError,
    ParameterError,
    ShareFormatError,
)
from .gf2m import native_dtype
from .pm_mbr import CodeParams, encode_bulk, params_new, repair_bulk
from .weaksec import make_codec

MAGIC = b"WSRC"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sBBBBBBHI")
# The header holds n, k, d and the node index in one byte each.
_MAX_NODES = 255


# -- plaintext <-> symbols ---------------------------------------------------


def _bit_groups(m: int) -> tuple[int, int]:
    """(symbols, bytes) of the shortest run of m-bit symbols that ends on
    a byte boundary: 8/g symbols fill m/g bytes, g = gcd(m, 8)."""
    g = math.gcd(m, 8)
    return 8 // g, m // g


def plaintext_to_symbols(data: bytes, m: int) -> np.ndarray:
    """Big-endian bit packing at m bits per symbol, zero-padded tail."""
    dtype = native_dtype(m)
    if m % 8 == 0:  # byte-aligned: the bytes already are the symbols
        width = m // 8
        padded = data + bytes(-len(data) % width)
        return np.frombuffer(padded, dtype=f">u{width}").astype(dtype)
    per_group, group_bytes = _bit_groups(m)
    count = -(-len(data) * 8 // m)
    groups = -(-count // per_group)
    raw = np.zeros(groups * group_bytes, dtype=np.uint8)
    raw[: len(data)] = np.frombuffer(data, dtype=np.uint8)
    raw = raw.reshape(groups, group_bytes)
    out = np.empty((groups, per_group), dtype=dtype)
    for j in range(per_group):
        # symbol j holds bits j*m .. j*m+m-1 of its group, within bytes first..last
        first, last = j * m // 8, (j * m + m - 1) // 8
        value = raw[:, first].astype(np.uint32)
        for b in range(first + 1, last + 1):
            value <<= 8
            value |= raw[:, b]
        value >>= 8 * (last + 1) - (j + 1) * m
        out[:, j] = value & ((1 << m) - 1)
    return out.reshape(-1)[:count]


def symbols_to_plaintext(symbols: np.ndarray, m: int, byte_length: int) -> bytes:
    """Inverse of plaintext_to_symbols given the original byte length."""
    if byte_length == 0:
        return b""
    if symbols.size * m < byte_length * 8:
        raise ValueError(f"{symbols.size} symbols cannot hold {byte_length} bytes")
    if m % 8 == 0:
        width = m // 8
        raw = symbols[: -(-byte_length // width)].astype(f">u{width}", copy=False).tobytes()
        return raw[:byte_length]
    per_group, group_bytes = _bit_groups(m)
    count = -(-byte_length * 8 // m)
    groups = -(-count // per_group)
    grid = np.zeros(groups * per_group, dtype=native_dtype(m))
    grid[:count] = symbols[:count]
    grid = grid.reshape(groups, per_group)
    raw = np.empty((groups, group_bytes), dtype=np.uint8)
    for b in range(group_bytes):
        # byte b holds bits 8b .. 8b+7 of its group, from symbols 8b//m .. (8b+7)//m
        value = np.zeros(groups, dtype=np.uint32)
        for j in range(8 * b // m, (8 * b + 7) // m + 1):
            shift = 8 * (b + 1) - (j + 1) * m
            part = grid[:, j].astype(np.uint32)
            value |= part << shift if shift >= 0 else part >> -shift
        raw[:, b] = value & 0xFF
    return raw.reshape(-1)[:byte_length].tobytes()


def _chunks_for(byte_length: int, params: CodeParams) -> int:
    """Chunks of B-2 symbols that byte_length bytes fill at m bits a
    symbol: ceil(ceil(8 * byte_length / m) / (B-2)), 0 for no bytes."""
    symbols = -(-byte_length * 8 // params.m)
    return -(-symbols // params.secure_symbols)


def chunk_plaintext(data: bytes, params: CodeParams) -> np.ndarray:
    """Chunk rows of B-2 symbols each; the final chunk is zero-padded."""
    symbols = plaintext_to_symbols(data, params.m)
    width = params.secure_symbols
    count = _chunks_for(len(data), params)
    padded = np.zeros(count * width, dtype=symbols.dtype)
    padded[: len(symbols)] = symbols
    return padded.reshape(count, width)


def unchunk_plaintext(chunks: np.ndarray, byte_length: int, params: CodeParams) -> bytes:
    """Inverse of chunk_plaintext, refusing any nonzero bit past byte_length."""
    symbols = chunks.reshape(-1)
    q, r = divmod(8 * byte_length, params.m)  # bit 8 * byte_length is bit r of symbol q
    if (symbols[q : q + 1] & ((1 << (params.m - r)) - 1)).any() or symbols[q + 1 :].any():
        raise IntegrityError(f"nonzero data past original_length {byte_length} (cut length or corrupt share)")
    return symbols_to_plaintext(symbols, params.m, byte_length)


# -- randomness ----------------------------------------------------------------


class SymbolSource:
    """Uniform m-bit symbols; SHA-256 counter stream from an int seed, else urandom.

    The hash stream makes seeded runs byte-identical across platforms.
    """

    def __init__(self, m: int, seed=None):
        self.m = m
        self.mask = (1 << m) - 1
        if seed is None:
            self._key = None
        elif type(seed) is int:  # a bool is not a seed
            if seed < 0:
                raise ValueError("seed must be nonnegative")
            self._key = seed.to_bytes(max((seed.bit_length() + 7) // 8, 1), "big")
        else:
            raise TypeError(f"unsupported seed type {type(seed).__name__}")
        self._counter = 0

    def _stream(self, nbytes: int) -> bytes:
        if self._key is None:
            return os.urandom(nbytes)
        out = bytearray()
        while len(out) < nbytes:
            out += hashlib.sha256(self._key + self._counter.to_bytes(8, "big")).digest()
            self._counter += 1
        return bytes(out[:nbytes])

    def symbols(self, count: int) -> np.ndarray:
        raw = np.frombuffer(self._stream(2 * count), dtype=">u2") & self.mask
        return raw.astype(native_dtype(self.m))


# -- manifest -------------------------------------------------------------------


def _share_map(n: int) -> dict:
    """The manifest's node -> relative share path map, fixed by n."""
    return {str(e): f"node_{e}/share.wsrc" for e in range(1, n + 1)}


@dataclass
class Manifest:
    params: CodeParams
    original_length: int
    chunk_count: int
    digest_sha256: str

    def to_json(self) -> str:
        doc = {
            "format_version": FORMAT_VERSION,
            "params": {"n": self.params.n, "k": self.params.k, "d": self.params.d, "m": self.params.m},
            "original_length": self.original_length,
            "chunk_count": self.chunk_count,
            "shares": _share_map(self.params.n),
            "digest_sha256": self.digest_sha256,
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "Manifest":
        """Parse a manifest, refusing wrong types, other format versions,
        a chunk count that the length and params do not fix, and any share
        map but the one n fixes."""
        try:
            doc = json.loads(text)
            p = doc["params"]
            params = params_new(p["n"], p["k"], p["d"], p["m"])
            version = doc["format_version"]
            if type(version) is not int or version != FORMAT_VERSION:
                raise ShareFormatError(f"unsupported manifest format_version {version!r}")
            for key in ("original_length", "chunk_count"):
                if type(doc[key]) is not int or doc[key] < 0:
                    raise ShareFormatError(f"malformed manifest: {key} must be a non-negative int")
            expected = _chunks_for(doc["original_length"], params)
            if doc["chunk_count"] != expected:
                raise ShareFormatError(
                    f"malformed manifest: chunk_count {doc['chunk_count']} disagrees with "
                    f"original_length {doc['original_length']}, which fills {expected} chunks"
                )
            if doc["shares"] != _share_map(params.n):
                raise ShareFormatError("malformed manifest: shares must map node e to node_e/share.wsrc")
            if not isinstance(doc["digest_sha256"], str):
                raise ShareFormatError("malformed manifest: digest_sha256 must be a string")
            return cls(params, doc["original_length"], doc["chunk_count"], doc["digest_sha256"])
        except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
            if isinstance(exc, ParameterError):
                raise
            raise ShareFormatError(f"malformed manifest: {exc}") from exc


@dataclass(frozen=True)
class RepairStats:
    node: int
    helpers: tuple
    chunk_count: int
    symbols_downloaded: int

    @property
    def symbols_per_chunk(self) -> int:
        return self.symbols_downloaded // self.chunk_count if self.chunk_count else 0


# -- share file io ---------------------------------------------------------------


def _symbol_dtype(m: int):
    return np.dtype(">u2") if m > 8 else np.dtype("u1")


def write_share(path, params: CodeParams, node: int, symbols: np.ndarray) -> None:
    """symbols is (chunk_count, d); payload is chunk-major, copied once."""
    p = params
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, FORMAT_VERSION, p.m, p.n, p.k, p.d, node, 0, len(symbols)))
        fh.write(np.ascontiguousarray(symbols, dtype=_symbol_dtype(p.m)))


def read_share(path, params: CodeParams, node: int, chunk_count: int) -> np.ndarray:
    """Node's share as a fresh writable (chunk_count x d) array of native
    dtype, after every check a share must pass: magic, version, reserved
    field, (m, n, k, d), node label, chunk count, payload length and symbol
    range.

    The file is read into a bytearray, which the array then views: at
    m <= 8 the file's bytes are the symbols and nothing is copied.  Two-byte
    symbols are big-endian in the file and converted once.  Every symbol is
    range-checked, except at m = 8 and m = 16, where each stored value is a
    field element.
    """
    with open(path, "rb") as fh:
        raw = bytearray(os.fstat(fh.fileno()).st_size)
        del raw[fh.readinto(raw) :]
    if len(raw) < _HEADER.size:
        raise ShareFormatError(f"{path}: truncated header")
    magic, version, m, n, k, d, label, reserved, count = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise ShareFormatError(f"{path}: bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise ShareFormatError(f"{path}: unsupported version {version}")
    if reserved != 0:
        raise ShareFormatError(f"{path}: nonzero reserved field")
    if (m, n, k, d) != (params.m, params.n, params.k, params.d):
        raise ShareFormatError(f"share for node {node} disagrees with manifest parameters")
    if label != node:
        raise ShareFormatError(f"share at node {node} labels itself node {label}")
    if count != chunk_count:
        raise ShareFormatError(f"share for node {node} has wrong chunk count")
    dtype = _symbol_dtype(m)
    expected = count * d * dtype.itemsize
    payload = memoryview(raw)[_HEADER.size :]
    if len(payload) != expected:
        raise ShareFormatError(f"{path}: payload is {len(payload)} bytes, expected {expected}")
    symbols = np.frombuffer(payload, dtype=dtype).astype(native_dtype(m), copy=False)
    if m not in (8, 16) and symbols.size and int(symbols.max()) >= (1 << m):
        raise ShareFormatError(f"{path}: symbol out of range for m={m}")
    return symbols.reshape(count, d)


# -- cluster ----------------------------------------------------------------------


class _ClusterLock:
    """Advisory single-writer lock: an exclusively created file under root."""

    def __init__(self, root: Path):
        self.path = root / ".lock"

    def __enter__(self):
        try:
            self._fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise ShareFormatError(
                f"cluster {self.path.parent} is locked by another writer "
                f"(remove {self.path} if stale)"
            ) from None
        except FileNotFoundError:
            raise ShareFormatError(f"no cluster at {self.path.parent}") from None
        return self

    def __exit__(self, *exc):
        os.close(self._fd)
        os.unlink(self.path)


class Cluster:
    """Handle on one cluster root directory."""

    def __init__(self, root):
        self.root = Path(root)

    @property
    def manifest_path(self) -> Path:
        return self.root / "manifest.json"

    def manifest(self) -> Manifest:
        if not self.manifest_path.exists():
            raise ShareFormatError(f"no manifest at {self.manifest_path}")
        return Manifest.from_json(self.manifest_path.read_text())

    def share_path(self, node: int) -> Path:
        return self.root / f"node_{node}" / "share.wsrc"

    def live_nodes(self, manifest: Manifest) -> list[int]:
        """Nodes whose share file exists, given the operation's manifest."""
        return [e for e in range(1, manifest.params.n + 1) if self.share_path(e).exists()]

    def read_share_columns(self, node: int, manifest: Manifest) -> np.ndarray:
        """Node's checked share as a (d, chunk_count) array."""
        return read_share(self.share_path(node), manifest.params, node, manifest.chunk_count).T.copy()

    def observe(self, node: int, manifest: Manifest) -> np.ndarray:
        """Everything node stores against manifest: a length-d vector per chunk."""
        manifest.params.check_node(node)
        path = self.share_path(node)
        if not path.exists():
            raise InsufficientNodesError(f"node {node} is failed; nothing to observe")
        return read_share(path, manifest.params, node, manifest.chunk_count)


def cluster_store(data: bytes, params: CodeParams, root, seed=None) -> Manifest:
    """Encode data across n simulated nodes under root; returns the manifest.

    An n the share header cannot hold and a bad seed are refused before
    anything is written.
    """
    if params.n > _MAX_NODES:
        raise ParameterError(f"n={params.n} too large: share files hold at most {_MAX_NODES} nodes")
    source = SymbolSource(params.m, seed)
    codec = make_codec(params)
    cluster = Cluster(root)
    cluster.root.mkdir(parents=True, exist_ok=True)
    with _ClusterLock(cluster.root):
        chunks = chunk_plaintext(data, params)
        n_chunks = chunks.shape[0]
        randomness = source.symbols(2 * n_chunks).reshape(n_chunks, 2)
        codewords = codec.outer.coset_encode_bulk(chunks.T, randomness.T)
        del chunks  # the plaintext symbols are not needed past the coset layer
        node_shares = encode_bulk(codec.inner, codewords)
        manifest = Manifest(
            params=params,
            original_length=len(data),
            chunk_count=n_chunks,
            digest_sha256=hashlib.sha256(data).hexdigest(),
        )
        for e in range(1, params.n + 1):
            path = cluster.share_path(e)
            path.parent.mkdir(exist_ok=True)
            write_share(path, params, e, node_shares[e].T)
        # A share above n, left by an earlier store, would still hold its file.
        for entry in os.scandir(cluster.root):
            e = entry.name.removeprefix("node_")
            if e != entry.name and e.isdecimal() and int(e) > params.n:
                cluster.share_path(int(e)).unlink(missing_ok=True)
        cluster.manifest_path.write_text(manifest.to_json())
    return manifest


def cluster_reconstruct(root) -> bytes:
    """Rebuild the plaintext from any k live nodes and verify its digest."""
    cluster = Cluster(root)
    manifest = cluster.manifest()
    p = manifest.params
    live = cluster.live_nodes(manifest)
    if len(live) < p.k:
        raise InsufficientNodesError(f"only {len(live)} live nodes, need k={p.k}")
    codec = make_codec(p)
    shares = {e: read_share(cluster.share_path(e), p, e, manifest.chunk_count).T for e in live[: p.k]}
    chunks = codec.outer.coset_decode_bulk(codec.inner, shares)
    del shares  # freed before the plaintext bytes are assembled
    data = unchunk_plaintext(chunks.T, manifest.original_length, p)
    digest = hashlib.sha256(data).hexdigest()
    if digest != manifest.digest_sha256:
        raise IntegrityError(
            f"digest mismatch: manifest {manifest.digest_sha256[:16]}.., got {digest[:16]}.."
        )
    return data


def cluster_fail(root, node: int) -> None:
    """Simulate a node failure by removing its share file."""
    cluster = Cluster(root)
    with _ClusterLock(cluster.root):
        cluster.manifest().params.check_node(node)
        path = cluster.share_path(node)
        if not path.exists():
            raise ValueError(f"node {node} is already failed")
        path.unlink()


def cluster_repair(root, node: int) -> RepairStats:
    """Regenerate a failed node's share, bit-identical, from d helpers."""
    cluster = Cluster(root)
    with _ClusterLock(cluster.root):
        manifest = cluster.manifest()
        p = manifest.params
        p.check_node(node)
        path = cluster.share_path(node)
        if path.exists():
            raise ValueError(f"node {node} is live; nothing to repair")
        live = cluster.live_nodes(manifest)
        if len(live) < p.d:
            raise InsufficientNodesError(f"repair needs d={p.d} helpers, only {len(live)} live")
        helpers = live[: p.d]
        codec = make_codec(p)
        helper_cols = {e: cluster.read_share_columns(e, manifest) for e in helpers}
        repaired, downloaded = repair_bulk(codec.inner, node, helper_cols)
        path.parent.mkdir(exist_ok=True)
        write_share(path, p, node, repaired.T)
    return RepairStats(node, tuple(helpers), manifest.chunk_count, downloaded)


def cluster_eavesdrop(root, node: int) -> np.ndarray:
    """Everything node stores, one length-d observation vector per chunk."""
    cluster = Cluster(root)
    return cluster.observe(node, cluster.manifest())
