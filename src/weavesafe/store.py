"""On-disk cluster simulation: chunking, share files, manifest, repair.

Layout under a cluster root:

    root/manifest.json
    root/node_<i>/share.wsrc      one file per node, i = 1..n

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
helpers.

Reusing a seed voids the uniformity that the coset layer's secrecy rests
on: the seed flag exists for tests and reproducibility checks only.
"""

import hashlib
import json
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
from .pm_mbr import CodeParams, encode_bulk, params_new, reconstruct_bulk, repair_bulk
from .weaksec import make_codec

MAGIC = b"WSRC"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sBBBBBBHI")


# -- plaintext <-> symbols ---------------------------------------------------


def plaintext_to_symbols(data: bytes, m: int) -> np.ndarray:
    """Big-endian bit packing at m bits per symbol, zero-padded tail."""
    dtype = native_dtype(m)
    if m % 8 == 0:  # byte-aligned: the bytes already are the symbols
        width = m // 8
        padded = data + bytes(-len(data) % width)
        return np.frombuffer(padded, dtype=f">u{width}").astype(dtype)
    if not data:
        return np.zeros(0, dtype=dtype)
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
    pad = (-len(bits)) % m
    if pad:
        bits = np.concatenate([bits, np.zeros(pad, dtype=np.uint8)])
    weights = (1 << np.arange(m - 1, -1, -1)).astype(dtype)
    return bits.reshape(-1, m).astype(dtype) @ weights


def symbols_to_plaintext(symbols: np.ndarray, m: int, byte_length: int) -> bytes:
    """Inverse of plaintext_to_symbols given the original byte length."""
    if byte_length == 0:
        return b""
    if symbols.size * m < byte_length * 8:
        raise ValueError(f"{symbols.size} symbols cannot hold {byte_length} bytes")
    if m % 8 == 0:
        raw = symbols.astype(f">u{m // 8}").tobytes()
    else:
        shifts = np.arange(m - 1, -1, -1, dtype=symbols.dtype)
        raw = np.packbits(((symbols.reshape(-1, 1) >> shifts) & 1).astype(np.uint8)).tobytes()
    return raw[:byte_length]


def chunk_plaintext(data: bytes, params: CodeParams) -> np.ndarray:
    """Chunk rows of B-2 symbols each; the final chunk is zero-padded."""
    symbols = plaintext_to_symbols(data, params.m)
    width = params.secure_symbols
    count = -(-len(symbols) // width) if len(symbols) else 0
    padded = np.zeros(count * width, dtype=symbols.dtype)
    padded[: len(symbols)] = symbols
    return padded.reshape(count, width)


def unchunk_plaintext(chunks: np.ndarray, byte_length: int, params: CodeParams) -> bytes:
    return symbols_to_plaintext(chunks.reshape(-1), params.m, byte_length)


# -- randomness ----------------------------------------------------------------


class SymbolSource:
    """Uniform m-bit symbols; SHA-256 counter stream when seeded, else urandom.

    The hash stream makes seeded runs byte-identical across platforms.
    """

    def __init__(self, m: int, seed=None):
        self.m = m
        self.mask = (1 << m) - 1
        if seed is None:
            self._key = None
        elif isinstance(seed, int):
            if seed < 0:
                raise ValueError("seed must be nonnegative")
            self._key = seed.to_bytes(max((seed.bit_length() + 7) // 8, 1), "big")
        elif isinstance(seed, (bytes, bytearray)):
            self._key = bytes(seed)
        elif isinstance(seed, str):
            self._key = seed.encode("utf-8")
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


@dataclass
class Manifest:
    params: CodeParams
    original_length: int
    chunk_count: int
    shares: dict  # node -> relative share path
    digest_sha256: str
    format_version: int = FORMAT_VERSION

    def to_json(self) -> str:
        doc = {
            "format_version": self.format_version,
            "params": {"n": self.params.n, "k": self.params.k, "d": self.params.d, "m": self.params.m},
            "original_length": self.original_length,
            "chunk_count": self.chunk_count,
            "shares": {str(node): path for node, path in sorted(self.shares.items())},
            "digest_sha256": self.digest_sha256,
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "Manifest":
        try:
            doc = json.loads(text)
            p = doc["params"]
            params = params_new(p["n"], p["k"], p["d"], p["m"])
            return cls(
                params=params,
                original_length=doc["original_length"],
                chunk_count=doc["chunk_count"],
                shares={int(node): path for node, path in doc["shares"].items()},
                digest_sha256=doc["digest_sha256"],
                format_version=doc["format_version"],
            )
        except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
            if isinstance(exc, ParameterError):
                raise
            raise ShareFormatError(f"malformed manifest: {exc}") from exc


@dataclass(frozen=True)
class ShareHeader:
    version: int
    m: int
    n: int
    k: int
    d: int
    node: int
    chunk_count: int


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
    """symbols is (chunk_count, d); payload is chunk-major."""
    chunk_count = symbols.shape[0]
    header = _HEADER.pack(
        MAGIC, FORMAT_VERSION, params.m, params.n, params.k, params.d, node, 0, chunk_count
    )
    payload = symbols.astype(_symbol_dtype(params.m)).tobytes()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


def read_share(path) -> tuple[ShareHeader, np.ndarray]:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise ShareFormatError(f"{path}: truncated header")
    magic, version, m, n, k, d, node, reserved, chunk_count = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise ShareFormatError(f"{path}: bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise ShareFormatError(f"{path}: unsupported version {version}")
    if reserved != 0:
        raise ShareFormatError(f"{path}: nonzero reserved field")
    width = 2 if m > 8 else 1
    expected = chunk_count * d * width
    payload = raw[_HEADER.size :]
    if len(payload) != expected:
        raise ShareFormatError(f"{path}: payload is {len(payload)} bytes, expected {expected}")
    symbols = np.frombuffer(payload, dtype=_symbol_dtype(m)).astype(native_dtype(m))
    if m < 16 and symbols.size and int(symbols.max()) >= (1 << m):
        raise ShareFormatError(f"{path}: symbol out of range for m={m}")
    return ShareHeader(version, m, n, k, d, node, chunk_count), symbols.reshape(chunk_count, d)


# -- cluster ----------------------------------------------------------------------


class _ClusterLock:
    """Advisory single-writer lock: an exclusively created file under root."""

    def __init__(self, root: Path):
        self.path = root / ".lock"
        self._fd = None

    def __enter__(self):
        try:
            self._fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise ShareFormatError(
                f"cluster {self.path.parent} is locked by another writer "
                f"(remove {self.path} if stale)"
            ) from None
        return self

    def __exit__(self, *exc):
        if self._fd is not None:
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

    def live_nodes(self) -> list[int]:
        n = self.manifest().params.n
        return [e for e in range(1, n + 1) if self.share_path(e).exists()]

    def read_share_columns(self, node: int) -> np.ndarray:
        """Share symbols as a (d, chunk_count) array, header cross-checked."""
        manifest = self.manifest()
        p = manifest.params
        header, symbols = read_share(self.share_path(node))
        if (header.m, header.n, header.k, header.d) != (p.m, p.n, p.k, p.d):
            raise ShareFormatError(f"share for node {node} disagrees with manifest parameters")
        if header.node != node:
            raise ShareFormatError(f"share at node {node} labels itself node {header.node}")
        if header.chunk_count != manifest.chunk_count:
            raise ShareFormatError(f"share for node {node} has wrong chunk count")
        return symbols.T.copy()


def cluster_store(data: bytes, params: CodeParams, root, seed=None) -> Manifest:
    """Encode data across n simulated nodes under root; returns the manifest."""
    codec = make_codec(params)
    cluster = Cluster(root)
    cluster.root.mkdir(parents=True, exist_ok=True)

    chunks = chunk_plaintext(data, params)
    n_chunks = chunks.shape[0]
    randomness = SymbolSource(params.m, seed).symbols(2 * n_chunks).reshape(n_chunks, 2)
    codewords = codec.outer.coset_encode_bulk(chunks.T, randomness.T)
    node_shares = encode_bulk(codec.inner, codewords)

    manifest = Manifest(
        params=params,
        original_length=len(data),
        chunk_count=n_chunks,
        shares={e: f"node_{e}/share.wsrc" for e in range(1, params.n + 1)},
        digest_sha256=hashlib.sha256(data).hexdigest(),
    )
    with _ClusterLock(cluster.root):
        for e in range(1, params.n + 1):
            path = cluster.share_path(e)
            path.parent.mkdir(exist_ok=True)
            write_share(path, params, e, node_shares[e].T)
        cluster.manifest_path.write_text(manifest.to_json())
    return manifest


def cluster_reconstruct(root) -> bytes:
    """Rebuild the plaintext from any k live nodes and verify its digest."""
    cluster = Cluster(root)
    manifest = cluster.manifest()
    p = manifest.params
    live = cluster.live_nodes()
    if len(live) < p.k:
        raise InsufficientNodesError(f"only {len(live)} live nodes, need k={p.k}")
    codec = make_codec(p)
    share_cols = {e: cluster.read_share_columns(e) for e in live[: p.k]}
    codewords = reconstruct_bulk(codec.inner, share_cols)
    chunks = codec.outer.coset_decode_bulk(codewords)
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
    p = cluster.manifest().params
    if not 1 <= node <= p.n:
        raise ValueError(f"node index {node} out of range 1..{p.n}")
    path = cluster.share_path(node)
    if not path.exists():
        raise ValueError(f"node {node} is already failed")
    with _ClusterLock(cluster.root):
        path.unlink()


def cluster_repair(root, node: int) -> RepairStats:
    """Regenerate a failed node's share, bit-identical, from d helpers."""
    cluster = Cluster(root)
    manifest = cluster.manifest()
    p = manifest.params
    if not 1 <= node <= p.n:
        raise ValueError(f"node index {node} out of range 1..{p.n}")
    if cluster.share_path(node).exists():
        raise ValueError(f"node {node} is live; nothing to repair")
    live = cluster.live_nodes()
    if len(live) < p.d:
        raise InsufficientNodesError(f"repair needs d={p.d} helpers, only {len(live)} live")
    helpers = live[: p.d]
    codec = make_codec(p)
    helper_cols = {e: cluster.read_share_columns(e) for e in helpers}
    repaired, downloaded = repair_bulk(codec.inner, node, helper_cols)
    with _ClusterLock(cluster.root):
        path = cluster.share_path(node)
        path.parent.mkdir(exist_ok=True)
        write_share(path, p, node, repaired.T)
    return RepairStats(node, tuple(helpers), manifest.chunk_count, downloaded)


def cluster_eavesdrop(root, node: int) -> np.ndarray:
    """Everything node stores, one length-d observation vector per chunk."""
    cluster = Cluster(root)
    p = cluster.manifest().params
    if not 1 <= node <= p.n:
        raise ValueError(f"node index {node} out of range 1..{p.n}")
    if not cluster.share_path(node).exists():
        raise InsufficientNodesError(f"node {node} is failed; nothing to observe")
    return cluster.read_share_columns(node).T.copy()
