import hashlib
import json
import math
import os
import random
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from weavesafe.cli import main as cli_main
from weavesafe.errors import (
    InsufficientNodesError,
    IntegrityError,
    ParameterError,
    ShareFormatError,
)
from weavesafe.gf2m import native_dtype
from weavesafe.linalg import mat_vec
from weavesafe.pm_mbr import CodeParams, params_new
from weavesafe.store import (
    Cluster,
    Manifest,
    SymbolSource,
    chunk_plaintext,
    cluster_eavesdrop,
    cluster_fail,
    cluster_observation_demo,
    cluster_reconstruct,
    cluster_repair,
    cluster_store,
    read_share,
    unchunk_plaintext,
    write_share,
)
from weavesafe.weaksec import make_codec

P534 = params_new(5, 3, 4, 4)
P534_BYTE = params_new(5, 3, 4, 8)


# -- symbol packing -----------------------------------------------------------


def one_symbol_chunks(m: int):
    """Parameters with B-2 = 1, so a chunk grid flattened is the symbol array."""
    return params_new(3, 2, 2, m)


def test_symbols_m8_is_byte_identity():
    data = bytes([0, 1, 127, 255, 16])
    assert chunk_plaintext(data, one_symbol_chunks(8)).reshape(-1).tolist() == [0, 1, 127, 255, 16]


def test_symbols_m4_high_nibble_first():
    assert chunk_plaintext(b"\xab\x05", one_symbol_chunks(4)).reshape(-1).tolist() == [0xA, 0xB, 0x0, 0x5]


def test_symbols_empty():
    assert chunk_plaintext(b"", one_symbol_chunks(7)).size == 0
    assert unchunk_plaintext(np.zeros(0, dtype=np.int32), 0, one_symbol_chunks(7)) == b""


@pytest.mark.parametrize("m", [3, 4, 8, 11, 16])
def test_symbol_packing_roundtrip(m):
    rng = random.Random(m)
    params = one_symbol_chunks(m)
    for length in (0, 1, 2, 7, 64, 251):
        data = bytes(rng.randrange(256) for _ in range(length))
        symbols = chunk_plaintext(data, params).reshape(-1)
        assert symbols.dtype == native_dtype(m)
        assert symbols.size == -(-length * 8 // m) if length else symbols.size == 0
        assert unchunk_plaintext(symbols, length, params) == data


def reference_plaintext_to_symbols(data: bytes, m: int) -> np.ndarray:
    """Bit-by-bit packing: every bit expanded into a byte, then m at a time."""
    dtype = native_dtype(m)
    if not data:
        return np.zeros(0, dtype=dtype)
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
    pad = (-len(bits)) % m
    if pad:
        bits = np.concatenate([bits, np.zeros(pad, dtype=np.uint8)])
    weights = (1 << np.arange(m - 1, -1, -1)).astype(dtype)
    return bits.reshape(-1, m).astype(dtype) @ weights


def reference_symbols_to_plaintext(symbols: np.ndarray, m: int, byte_length: int) -> bytes:
    shifts = np.arange(m - 1, -1, -1, dtype=symbols.dtype)
    bits = ((symbols.reshape(-1, 1) >> shifts) & 1).astype(np.uint8)
    return np.packbits(bits).tobytes()[:byte_length]


@pytest.mark.parametrize("m", range(3, 17))
def test_group_packing_matches_bitwise_reference(m):
    """Group-wise shifts give the same symbols and bytes as packing bit by
    bit, for every length up to a few groups of 8/gcd(m, 8) symbols."""
    rng = random.Random(300 + m)
    params = one_symbol_chunks(m)
    group_bytes = m // math.gcd(m, 8)
    for length in range(4 * group_bytes + 2):
        data = bytes(rng.randrange(256) for _ in range(length))
        symbols = chunk_plaintext(data, params).reshape(-1)
        expected = reference_plaintext_to_symbols(data, m)
        assert symbols.dtype == expected.dtype and symbols.tolist() == expected.tolist(), (m, length)
        assert unchunk_plaintext(symbols, length, params) == data
        if length:
            assert reference_symbols_to_plaintext(expected, m, length) == data


@pytest.mark.parametrize("m", range(3, 17))
def test_unchunk_refuses_a_short_grid_and_any_bit_past_the_length(m):
    """A grid too short for the length is a ValueError, not zero-filled
    bytes; any set bit past the length, in the last symbol's slack or in
    whole symbols after it, is an IntegrityError."""
    params = one_symbol_chunks(m)
    length = 5
    data = bytes(range(1, length + 1))
    chunks = np.concatenate([chunk_plaintext(data, params), np.zeros((3, 1), dtype=native_dtype(m))])
    assert unchunk_plaintext(chunks, length, params) == data
    short = -(-8 * length // m) - 1
    with pytest.raises(ValueError, match=f"{short} symbols cannot hold {length} bytes"):
        unchunk_plaintext(chunks[:short], length, params)
    for bit in range(8 * length, chunks.size * m):
        bad = chunks.copy()
        bad[bit // m, 0] ^= 1 << (m - 1 - bit % m)  # big-endian: bit 0 is a symbol's high bit
        with pytest.raises(IntegrityError, match="nonzero data past original_length"):
            unchunk_plaintext(bad, length, params)


def test_chunking_exact_fit():
    data = bytes(range(14))
    chunks = chunk_plaintext(data, P534_BYTE)  # 14 symbols at 7 per chunk
    assert chunks.shape == (2, 7)
    assert chunks.reshape(-1).tolist() == list(range(14))


def test_chunking_pads_and_roundtrips():
    data = b"hello, storage"
    for params in (P534, P534_BYTE):
        chunks = chunk_plaintext(data, params)
        assert chunks.dtype == native_dtype(params.m)
        assert chunks.shape[1] == params.secure_symbols
        assert unchunk_plaintext(chunks, len(data), params) == data
    assert chunk_plaintext(b"", P534).shape == (0, 7)


# -- randomness ---------------------------------------------------------------


def test_symbol_source_frozen_values():
    # first SHA-256 block for seed 1 starts a5 36 aa 3c ed e6 ea 3c
    assert SymbolSource(8, 1).symbols(4).tolist() == [54, 60, 230, 60]
    assert SymbolSource(12, 1).symbols(4).tolist() == [1334, 2620, 3558, 2620]


def test_symbol_source_determinism_and_range():
    a = SymbolSource(11, seed=99).symbols(1000)
    b = SymbolSource(11, seed=99).symbols(1000)
    assert a.tolist() == b.tolist()
    assert a.dtype == np.uint16 and SymbolSource(8, 99).symbols(3).dtype == np.uint8
    assert int(a.max()) < 2**11 and int(a.min()) >= 0


def test_symbol_source_unseeded_is_fresh():
    a = SymbolSource(16).symbols(32)
    b = SymbolSource(16).symbols(32)
    assert a.tolist() != b.tolist()


def test_symbol_source_seed_types():
    with pytest.raises(ValueError):
        SymbolSource(8, -1)
    for seed in (1.5, b"\x01", "phrase", True, False):
        with pytest.raises(TypeError):
            SymbolSource(8, seed)


# -- share files ----------------------------------------------------------------


def test_share_header_layout(tmp_path):
    path = tmp_path / "s.wsrc"
    symbols = np.array([[1, 2, 3, 4], [5, 6, 7, 8]], dtype=np.int32)
    write_share(path, P534, 2, symbols)
    raw = path.read_bytes()
    assert raw[:4] == b"WSRC"
    assert raw[4] == 1  # version
    assert raw[5:10] == bytes([4, 5, 3, 4, 2])  # m n k d node
    assert raw[10:12] == b"\x00\x00"  # reserved
    assert raw[12:16] == (2).to_bytes(4, "little")  # chunk count
    assert raw[16:] == bytes([1, 2, 3, 4, 5, 6, 7, 8])  # big-endian symbols
    back = read_share(path, P534, 2, 2)
    assert back.tolist() == symbols.tolist()


def test_share_two_byte_symbols(tmp_path):
    params = params_new(5, 3, 4, 12)
    path = tmp_path / "s.wsrc"
    write_share(path, params, 1, np.array([[0xABC, 1, 2, 3]], dtype=np.int32))
    raw = path.read_bytes()
    assert raw[16:18] == b"\x0a\xbc"
    back = read_share(path, params, 1, 1)
    assert back.dtype == np.uint16
    assert back.tolist() == [[0xABC, 1, 2, 3]]


def test_share_rejects_corruption(tmp_path):
    path = tmp_path / "s.wsrc"
    write_share(path, P534, 1, np.zeros((1, 4), dtype=np.int32))
    raw = bytearray(path.read_bytes())

    for mutate, message in [
        (lambda b: b[:3], "truncated"),
        (lambda b: b"XSRC" + bytes(b[4:]), "magic"),
        (lambda b: bytes(b[:4]) + b"\x09" + bytes(b[5:]), "version"),
        (lambda b: bytes(b[:10]) + b"\x00\x01" + bytes(b[12:]), "reserved"),
        (lambda b: bytes(b[:5]) + b"\x05" + bytes(b[6:]), "disagrees with manifest parameters"),
        (lambda b: bytes(b[:9]) + b"\x03" + bytes(b[10:]), "labels itself node 3"),
        (lambda b: bytes(b[:12]) + (2).to_bytes(4, "little") + bytes(b[16:]), "wrong chunk count"),
        (lambda b: bytes(b) + b"\x00", "payload"),
    ]:
        (tmp_path / "bad.wsrc").write_bytes(mutate(raw))
        with pytest.raises(ShareFormatError, match=message) as excinfo:
            read_share(tmp_path / "bad.wsrc", P534, 1, 1)
        assert str(excinfo.value).startswith(f"node 1 share {tmp_path / 'bad.wsrc'}: ")


def test_share_rejects_out_of_range_symbol(tmp_path):
    path = tmp_path / "s.wsrc"
    write_share(path, params_new(5, 3, 4, 12), 1, np.zeros((1, 4), dtype=np.int32))
    raw = bytearray(path.read_bytes())
    raw[16:18] = b"\xff\xff"  # 0xFFFF >= 2^12
    path.write_bytes(bytes(raw))
    with pytest.raises(ShareFormatError, match="out of range") as excinfo:
        read_share(path, params_new(5, 3, 4, 12), 1, 1)
    assert str(excinfo.value).startswith(f"node 1 share {path}: ")


def test_share_rejects_out_of_range_one_byte_symbol(tmp_path):
    path = tmp_path / "s.wsrc"
    write_share(path, params_new(5, 3, 4, 5), 1, np.zeros((1, 4), dtype=np.int32))
    raw = bytearray(path.read_bytes())
    raw[17] = 0x20  # 32 >= 2^5
    path.write_bytes(bytes(raw))
    with pytest.raises(ShareFormatError, match="out of range") as excinfo:
        read_share(path, params_new(5, 3, 4, 5), 1, 1)
    assert str(excinfo.value).startswith(f"node 1 share {path}: ")
    raw[17] = 0x1F
    path.write_bytes(bytes(raw))
    assert read_share(path, params_new(5, 3, 4, 5), 1, 1).tolist() == [[0, 31, 0, 0]]


def test_read_share_returns_fresh_writable_symbols(tmp_path):
    """At m = 8 the symbols view the bytes read from the file, with no
    copy and no range scan; at m = 12 they are converted from big-endian.
    Either way the array is the caller's to modify."""
    for m in (8, 12):
        path = tmp_path / f"s{m}.wsrc"
        symbols = np.array([[255, 1, 2, 3], [4, 5, 6, 7]], dtype=np.int32)
        params = params_new(5, 3, 4, m)
        write_share(path, params, 1, symbols)
        back = read_share(path, params, 1, 2)
        assert back.flags.writeable and back.dtype == native_dtype(m)
        back[0, 0] = 9
        assert read_share(path, params, 1, 2).tolist() == symbols.tolist()


def test_manifest_roundtrip():
    manifest = Manifest(P534, 100, 29, "ab" * 32)  # 200 symbols fill 29 chunks of 7
    back = Manifest.from_json(manifest.to_json())
    assert back == manifest
    with pytest.raises(ShareFormatError):
        Manifest.from_json("{}")
    with pytest.raises(ShareFormatError):
        Manifest.from_json("not json")


@pytest.mark.parametrize(
    "key, value",
    [
        ("format_version", 2),
        ("format_version", True),
        ("format_version", "1"),
        ("original_length", "x"),
        ("original_length", -1),
        ("original_length", True),
        ("original_length", 1000.0),
        ("chunk_count", None),
        ("chunk_count", -3),
        ("chunk_count", False),
        ("shares", []),
        ("shares", "node_1/share.wsrc"),
        ("digest_sha256", 7),
        ("digest_sha256", None),
        pytest.param("shares", {"1": "/etc/passwd"}, id="shares-planted-path"),
        pytest.param("shares", {}, id="shares-empty"),
        pytest.param(
            "shares", {str(e): f"node_{e}/share.wsrc" for e in range(1, 5)}, id="shares-missing-node-5"
        ),
        # 1024 bytes at (5,3,4,8) fill 147 chunks of 7 symbols.
        ("original_length", 999),
        ("original_length", 0),
        ("original_length", 5000),
        ("chunk_count", 300),
        ("chunk_count", 0),
        # A boolean parameter is refused as a parameter, not read as 1.
        pytest.param("params", {"n": 5, "k": True, "d": 4, "m": 8}, id="params-bool-k"),
    ],
)
def test_manifest_rejects_bad_values(tmp_path, key, value):
    """A value of the wrong type, a negative count, a length and chunk
    count that disagree, another format version or a share map other than
    the one n fixes, planted into a real manifest, is refused before any
    share is read."""
    cluster_store(bytes(range(256)) * 4, P534_BYTE, tmp_path / "c", seed=3)
    cluster = Cluster(tmp_path / "c")
    doc = json.loads(cluster.manifest_path.read_text())
    doc[key] = value
    cluster.manifest_path.write_text(json.dumps(doc))
    error, match = (ParameterError, "k must be an integer") if key == "params" else (ShareFormatError, key)
    with pytest.raises(error, match=match):
        cluster.manifest()
    with pytest.raises(error, match=match):
        cluster_reconstruct(tmp_path / "c")


def _plant_length(root, length):
    cluster = Cluster(root)
    doc = json.loads(cluster.manifest_path.read_text())
    doc["original_length"] = length
    cluster.manifest_path.write_text(json.dumps(doc))


@pytest.mark.parametrize("length", [995, 996, 997, 998, 999])
def test_length_cut_within_the_slack_is_refused_by_name(tmp_path, length):
    """1000 bytes at (5,3,4,8) fill 143 chunks of 7 symbols, so a manifest
    length of 995-999 still parses; the decoded bytes past it are not the
    store's zero padding, and reconstruct names original_length, not the
    digest."""
    cluster_store(bytes(range(1, 251)) * 4, P534_BYTE, tmp_path / "c", seed=3)
    _plant_length(tmp_path / "c", length)
    assert Cluster(tmp_path / "c").manifest().chunk_count == 143
    with pytest.raises(IntegrityError, match="original_length"):
        cluster_reconstruct(tmp_path / "c")


@pytest.mark.parametrize("point", [(7, 4, 6, 5), (5, 3, 4, 4), (12, 6, 10, 16)])
def test_length_check_reads_bits_not_symbols(tmp_path, point):
    """Every honest length reads back; a one-byte cut is refused when the
    dropped byte has only its last bit set, which at m = 5 shares a symbol
    with kept bits, and is left to the digest when the byte is zero."""
    p = params_new(*point)
    for length in range(1, 3 * p.secure_symbols):
        data = bytes(range(length - 1)) + b"\x01"
        cluster_store(data, p, tmp_path / f"c{length}", seed=length)
        assert cluster_reconstruct(tmp_path / f"c{length}") == data
    _plant_length(tmp_path / f"c{length}", length - 1)
    with pytest.raises(IntegrityError, match="original_length"):
        cluster_reconstruct(tmp_path / f"c{length}")
    cluster_store(data[:-1] + b"\x00", p, tmp_path / "z", seed=1)
    _plant_length(tmp_path / "z", length - 1)
    with pytest.raises(IntegrityError, match="digest mismatch"):
        cluster_reconstruct(tmp_path / "z")


# -- cluster lifecycle -----------------------------------------------------------


def test_store_reconstruct_roundtrip(tmp_path):
    data = bytes(random.Random(0).randrange(256) for _ in range(1000))
    manifest = cluster_store(data, P534, tmp_path / "c", seed=5)
    assert manifest.original_length == 1000
    assert manifest.digest_sha256 == hashlib.sha256(data).hexdigest()
    assert cluster_reconstruct(tmp_path / "c") == data


def test_store_empty_file(tmp_path):
    cluster_store(b"", P534, tmp_path / "c", seed=5)
    assert cluster_reconstruct(tmp_path / "c") == b""


def test_store_matches_scalar_pipeline(tmp_path):
    """The store writes, chunk by chunk, the coset encoding of the chunk
    followed by each node's generator matrix applied with the scalar
    mat_vec, so the generator-stack layout is checked against the
    generator matrices rather than against itself."""
    data = b"scalar cross-check payload!"
    seed = 31
    cluster_store(data, P534, tmp_path / "c", seed=seed)
    codec = make_codec(P534)
    chunks = chunk_plaintext(data, P534)
    n_chunks = chunks.shape[0]
    rand = SymbolSource(P534.m, seed).symbols(2 * n_chunks).reshape(n_chunks, 2)
    expected_shares = {e: [] for e in range(1, 6)}
    for t in range(n_chunks):
        codeword = codec.outer.coset_encode_bulk(chunks[t].reshape(-1, 1), rand[t].reshape(-1, 1))
        assert mat_vec(codec.outer.parity_check, codeword[:, 0].tolist()) == chunks[t].tolist()
        for e in range(1, 6):
            expected_shares[e].append(mat_vec(codec.inner.generator_matrix(e), codeword[:, 0].tolist()))
    cluster = Cluster(tmp_path / "c")
    for e in range(1, 6):
        symbols = read_share(cluster.share_path(e), P534, e, n_chunks)
        assert symbols.tolist() == expected_shares[e]


def test_restore_with_fewer_nodes_removes_the_old_shares(tmp_path):
    """A store over a cluster of more nodes removes every share above its
    n: those shares hold the earlier file, and any k of them would rebuild
    it.  Nothing else under the root is touched."""
    root = tmp_path / "c"
    old = bytes(random.Random(4).randrange(256) for _ in range(5000))
    cluster_store(old, params_new(12, 6, 10, 8), root, seed=1)
    (root / "node_x").mkdir()
    (root / "node_x" / "share.wsrc").write_bytes(b"not a node")
    new = b"the second file" * 20
    cluster_store(new, P534_BYTE, root, seed=2)
    cluster = Cluster(root)
    assert [e for e in range(1, 13) if cluster.share_path(e).exists()] == [1, 2, 3, 4, 5]
    assert (root / "node_x" / "share.wsrc").read_bytes() == b"not a node"
    assert cluster_reconstruct(root) == new


def test_fail_repair_cycle_bit_identical(tmp_path):
    data = os.urandom(512)
    cluster_store(data, P534, tmp_path / "c", seed=7)
    share_path = Cluster(tmp_path / "c").share_path(2)
    original = share_path.read_bytes()

    cluster_fail(tmp_path / "c", 2)
    assert not share_path.exists()
    with pytest.raises(ValueError, match="already failed"):
        cluster_fail(tmp_path / "c", 2)

    stats = cluster_repair(tmp_path / "c", 2)
    assert share_path.read_bytes() == original
    assert stats.helpers == (1, 3, 4, 5)
    assert stats.symbols_downloaded == P534.d * stats.chunk_count
    assert stats.symbols_per_chunk == P534.d
    assert cluster_reconstruct(tmp_path / "c") == data


def test_each_operation_parses_the_manifest_once(tmp_path, monkeypatch):
    parses = []
    real = Manifest.from_json.__func__

    def counting(cls, text):
        parses.append(1)
        return real(cls, text)

    cluster_store(b"parse once" * 50, P534_BYTE, tmp_path / "c", seed=4)
    monkeypatch.setattr(Manifest, "from_json", classmethod(counting))
    for op in (
        lambda: cluster_reconstruct(tmp_path / "c"),
        lambda: cluster_fail(tmp_path / "c", 2),
        lambda: cluster_repair(tmp_path / "c", 2),
        lambda: cluster_eavesdrop(tmp_path / "c", 1),
        lambda: cluster_observation_demo(Cluster(tmp_path / "c"), Cluster(tmp_path / "c").manifest()),
        lambda: cli_main(["eavesdrop", str(tmp_path / "c"), "1", "-o", str(tmp_path / "eve.json")]),
        lambda: cli_main(["audit", str(tmp_path / "c")]),
    ):
        del parses[:]
        op()
        assert len(parses) == 1


def test_unchecked_params_cannot_reach_the_store(tmp_path):
    """A CodeParams built directly is checked like params_new's, so a
    cluster no later read could open is never written."""
    with pytest.raises(ParameterError, match="n=4 too small"):
        cluster_store(b"never stored" * 10, CodeParams(4, 3, 4, 8), tmp_path / "c")
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize(
    "point, seed, error, match",
    [
        ((256, 3, 4, 16), None, ParameterError, "n=256 too large"),
        ((5, 3, 4, 4), 1.5, TypeError, "float"),
        ((5, 3, 4, 4), True, TypeError, "bool"),
    ],
    ids=["n-256", "float-seed", "bool-seed"],
)
def test_store_refuses_before_writing(tmp_path, point, seed, error, match):
    """n, k, d and the node index take one byte each in a share header, so
    more than 255 nodes is refused; so is a seed that is not an int (True
    is not seed 1).  Both before the cluster root or its lock exists."""
    with pytest.raises(error, match=match):
        cluster_store(b"never stored" * 10, params_new(*point), tmp_path / "c", seed=seed)
    assert not (tmp_path / "c").exists()


def test_reconstruct_after_failures_uses_any_k(tmp_path):
    data = os.urandom(300)
    cluster_store(data, P534, tmp_path / "c", seed=8)
    cluster_fail(tmp_path / "c", 1)
    cluster_fail(tmp_path / "c", 4)
    cluster = Cluster(tmp_path / "c")
    assert cluster.live_nodes(cluster.manifest()) == [2, 3, 5]
    assert cluster_reconstruct(tmp_path / "c") == data
    cluster_fail(tmp_path / "c", 2)
    with pytest.raises(InsufficientNodesError):
        cluster_reconstruct(tmp_path / "c")


def test_repair_needs_d_helpers(tmp_path):
    cluster_store(b"x" * 64, P534, tmp_path / "c", seed=9)
    cluster_fail(tmp_path / "c", 1)
    cluster_fail(tmp_path / "c", 2)
    with pytest.raises(InsufficientNodesError):  # 3 live < d = 4
        cluster_repair(tmp_path / "c", 1)
    with pytest.raises(ValueError, match="live"):
        cluster_repair(tmp_path / "c", 3)


def test_reconstruct_detects_tampering(tmp_path):
    cluster_store(b"y" * 128, P534, tmp_path / "c", seed=10)
    path = Cluster(tmp_path / "c").share_path(1)
    raw = bytearray(path.read_bytes())
    # flip a stored symbol in message-matrix column 2: the decode error it
    # induces reaches the syndrome (column 1 would not: that coordinate is
    # coset randomness, invisible to the parity check by design)
    raw[21] ^= 0x01
    path.write_bytes(bytes(raw))
    with pytest.raises(IntegrityError):
        cluster_reconstruct(tmp_path / "c")


def test_every_flipped_read_symbol_is_refused_or_harmless(tmp_path):
    """Flipping any one symbol of one chunk of any read node ends in
    IntegrityError or in the exact bytes, never in other bytes.  Symbol 1
    is message-matrix column 1, which no check row reads, so only a flip
    there may go unseen."""
    p = P534_BYTE
    root = tmp_path / "c"
    data = bytes(range(256)) * 4
    cluster_store(data, p, root, seed=5)
    cluster = Cluster(root)
    chunk = 3  # a full chunk: every message symbol it carries is file data
    for node in range(1, p.k + 1):  # the read set: the first k live nodes
        path = cluster.share_path(node)
        clean = path.read_bytes()
        for position in range(p.d):
            raw = bytearray(clean)
            raw[16 + chunk * p.d + position] ^= 0x5A  # after the 16-byte header
            path.write_bytes(bytes(raw))
            try:
                out = cluster_reconstruct(root)
            except IntegrityError:
                continue
            assert out == data and position == 0, (node, position)
        path.write_bytes(clean)


def test_eavesdrop_matches_generator_model(tmp_path):
    data = b"observed payload" * 3
    cluster_store(data, P534, tmp_path / "c", seed=11)
    codec = make_codec(P534)
    # recover the codeword stream from shares, then check the observation model
    cluster = Cluster(tmp_path / "c")
    shares = {e: cluster.read(e, cluster.manifest()).T for e in (1, 2, 3)}
    from weavesafe.pm_mbr import reconstruct_bulk

    codewords = reconstruct_bulk(codec.inner, shares.items())
    for e in range(1, 6):
        observed = cluster_eavesdrop(tmp_path / "c", e)
        expected = codec.field.mat_mul_cols(codec.inner.generator_matrix(e).data, codewords)
        assert observed.tolist() == expected.T.tolist()
        stored = read_share(cluster.share_path(e), P534, e, codewords.shape[1])
        assert np.array_equal(observed, stored)  # chunk-major, as stored


def test_eavesdrop_failed_node(tmp_path):
    cluster_store(b"z" * 32, P534, tmp_path / "c", seed=12)
    cluster_fail(tmp_path / "c", 3)
    with pytest.raises(InsufficientNodesError):
        cluster_eavesdrop(tmp_path / "c", 3)
    with pytest.raises(ValueError, match="out of range"):
        cluster_eavesdrop(tmp_path / "c", 6)


def test_seeded_runs_are_bit_identical(tmp_path):
    data = os.urandom(400)
    cluster_store(data, P534, tmp_path / "a", seed=13)
    cluster_store(data, P534, tmp_path / "b", seed=13)
    cluster_store(data, P534, tmp_path / "other", seed=14)
    for e in range(1, 6):
        a = Cluster(tmp_path / "a").share_path(e).read_bytes()
        b = Cluster(tmp_path / "b").share_path(e).read_bytes()
        assert a == b
    assert (
        (tmp_path / "a" / "manifest.json").read_bytes()
        == (tmp_path / "b" / "manifest.json").read_bytes()
    )
    diff = any(
        Cluster(tmp_path / "a").share_path(e).read_bytes()
        != Cluster(tmp_path / "other").share_path(e).read_bytes()
        for e in range(1, 6)
    )
    assert diff  # different seed, different coset members


def test_writer_lock_blocks_concurrent_mutation(tmp_path):
    cluster_store(b"w" * 64, P534, tmp_path / "c", seed=15)
    lock = tmp_path / "c" / ".lock"
    lock.touch()
    with pytest.raises(ShareFormatError, match="locked"):
        cluster_fail(tmp_path / "c", 1)
    lock.unlink()
    cluster_fail(tmp_path / "c", 1)
    assert not lock.exists()  # released after the operation


def test_writers_refuse_node_true(tmp_path):
    """True equals 1 but is no node index: repair, fail and eavesdrop refuse
    it before touching the cluster."""
    root = tmp_path / "c"
    cluster_store(b"t" * 100, P534_BYTE, root, seed=18)
    cluster_fail(root, 1)
    for op in (cluster_repair, cluster_fail, cluster_eavesdrop):
        with pytest.raises(ValueError, match="out of range"):
            op(root, True)
    assert not (root / "node_True").exists()
    assert not (root / ".lock").exists()
    assert not Cluster(root).share_path(1).exists()  # node 1 is still failed


def test_writers_refuse_a_missing_cluster(tmp_path):
    for op in (cluster_repair, cluster_fail):
        with pytest.raises(ShareFormatError, match="no cluster"):
            op(tmp_path / "missing", 1)
    assert not (tmp_path / "missing").exists()


def test_every_operation_refuses_a_missing_manifest(tmp_path, capsys):
    """A cluster whose manifest is gone is refused by name, by the library
    and the CLI alike, and the writers release their lock."""
    root = tmp_path / "c"
    cluster_store(b"m" * 100, P534, root, seed=21)
    (root / "manifest.json").unlink()
    message = f"no manifest at {root / 'manifest.json'}"
    for op in (cluster_reconstruct, cluster_repair, cluster_fail, cluster_eavesdrop):
        args = (root,) if op is cluster_reconstruct else (root, 1)
        with pytest.raises(ShareFormatError, match=re.escape(message)):
            op(*args)
        assert not (root / ".lock").exists()
    capsys.readouterr()
    for argv in (["reconstruct", str(root), str(tmp_path / "out.bin")], ["audit", str(root)]):
        assert cli_main(argv) == 1
        assert message in capsys.readouterr().err
    assert not (tmp_path / "out.bin").exists()


def test_repair_holds_the_lock_through_its_reads(tmp_path, monkeypatch):
    """A store that lands while repair works from the helpers' shares is
    refused, so the repaired share cannot come from data it overwrote."""
    from weavesafe import store

    root = tmp_path / "c"
    data = b"original" * 50
    cluster_store(data, P534_BYTE, root, seed=19)
    cluster_fail(root, 2)
    real = store.repair_bulk

    def racing(*args):
        with pytest.raises(ShareFormatError, match="locked"):
            cluster_store(b"other data" * 40, P534_BYTE, root, seed=20)
        return real(*args)

    monkeypatch.setattr(store, "repair_bulk", racing)
    cluster_repair(root, 2)
    assert not (root / ".lock").exists()
    assert cluster_reconstruct(root) == data


def test_store_failing_between_share_writes_releases_the_lock(tmp_path, monkeypatch):
    """A store whose third share write fails raises that error, releases
    the lock, and leaves the first store's manifest, which is written last;
    the next writer then takes the lock."""
    from weavesafe import store

    root = tmp_path / "c"
    cluster_store(b"first file" * 30, P534_BYTE, root, seed=22)
    manifest = (root / "manifest.json").read_bytes()
    real = store.write_share

    def failing(path, params, node, symbols):
        if node == 3:
            raise OSError("disk full at node 3")
        real(path, params, node, symbols)

    monkeypatch.setattr(store, "write_share", failing)
    with pytest.raises(OSError, match="disk full at node 3"):
        cluster_store(b"second file" * 40, P534_BYTE, root, seed=23)
    assert not (root / ".lock").exists()
    assert (root / "manifest.json").read_bytes() == manifest
    cluster_fail(root, 1)
    assert not Cluster(root).share_path(1).exists()


def test_share_manifest_cross_validation(tmp_path):
    cluster_store(b"q" * 64, P534, tmp_path / "c", seed=16)
    other = params_new(6, 3, 4, 4)
    cluster = Cluster(tmp_path / "c")
    write_share(cluster.share_path(1), other, 1, np.zeros((0, 4), dtype=np.int32))
    with pytest.raises(ShareFormatError):
        cluster.read(1, cluster.manifest())


# Seeded share files pinned across builds: SHA-256 of the manifest and of each
# node's share after storing GOLDEN_DATA with seed=13, recorded from
# weavesafe 0.1.0.  Covers m = 8, 5 and 16.
GOLDEN_DATA = bytes(range(256)) * 40 + b"tail"
GOLDEN_DIGESTS = {
    (5, 3, 4, 8): (
        "e6107602ef728e62f92c97b6ae0f28597c76099f67512aa3ebb244d54b4698ef",
        (
            "33c5b6ff687bf436cb66390b0c121358291eddb015b7e6ac448a0aca1ee3a122",
            "10c31cc4d24f0427f06066d7570c09177aa4c29c9a239ffc137ea08064565d0d",
            "4fe4a24ba9395ddba3afedfb075f175eb249ade571dd05ca492eab1fffc7e38d",
            "3fa3ec16a2309c5f6c7c97ee6d6caa4eebb64f1a4a079090ddcd2a890e97d568",
            "932ed2910c05cc77bdebe67ea6e9001d43e3977ba6251daa3808f820c53f5236",
        ),
    ),
    (20, 10, 16, 8): (
        "ff64a7aeb0a23b8e9727cd93b9a2dc733f695fac326a498349b839b1a4df24ac",
        (
            "49e74e72e2463a994bc467f99c45af8a597e753fa7a17589b3052b0884c22ba7",
            "d7920130d3a06f2061b338b8d6825f334a4764aebe54e344f6ffb6ca6fb703c1",
            "34277b18e2e0534854973d792eb961d8b93ff719ec4fc5fe2ab245ee8e6cdce7",
            "e0e5a58ec99534da0f38034a9d630ee018414c7b84ddf51db4ef7dff2a744f38",
            "3a775051cfbcd2c04083f6de62ca9de1f48e289b5a1665c0100a0c441f90fe0f",
            "d938935be858865974675a4e524238c2143f9c1b47b6654ec87bb899a2f63950",
            "2eb4ec47714c50f2ed63783f6a15dbaf9bbd3c12c6176503cd9830095e068d4d",
            "2374ccf945634dc868f130fadebfc41ae0ceda77c05694bff34debf52e324bbb",
            "a286bec52cbc8e3bf7793d0597fa5cae216d003c12b92882695e5b97c075a3ba",
            "fb0f34f193a4a9334bd9cc9fb4af4b93ff1e2fbe447d000a0fb16adcfe619a84",
            "bbf698d93f41742db1819635b236ac7dd4d0d2e000c6c5f47f228d82d3df1cc2",
            "2e592c279720f9cf9f0e3adc7efadd30e76632ebf05af25e153e8efc77f81714",
            "4c6b333fd9ff0a9ba3a808b1f18ebb2a7b91242764f16a6b75b8c9bb358e1ddb",
            "75f98a1073e1bdc1ec510be4772917322c23022e4e4d850f380f2bdbd23368f3",
            "082b99f8eb91ac1b4112d6db601e71c454ce20921e972fb02f9944a524a83ba6",
            "3c84bc58aed3352e64e540db2096592da079d7fdc0d24f002c4cf9a3a28e3613",
            "b3bce0efd5f71c82c63e405f584a9556e355da75a45bbe5139ef6679bb3ababa",
            "639269c8fd0fc3a22395e244efcf8cc82a5bcae69df10383f8cb5592e060e492",
            "22a6f5f656bf815fff8ad1b903d9cdfad01a420737d6e899f6f736f0b5633ceb",
            "89a2b0e0eb0caf2c0c273575ee2da823051d837484f3e12ac6330e509f83a644",
        ),
    ),
    (7, 4, 6, 5): (
        "ddce97f6d653aadb8dac291cf9aeca5637a33e16b7b0a42784f82e9fc6051b25",
        (
            "97a96728a32a2e2f76db79a17feb2bce5f8e5b11a8616f77837a93eb68c306a9",
            "37de0bc88c54b371760207e5649dc2f0d70a450fd263368d870dc968d587bfb2",
            "dd1ea8d3510e173802f181b9e8148dbd29b8ea577c391a3ebd417fd31b8278b9",
            "5b981e0da30d870971a005790913ad5cdf7b07ed2db10e1d32c4f5af9be92e77",
            "4d9f666ae5aaf58c485a70384f9f17b7051c399cba08ffd3beb75bfe801da312",
            "d94ffc3763d06ec86c723c1cce4637e0f9ef47994351a8b5138875eceb109167",
            "5b508dc786dad0ac433cd685b3d8f9182664d66a92648b03970ce52c9dcae36f",
        ),
    ),
    (12, 6, 10, 16): (
        "403eb0908e909554e2c71e148ea8301cd26669e81e4c20c8c3c052613fadf2e5",
        (
            "565e8ba20f017cd8f3805d76ceccf0f2873d846426dbbe526d9c3167a7c27b21",
            "2c3007807f94f3d2eda5bceb92efbca28f1c7c1a29182e6789fe60432ef19d6d",
            "137fe17ec510c3a8ec8750f312ac90fd6839c382120546b36b2234b5fd1317ae",
            "8055ff76323aef5788fa6503d3e2b90bc38525ff65cde510a0adb598f13eda10",
            "3d691be475ba4af9359467a9eccc566ca1cf3db164414b7be1e8c9182fa312dd",
            "15956227ec8c28b6c4149e56e484326baeb130fcd24d58326b8631ae5900481c",
            "c1d8824035c484ce314b9db545f01aeefbcb45536d5ec96e435a0a8cacba533a",
            "a489904290f7457a610d7f37b023b42498a416a9b1e78f57472dd3eece337189",
            "9ab9733358cb599361bd1b3f08a0625bc047b8f8e2cf2c78afab70c863034bd7",
            "f32b5027d82e1d14707a52cb905360ab69aa804ea3481bc83ba893c9354768f4",
            "50dbd042c62494bd2ca3555cb1ecae1d2ec64435f41b48333df3dd62d079feb9",
            "2dc74823f8b5dc08922ab1a52f02c789a8c657d7c96a002d2b5a951a04da13e7",
        ),
    ),
}


@pytest.mark.parametrize("params", sorted(GOLDEN_DIGESTS), ids=str)
def test_seeded_share_files_match_golden_digests(tmp_path, params):
    cluster_store(GOLDEN_DATA, params_new(*params), tmp_path, seed=13)
    manifest_digest, share_digests = GOLDEN_DIGESTS[params]
    assert hashlib.sha256((tmp_path / "manifest.json").read_bytes()).hexdigest() == manifest_digest
    cluster = Cluster(tmp_path)
    for e, expected in enumerate(share_digests, start=1):
        assert hashlib.sha256(cluster.share_path(e).read_bytes()).hexdigest() == expected, e
    assert cluster_reconstruct(tmp_path) == GOLDEN_DATA


@pytest.mark.parametrize("params", [(4, 3, 3, 4), (5, 3, 3, 8)], ids=str)
def test_lifecycle_with_d_equal_to_k(tmp_path, params):
    """With d == k the message matrix has no off-diagonal wing."""
    data = bytes(random.Random(sum(params)).randrange(256) for _ in range(777))
    cluster_store(data, params_new(*params), tmp_path, seed=17)
    assert cluster_reconstruct(tmp_path) == data
    share_path = Cluster(tmp_path).share_path(2)
    original = share_path.read_bytes()
    cluster_fail(tmp_path, 2)
    stats = cluster_repair(tmp_path, 2)
    assert share_path.read_bytes() == original
    assert stats.symbols_per_chunk == params[2]
    assert cluster_reconstruct(tmp_path) == data


# The v1 compatibility corpus: the manifest and shares that storing
# GOLDEN_DATA with seed=13 wrote at each golden parameter set, committed
# under tests/corpus/v1/<n>-<k>-<d>-<m>/.  Later formats add a corpus
# beside it; this one must keep decoding unchanged.
CORPUS_V1 = Path(__file__).resolve().parent / "corpus" / "v1"


@pytest.mark.parametrize("name", sorted(p.name for p in CORPUS_V1.iterdir()))
def test_v1_corpus_reconstructs_and_repairs(tmp_path, name):
    committed = CORPUS_V1 / name
    root = tmp_path / name
    shutil.copytree(committed, root)
    assert cluster_reconstruct(root) == GOLDEN_DATA
    cluster_fail(root, 1)
    cluster_repair(root, 1)
    repaired = Cluster(root).share_path(1).read_bytes()
    assert repaired == (committed / "node_1" / "share.wsrc").read_bytes()
    assert cluster_reconstruct(root) == GOLDEN_DATA


# -- repair through one upload map ------------------------------------------------


@pytest.mark.parametrize("point", [(5, 3, 4, 8), (7, 4, 6, 5), (4, 3, 3, 4)], ids=str)
def test_repair_from_every_helper_set(tmp_path, point):
    """For every failed node and every d-subset of the other nodes, the
    repaired share equals the stored one and the download is d symbols per
    chunk: in memory from each subset, and on disk, where the cluster
    repairs from the first d live nodes."""
    from itertools import combinations

    from weavesafe.pm_mbr import repair_bulk

    p = params_new(*point)
    inner = make_codec(p).inner
    root = tmp_path / "c"
    data = bytes(random.Random(sum(point)).randrange(256) for _ in range(3000))
    manifest = cluster_store(data, p, root, seed=3)
    cluster = Cluster(root)
    shares = {e: cluster.read(e, manifest).T.copy() for e in range(1, p.n + 1)}
    n_chunks = manifest.chunk_count
    for failed in range(1, p.n + 1):
        others = [e for e in range(1, p.n + 1) if e != failed]
        for helpers in combinations(others, p.d):
            repaired, downloaded = repair_bulk(inner, failed, ((h, shares[h]) for h in helpers))
            assert (repaired == shares[failed]).all(), (point, failed, helpers)
            assert downloaded == p.d * n_chunks
        stored = cluster.share_path(failed).read_bytes()
        cluster_fail(root, failed)
        stats = cluster_repair(root, failed)
        assert cluster.share_path(failed).read_bytes() == stored, (point, failed)
        assert stats.helpers == tuple(others[: p.d])
        assert stats.symbols_downloaded == p.d * n_chunks and stats.symbols_per_chunk == p.d


def test_repair_peak_memory_stays_at_the_helpers_block(tmp_path):
    """A warm repair of a 1 MiB file at (20,10,16,8) allocates at most
    2.62 MiB above what it enters with, where the copy of each helper to
    d x N as read held it before: the d x (d N) block of the helpers'
    shares (2.27 MiB), the uploads and the repaired share."""
    import tracemalloc

    p = params_new(20, 10, 16, 8)
    root = tmp_path / "c"
    cluster_store(bytes(np.random.default_rng(1).integers(0, 256, 1 << 20, dtype=np.uint8)), p, root, seed=1)
    cluster_fail(root, 1)
    cluster_repair(root, 1)  # plans, inverse and the thread's kernel workspace
    cluster_fail(root, 1)
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        cluster_repair(root, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - entry <= 2.62 * 2**20, (peak - entry) / 2**20


def test_reconstruct_peak_memory_stays_at_the_read_block(tmp_path):
    """A warm read of a 1 MiB file allocates at most its measured peak above
    what it enters with; a d x d x N read block would pass neither bound
    (3.34 and 4.58 MiB).  At (20,10,16,8) the d x k x N block (1.42 MiB)
    is freed before the unchunk, where the decoded chunks, the unchunk's
    one symbol buffer and the returned bytes, 1 MiB each, set the 3.01 MiB
    peak; at (5,3,4,8) the 4.01 MiB peak is inside the read map: the
    1.71 MiB block, the 1 MiB output and one table gather's index copy.
    Below m = 8 the unchunk sets the peak, at a byte a symbol.  At
    (7,4,6,5) it is 5.21 MiB as the bytes return: the decoded chunks and
    the buffer (1.6 MiB each), the packed bytes and the returned bytes
    (1 MiB each).  At (6,3,5,4) it is 7.01 MiB inside the regrouping: the
    chunks and the buffer (2 MiB each), the packed bytes and a byte
    column's value and shifted part (1 MiB each, a byte from two
    symbols).  Regrouping through uint32 columns, as the unchunk once
    did, read 6.80 and 17.00 MiB."""
    import tracemalloc

    data = bytes(np.random.default_rng(1).integers(0, 256, 1 << 20, dtype=np.uint8))
    for point, bound in (
        ((20, 10, 16, 8), 3.01),
        ((5, 3, 4, 8), 4.01),
        ((7, 4, 6, 5), 5.21),
        ((6, 3, 5, 4), 7.01),
    ):
        root = tmp_path / f"c{point[0]}"
        cluster_store(data, params_new(*point), root, seed=1)
        assert cluster_reconstruct(root) == data  # plans, inverse and the thread's kernel workspace
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            cluster_reconstruct(root)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - entry <= bound * 2**20, (point, (peak - entry) / 2**20)


def _kernel_paths(monkeypatch, run):
    """Run ``run`` and return, for each mat_mul_cols call it makes, the map's
    shape, its column count, its path, the path the fan-out rule alone gave
    before the fan-in path (bit-sliced iff nonzeros >= _SLICED_FANOUT[m] *
    used columns) and whether the width rule makes it a fan-in map (not
    bit-sliced, and nonzeros >= _FANIN_WIDTH[m] * rows with any)."""
    from weavesafe import gf2m
    from weavesafe.gf2m import Field

    maps, path = [], []
    real_mul = Field.mat_mul_cols

    def mul(self, rows, cols):
        path.append("table")
        out = real_mul(self, rows, cols)
        coeffs = np.asarray(rows, dtype=self.dtype).reshape(len(rows), -1)
        nonzero, used = np.count_nonzero(coeffs), np.count_nonzero(coeffs.any(axis=0))
        before = "sliced" if nonzero and nonzero >= gf2m._SLICED_FANOUT[self.m] * used else "table"
        wide = before == "table" and nonzero and nonzero >= gf2m._FANIN_WIDTH[self.m] * coeffs.any(axis=1).sum()
        maps.append((coeffs.shape, cols.shape[1], path.pop(), before, bool(wide)))
        return out

    monkeypatch.setattr(Field, "mat_mul_cols", mul)
    for name, kind in (("_mat_mul_sliced", "sliced"), ("_mat_mul_fan_in", "fan-in")):

        def spy(self, *args, kind=kind, real=getattr(Field, name)):
            path[-1] = kind
            return real(self, *args)

        monkeypatch.setattr(Field, name, spy)
    try:
        run()
    finally:
        monkeypatch.undo()
    return maps


# Maps of one store, read and repair cycle that the width rule makes fan-in
# maps: (shape, count).  Every one has a single row (the repair upload over
# the d helpers' d N columns, the others coset solve steps over N) but
# (5,3,4,8)'s 4 x 4 maps (a coset solve step and the repair inverse), whose
# rows hold four nonzeros, the fan-in width at m = 8.
FAN_IN_MAPS = {
    (5, 3, 4, 8): [((1, 4), 1), ((4, 4), 2)],
    (12, 6, 10, 8): [((1, 5), 4), ((1, 9), 1), ((1, 10), 1)],
    (20, 10, 16, 8): [((1, 9), 6), ((1, 15), 1), ((1, 16), 1)],
    (12, 6, 10, 16): [],
    (7, 4, 6, 5): [((1, 3), 2), ((1, 5), 1), ((1, 6), 1)],
    (6, 3, 5, 4): [((1, 2), 2), ((1, 4), 1), ((1, 5), 1)],
}


@pytest.mark.parametrize("point", sorted(FAN_IN_MAPS), ids=str)
def test_fan_in_moves_only_the_listed_maps(tmp_path, monkeypatch, point):
    """In a store, read and repair cycle of a 1 MiB file, the fan-in maps
    are the listed ones; they take the fan-in path on _FANIN_COLUMNS
    columns or more and stay on tables below, and every other map keeps
    the path the fan-out rule gave it.  At (20,10,16,8) and (12,6,10,8)
    the upload moves and the coset steps, over N columns, stay."""
    from collections import Counter

    from weavesafe import gf2m

    p = params_new(*point)
    root = tmp_path / "c"
    data = np.random.default_rng(1).integers(0, 256, 1 << 20, dtype=np.uint8).tobytes()

    def cycle():
        cluster_store(data, p, root, seed=1)
        assert cluster_reconstruct(root) == data
        cluster_fail(root, 1)
        cluster_repair(root, 1)

    maps = _kernel_paths(monkeypatch, cycle)
    assert sorted(Counter(shape for shape, _, _, _, wide in maps if wide).items()) == FAN_IN_MAPS[point]
    for shape, columns, path, before, wide in maps:
        assert path == ("fan-in" if wide and columns >= gf2m._FANIN_COLUMNS else before), (shape, columns)
    assert any(path == "sliced" for _, _, path, _, _ in maps)
    if point in ((20, 10, 16, 8), (12, 6, 10, 8)):
        assert {path for _, _, path, _, wide in maps if wide} == {"fan-in", "table"}


@pytest.mark.parametrize("point, size", [((20, 10, 16, 8), 1 << 20), ((7, 4, 6, 5), 1 << 18)], ids=str)
def test_maps_take_the_documented_paths(tmp_path, monkeypatch, point, size):
    """The path table of the gf2m module docstring, at the benchmark's file
    sizes: inner encode, the read's wing solve and read map, the coset
    solve steps of more than one row with their couplings, and the repair
    inverse take the bit-sliced path; the repair upload takes fan-in; the
    one-row coset steps, over N columns, stay on tables."""
    p = params_new(*point)
    root = tmp_path / "c"
    data = np.random.default_rng(1).integers(0, 256, size, dtype=np.uint8).tobytes()
    read = []

    def paths(run):
        return [(shape, path) for shape, _, path, _, _ in _kernel_paths(monkeypatch, run)]

    *coset, inner = paths(lambda: cluster_store(data, p, root, seed=1))
    decode = paths(lambda: read.append(cluster_reconstruct(root)))
    cluster_fail(root, 1)
    repair = paths(lambda: cluster_repair(root, 1))
    assert read == [data]
    assert inner == ((p.n * p.d, p.total_symbols), "sliced")
    multi = [path for shape, path in coset if shape[0] > 1]
    one_row = [path for shape, path in coset if shape[0] == 1]
    # Types k down to 2 solve several rows a step, each but type k with its
    # coupling; types k + 1 to d and type 1 solve one row with its coupling.
    assert len(multi) == 2 * p.k - 3 and set(multi) == {"sliced"}, coset
    assert len(one_row) == 2 * (p.d - p.k + 1) and set(one_row) == {"table"}, coset
    assert decode == [((p.k, p.k), "sliced"), ((p.secure_symbols, p.k * p.d), "sliced")]
    assert repair == [((1, p.d), "fan-in"), ((p.d, p.d), "sliced")]


@pytest.mark.parametrize("point, guesses", [((6, 3, 5, 4), 4), ((7, 4, 6, 5), 3)], ids=str)
def test_fan_in_moves_no_audit_map(monkeypatch, point, guesses):
    """The audit's kernel maps (the quotient's products, one nonzero a row)
    all keep the path the fan-out rule gave them."""
    from weavesafe.audit import audit_report

    codec = make_codec(params_new(*point))
    maps = _kernel_paths(monkeypatch, lambda: audit_report(codec, guesses=guesses))
    assert maps and all(path == before and not wide for _, _, path, before, wide in maps)
