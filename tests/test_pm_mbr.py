import random
from itertools import combinations

import numpy as np
import pytest

from conftest import grid_params
from weavesafe.errors import InsufficientNodesError, ParameterError
from weavesafe.linalg import invert, mat_vec, rank, submatrix
from weavesafe.pm_mbr import (
    CodeParams,
    InnerCode,
    encode_bulk,
    message_cells,
    params_new,
    reconstruct_bulk,
    repair_bulk,
)
from weavesafe.weaksec import make_codec


def inner(n, k, d, m) -> InnerCode:
    return make_codec(params_new(n, k, d, m)).inner


@pytest.fixture(scope="module")
def code534():
    return inner(5, 3, 4, 4)


def random_codeword(code, rng):
    return [rng.randrange(code.field.order) for _ in range(code.params.total_symbols)]


def message_matrix(code, codeword):
    """The symmetric d x d message matrix of a codeword, from message_cells."""
    p = code.params
    m = [[0] * p.d for _ in range(p.d)]
    for b, (i, j) in enumerate(message_cells(p.k, p.d)):
        m[i][j] = m[j][i] = codeword[b]
    return m


def column(code, symbols):
    """One chunk's symbols as a one-column array, the bulk maps' input."""
    return np.array(symbols, dtype=code.field.dtype).reshape(-1, 1)


def encode_one(code, codeword) -> dict:
    """Every node's d symbols for one codeword, as plain lists."""
    return {e: cols[:, 0].tolist() for e, cols in encode_bulk(code, column(code, codeword)).items()}


def reconstruct_one(code, shares: dict) -> list:
    cols = {e: column(code, share) for e, share in shares.items()}
    return reconstruct_bulk(code, cols.items())[:, 0].tolist()


def repair_one(code, failed, shares: dict) -> list:
    cols = {e: column(code, share) for e, share in shares.items()}
    repaired, downloaded = repair_bulk(code, failed, cols.items())
    assert downloaded == len(shares)  # one symbol per helper
    return repaired[:, 0].tolist()


# -- parameters ---------------------------------------------------------------


def test_params_running_example():
    p = params_new(5, 3, 4, 4)
    assert (p.total_symbols, p.secure_symbols, p.max_guesses) == (9, 7, 3)


def test_params_tiny():
    p = params_new(3, 2, 2, 3)
    assert (p.total_symbols, p.secure_symbols, p.max_guesses) == (3, 1, 0)


def test_params_capacity_formula():
    for k in range(2, 9):
        for d in range(k, 11):
            p = grid_params(k, d)
            assert p.total_symbols == sum(d - i for i in range(k))


REJECTED = [
    ((5, 1, 4, 4), "k=1"),
    ((5, 0, 4, 4), "k="),
    ((5, 3, 2, 4), "d=2 < k=3"),
    ((4, 3, 4, 4), "n=4 too small"),
    ((5, 3, 4, 2), "m=2 out of range"),
    ((5, 3, 4, 17), "m=17 out of range"),
    ((5, 3, 4, 3), "field too small"),
]
NOT_INTEGERS = [
    ((5, 3, 4, 8.0), "m must be an integer"),
    ((5, True, 4, 8), "k must be an integer"),
    ((5, 3, 4, True), "m must be an integer"),
]


@pytest.mark.parametrize("bad, match", REJECTED + NOT_INTEGERS)
def test_params_rejections(bad, match):
    with pytest.raises(ParameterError, match=match):
        params_new(*bad)


@pytest.mark.parametrize("bad, match", REJECTED + [((4, 3, 4, 8), "n=4 too small")] + NOT_INTEGERS)
def test_code_params_refuses_what_params_new_refuses(bad, match):
    """A CodeParams built directly runs the same checks, with the same
    message, so no unchecked parameter set exists."""
    with pytest.raises(ParameterError) as direct:
        CodeParams(*bad)
    with pytest.raises(ParameterError) as checked:
        params_new(*bad)
    assert str(direct.value) == str(checked.value)
    assert direct.match(match)


# -- message matrix layout -------------------------------------------------


def test_fill_matches_reference_layout(code534):
    x = list(range(1, 10))
    assert message_matrix(code534, x) == [
        [1, 2, 3, 4],
        [2, 5, 6, 7],
        [3, 6, 8, 9],
        [4, 7, 9, 0],
    ]


def cell_index(k: int, d: int) -> dict:
    """Map (i, j) -> 0-based symbol index on both triangles of the message
    matrix, with no entry on the structural zeros."""
    idx = {}
    for b, (i, j) in enumerate(message_cells(k, d)):
        idx[(i, j)] = idx[(j, i)] = b
    return idx


def test_fill_zero_and_roundtrip(code534):
    """cell_index inverts message_cells on both triangles and leaves the
    structural zeros of the lower-right block unmapped."""
    zero = message_matrix(code534, [0] * 9)
    assert all(v == 0 for row in zero for v in row)
    idx = cell_index(3, 4)
    assert [(i, j) for i in range(4) for j in range(4) if (i, j) not in idx] == [(3, 3)]
    rng = random.Random(1)
    for _ in range(20):
        x = random_codeword(code534, rng)
        m = message_matrix(code534, x)
        assert all(m[i][j] == x[b] for (i, j), b in idx.items())


def test_message_cells_are_lexicographic():
    for k, d in [(2, 2), (3, 4), (4, 6)]:
        cells = message_cells(k, d)
        assert list(cells) == sorted(cells)
        assert len(cells) == k * (k + 1) // 2 + k * (d - k)


# -- encoding ------------------------------------------------------------


def test_encode_zero(code534):
    assert encode_one(code534, [0] * 9)[1] == [0, 0, 0, 0]


def test_encode_matches_row_times_matrix(code534):
    """psi_e * M built here from the encoding row and message_cells: the
    generator matrix and a one-column encode_bulk both give it."""
    rng = random.Random(2)
    for e in range(1, 6):
        x = random_codeword(code534, rng)
        msg = message_matrix(code534, x)
        expected = [0] * 4
        psi_e = code534.encoding_matrix.data[e - 1]
        for j in range(4):
            acc = 0
            for c in range(4):
                acc ^= code534.field.mul(psi_e[c], msg[c][j])
            expected[j] = acc
        assert mat_vec(code534.generator_matrix(e), x) == expected
        assert encode_one(code534, x)[e] == expected


def test_encode_matches_generator(code534):
    rng = random.Random(3)
    for e in range(1, 6):
        x = random_codeword(code534, rng)
        assert encode_one(code534, x)[e] == mat_vec(code534.generator_matrix(e), x)


def test_encode_rejects_bad_node(code534):
    with pytest.raises(ValueError, match="out of range"):
        code534.generator_matrix(0)
    with pytest.raises(ValueError, match="out of range"):
        code534.generator_matrix(6)


# -- generator matrices -------------------------------------------------------


def test_generator_sparsity_pattern(code534):
    g = code534.generator_matrix(1)
    supports = [tuple(j + 1 for j, v in enumerate(row) if v) for row in g.data]
    assert supports[0] == (1, 2, 3, 4)
    assert supports[3] == (4, 7, 9)


def test_generator_row_weights(code534):
    p = code534.params
    for e in range(1, p.n + 1):
        g = code534.generator_matrix(e)
        weights = [sum(1 for v in row if v) for row in g.data]
        assert weights == [p.d] * p.k + [p.k] * (p.d - p.k)
        assert min(weights) == p.k  # the weak spot the outer code exists to cover


def test_generator_full_rank(code534):
    for e in range(1, 6):
        assert rank(code534.generator_matrix(e)) == 4


def test_generator_rows_are_fresh_plain_lists(code534):
    d = code534.params.d
    for e in range(1, 6):
        stack_rows = code534.generator_stack[(e - 1) * d : e * d].tolist()
        rows = code534.generator_matrix(e).data
        assert rows == stack_rows
        assert all(type(v) is int for row in rows for v in row)
        rows[0][0] ^= 1
        assert code534.generator_matrix(e).data == stack_rows
    with pytest.raises(ValueError, match="out of range"):
        code534.generator_matrix(6)


def test_generator_values_come_from_encoding_row(code534):
    g = code534.generator_matrix(2)
    psi = code534.encoding_matrix.data[1]
    assert g.data[0][:4] == psi  # row 1 carries the full encoding row in order
    assert [g.data[3][3], g.data[3][6], g.data[3][8]] == psi[:3]


# -- reconstruction ------------------------------------------------------------


def test_reconstruct_every_k_subset(code534):
    rng = random.Random(4)
    x = random_codeword(code534, rng)
    shares = encode_one(code534, x)
    for subset in combinations(range(1, 6), 3):
        assert reconstruct_one(code534, {e: shares[e] for e in subset}) == x


def test_reconstruct_ignores_extra_shares(code534):
    rng = random.Random(5)
    x = random_codeword(code534, rng)
    shares = encode_one(code534, x)
    assert reconstruct_one(code534, shares) == x


def test_reconstruct_zero(code534):
    shares = {e: [0, 0, 0, 0] for e in (1, 3, 5)}
    assert reconstruct_one(code534, shares) == [0] * 9


def test_reconstruct_errors(code534):
    with pytest.raises(InsufficientNodesError):
        reconstruct_one(code534, {1: [0] * 4, 2: [0] * 4})
    with pytest.raises(ValueError, match="expected 4"):
        reconstruct_one(code534, {1: [0] * 4, 2: [0] * 4, 3: [0] * 3})
    with pytest.raises(ValueError, match="out of range"):
        reconstruct_one(code534, {1: [0] * 4, 2: [0] * 4, 9: [0] * 4})
    with pytest.raises(ValueError, match="out of range"):  # would read node 5's encoding row
        reconstruct_one(code534, {0: [0] * 4, 1: [0] * 4, 2: [0] * 4})
    widths = {1: 2, 2: 2, 3: 1}  # one column would otherwise broadcast over two
    with pytest.raises(ValueError, match="chunk count"):
        reconstruct_bulk(code534, ((e, np.zeros((4, w), code534.field.dtype)) for e, w in widths.items()))


# -- repair --------------------------------------------------------------------


def test_repair_exact_for_every_failure(code534):
    rng = random.Random(6)
    x = random_codeword(code534, rng)
    shares = encode_one(code534, x)
    for failed in range(1, 6):
        helpers = {e: shares[e] for e in range(1, 6) if e != failed}
        assert repair_one(code534, failed, helpers) == shares[failed]


def test_repair_download_is_one_symbol_per_helper(code534):
    """Each helper uploads its share dotted with the failed node's encoding
    row, and the repaired share is the helpers' encoding rows inverted on
    those d symbols alone."""
    rng = random.Random(7)
    x = random_codeword(code534, rng)
    shares = encode_one(code534, x)
    psi1 = code534.encoding_matrix.data[0]
    uploads = []
    for h in (2, 3, 4, 5):
        acc = 0
        for c in range(4):
            acc ^= code534.field.mul(shares[h][c], psi1[c])
        uploads.append(acc)
    helper_rows = submatrix(code534.encoding_matrix, [1, 2, 3, 4], range(4))
    assert mat_vec(invert(helper_rows), uploads) == shares[1]
    assert repair_one(code534, 1, {h: shares[h] for h in (2, 3, 4, 5)}) == shares[1]


def test_repair_zero_codeword(code534):
    shares = {h: [0, 0, 0, 0] for h in (2, 3, 4, 5)}
    assert repair_one(code534, 1, shares) == [0, 0, 0, 0]


def test_repair_errors(code534):
    with pytest.raises(ValueError, match="cannot appear"):
        repair_one(code534, 1, {1: [0] * 4, 2: [0] * 4, 3: [0] * 4, 4: [0] * 4})
    with pytest.raises(InsufficientNodesError):
        repair_one(code534, 1, {2: [0] * 4, 3: [0] * 4, 4: [0] * 4})
    with pytest.raises(ValueError, match="expected 4"):
        repair_one(code534, 1, {2: [0] * 4, 3: [0] * 4, 4: [0] * 4, 5: [0] * 3})
    with pytest.raises(ValueError, match="out of range"):
        repair_one(code534, 1, {2: [0] * 4, 3: [0] * 4, 4: [0] * 4, 6: [0] * 4})


@pytest.mark.parametrize("failed", [0, 6])
def test_repair_rejects_failed_node_out_of_range(code534, failed):
    """Node 0 would wrap around to node n's encoding row and quietly rebuild
    node n's share; node n+1 has no encoding row at all."""
    shares = encode_one(code534, random_codeword(code534, random.Random(failed)))
    helpers = {h: shares[h] for h in (1, 2, 3, 4)}
    with pytest.raises(ValueError, match="out of range"):
        repair_one(code534, failed, helpers)


def test_repair_exact_on_other_parameters():
    rng = random.Random(8)
    for k, d, n in [(2, 2, 4), (2, 4, 6), (4, 4, 5), (3, 5, 6)]:
        params = grid_params(k, d, n)
        code = inner(n, k, d, params.m)
        x = [rng.randrange(code.field.order) for _ in range(params.total_symbols)]
        shares = encode_one(code, x)
        for failed in range(1, n + 1):
            for helpers in combinations([e for e in range(1, n + 1) if e != failed], d):
                assert repair_one(code, failed, {h: shares[h] for h in helpers}) == shares[failed]
        for subset in combinations(range(1, n + 1), k):
            assert reconstruct_one(code, {e: shares[e] for e in subset}) == x


# -- the share intake --------------------------------------------------------

# Each case: the map, the nodes it is handed in order (a tuple is (node,
# rows, chunks) of a share unlike the others' 4 x 2), and the refusal. A
# read draws 3 shares at (6,3,4,4); a repair rebuilds node 1 from 4 helpers.
INTAKE_REFUSALS = {
    "read-node-out-of-range": ("read", [1, 2, 9], ValueError, "node index 9 out of range"),
    "repair-node-out-of-range": ("repair", [2, 3, 9, 4], ValueError, "node index 9 out of range"),
    "read-bool-node": ("read", [1, True, 3], ValueError, "node index True out of range"),
    "repair-bool-node": ("repair", [2, True, 4, 5], ValueError, "node index True out of range"),
    "read-row-count": ("read", [1, (2, 3, 2), 3], ValueError, "node 2 has 3 rows, expected 4"),
    "repair-row-count": ("repair", [2, 3, 4, (5, 5, 2)], ValueError, "node 5 has 5 rows, expected 4"),
    "read-chunk-count": ("read", [1, 2, (3, 4, 1)], ValueError, "node 3 .* chunk count 1, expected 2"),
    "repair-chunk-count": ("repair", [2, (3, 4, 3), 4, 5], ValueError, "node 3 .* chunk count 3, expected 2"),
    "read-repeated-node": ("read", [1, 2, 2], ValueError, "node 2 cannot appear twice"),
    "repair-repeated-node": ("repair", [2, 3, 3, 4], ValueError, "node 3 cannot appear twice"),
    "repair-failed-node-as-helper": ("repair", [2, 1, 3, 4], ValueError, "node 1 cannot appear among its helpers"),
    "read-too-few": ("read", [1, 2], InsufficientNodesError, "need 3 shares, got 2"),
    "repair-too-few": ("repair", [2, 3, 4], InsufficientNodesError, "need 4 shares, got 3"),
    "repair-more-than-d": ("repair", [2, 3, 4, 5, 6], InsufficientNodesError, "need exactly 4 shares, got more"),
}


@pytest.mark.parametrize("case", INTAKE_REFUSALS)
def test_intake_refusals(case, monkeypatch):
    """reconstruct_bulk and repair_bulk take shares through one intake, which
    refuses each bad pair with an error naming the node, or the short or long
    share set, before any kernel call.  A repeated node, once a singular
    solve, is refused by name."""
    from weavesafe.gf2m import Field

    kind, nodes, error, match = INTAKE_REFUSALS[case]
    code = inner(6, 3, 4, 4)
    specs = (e if isinstance(e, tuple) else (e, 4, 2) for e in nodes)
    pairs = ((e, np.zeros((rows, chunks), code.field.dtype)) for e, rows, chunks in specs)
    calls = []
    monkeypatch.setattr(Field, "mat_mul_cols", lambda *args: calls.append(args))
    with pytest.raises(error, match=match):
        reconstruct_bulk(code, pairs) if kind == "read" else repair_bulk(code, 1, pairs)
    assert calls == []


@pytest.mark.parametrize("kind", ["read", "repair"])
def test_intake_draws_its_count_one_share_at_a_time(kind):
    """A read draws exactly k pairs, though more are offered, and a repair its
    d helpers; each drawn share is dropped before the next pair is drawn."""
    import weakref

    code = inner(6, 3, 4, 4)
    p = code.params
    x = np.random.default_rng(3).integers(0, 16, (p.total_symbols, 5)).astype(code.field.dtype)
    shares = encode_bulk(code, x)
    offered = [1, 2, 3, 4, 5, 6] if kind == "read" else [2, 3, 4, 5]
    drawn, refs = [], []

    def pairs():
        for e in offered:
            assert all(r() is None for r in refs), (drawn, e)  # every earlier share dropped
            share = shares[e].copy()
            refs.append(weakref.ref(share))
            drawn.append(e)
            yield e, share
            del share

    if kind == "read":
        assert reconstruct_bulk(code, pairs()).tolist() == x.tolist()
        assert drawn == [1, 2, 3]
    else:
        assert repair_bulk(code, 1, pairs())[0].tolist() == shares[1].tolist()
        assert drawn == [2, 3, 4, 5]


# -- bulk variants ----------------------------------------------------------


def test_bulk_encode_matches_scalar(code534):
    rng = random.Random(9)
    chunks = [random_codeword(code534, rng) for _ in range(13)]
    cols = np.array(chunks, dtype=np.int32).T
    shares = encode_bulk(code534, cols)
    for e in range(1, 6):
        for t, x in enumerate(chunks):
            assert shares[e][:, t].tolist() == mat_vec(code534.generator_matrix(e), x)


def test_bulk_reconstruct_matches_scalar(code534):
    rng = random.Random(10)
    chunks = [random_codeword(code534, rng) for _ in range(13)]
    cols = np.array(chunks, dtype=np.int32).T
    shares = encode_bulk(code534, cols)
    recovered = reconstruct_bulk(code534, ((e, shares[e]) for e in (2, 4, 5)))
    assert recovered.T.tolist() == chunks


def test_bulk_repair_matches_scalar(code534):
    rng = random.Random(11)
    chunks = [random_codeword(code534, rng) for _ in range(13)]
    cols = np.array(chunks, dtype=np.int32).T
    shares = encode_bulk(code534, cols)
    repaired, downloaded = repair_bulk(code534, 3, ((e, shares[e]) for e in (1, 2, 4, 5)))
    assert repaired.tolist() == shares[3].tolist()
    assert downloaded == 4 * 13


def test_bulk_kernel_calls_keep_their_symbol_counts(monkeypatch):
    """encode_bulk applies all n*d generator rows in one kernel call, and
    repair_bulk applies the failed node's 1 x d encoding row once, to the
    d helpers' d x N shares side by side: the same symbol multiplications
    (nonzero coefficients times columns) as per-node and per-helper calls."""
    from weavesafe.gf2m import Field

    code = inner(7, 4, 6, 5)
    p = code.params
    rng = np.random.default_rng(12)
    cols = rng.integers(0, 32, (p.total_symbols, 19)).astype(np.uint8)
    calls = []
    for name in ("mat_mul_cols", "mul_vec"):
        real = getattr(Field, name)

        def spy(self, a, b, name=name, real=real):
            calls.append((name, a, b.shape))
            return real(self, a, b)

        monkeypatch.setattr(Field, name, spy)
    shares = encode_bulk(code, cols)
    kernel_calls = [c for c in calls if c[0] == "mat_mul_cols"]
    assert [c[2] for c in kernel_calls] == [(p.total_symbols, 19)]
    assert sum(1 for row in kernel_calls[0][1] for a in row if a) == sum(
        1 for e in range(1, p.n + 1) for row in code.generator_matrix(e).data for a in row if a
    )
    for e in range(1, p.n + 1):
        assert shares[e].tolist() == code.field.mat_mul_cols(code.generator_matrix(e).data, cols).tolist()

    del calls[:]
    repaired, downloaded = repair_bulk(code, 1, ((e, shares[e]) for e in range(2, p.d + 2)))
    uploads = [c for c in calls if c[0] == "mat_mul_cols" and len(c[1]) == 1]
    assert [np.asarray(c[1]).tolist() for c in uploads] == [[code.encoding_matrix.data[0]]]
    assert uploads[0][2] == (p.d, p.d * 19)
    # 6 * 19 columns are below the fan-in column count, so the upload is on
    # tables: one gather per nonzero coefficient over every helper's chunks,
    # the d * 19 multiplications of each that d per-helper calls made.
    nonzero = [a for a in code.encoding_matrix.data[0] if a]
    gathers = [c[1:] for c in calls if c[0] == "mul_vec"][: len(nonzero)]
    assert gathers == [(a, (p.d * 19,)) for a in nonzero]
    assert repaired.tolist() == shares[1].tolist() and downloaded == p.d * 19


def test_codec_uses_top_rows_of_stack():
    codec = make_codec(params_new(5, 3, 4, 4))
    stack = codec.params.cauchy_stack
    assert codec.inner.encoding_matrix.data == [stack.data[i] for i in range(5)]
    for row, (t, c) in zip(codec.outer.parity_check_ext.data, codec.outer.ext_row_types, strict=True):
        assert [v for v in row if v] == stack.data[4 + c][: 4 if t <= 3 else 3]  # coefficient rows 5..8


def full_product_reconstruct(code, share_cols):
    """Reconstruction with the whole k x k core product, as first written."""
    p = code.params
    f = code.field
    nodes = sorted(share_cols)[: p.k]
    n_chunks = share_cols[nodes[0]].shape[1]
    node_rows = [e - 1 for e in nodes]
    sel_inv = invert(submatrix(code.encoding_matrix, node_rows, range(p.k)))
    left = np.stack([share_cols[e][: p.k].reshape(-1) for e in nodes])
    wing = None
    if p.d > p.k:
        right = np.stack([share_cols[e][p.k :].reshape(-1) for e in nodes])
        wing = f.mat_mul_cols(sel_inv.data, right).reshape(p.k, p.d - p.k, n_chunks)
        mixer = submatrix(code.encoding_matrix, node_rows, range(p.k, p.d))
        left ^= f.mat_mul_cols(mixer.data, wing.transpose(1, 0, 2).reshape(p.d - p.k, -1))
    core = f.mat_mul_cols(sel_inv.data, left).reshape(p.k, p.k, n_chunks)
    out = np.zeros((p.total_symbols, n_chunks), dtype=f.dtype)
    for b, (i, j) in enumerate(message_cells(p.k, p.d)):
        out[b] = core[i, j] if j < p.k else wing[i, j - p.k]
    return out


def test_reconstruct_upper_triangle_matches_full_product(monkeypatch):
    """The read map returns the codeword: the result equals the full core
    product over the grid, d == k included, on exactly the wing solve's
    k^2 (d-k) multiplies per chunk plus the map's nonzeros, d for each of
    the k(k+1)/2 core symbols and one for each of the k(d-k) wing ones."""
    from weavesafe.gf2m import Field

    mults = []
    real = Field.mat_mul_cols

    def spy(self, rows, cols):
        mults.append(int(np.count_nonzero(np.asarray(rows))) * cols.shape[1])
        return real(self, rows, cols)

    monkeypatch.setattr(Field, "mat_mul_cols", spy)
    rng = random.Random(21)
    np_rng = np.random.default_rng(21)
    for k in range(2, 6):
        for d in range(k, k + 3):
            code = make_codec(grid_params(k, d)).inner
            p = code.params
            cols = np_rng.integers(0, code.field.order, (p.total_symbols, 23)).astype(code.field.dtype)
            shares = encode_bulk(code, cols)
            for _ in range(3):
                subset = rng.sample(range(1, p.n + 1), k)
                chosen = {e: shares[e] for e in subset}
                del mults[:]
                got = reconstruct_bulk(code, chosen.items())
                wing = k * (d - k)
                assert sum(mults) == (k * wing + k * (k + 1) // 2 * d + wing) * 23, (k, d, subset)
                assert got.tolist() == full_product_reconstruct(code, chosen).tolist() == cols.tolist()
