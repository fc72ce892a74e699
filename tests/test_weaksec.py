import random
from itertools import combinations, product

import numpy as np
import pytest

from conftest import grid_params
from weavesafe.errors import InsufficientNodesError, ParameterError
from weavesafe.gf2m import Field
from weavesafe.audit import certify_completion
from weavesafe.linalg import Matrix, invert, mat_vec, rank, submatrix
from weavesafe import weaksec
from weavesafe.pm_mbr import InnerCode, encode_bulk, params_new, type_positions
from weavesafe.weaksec import (
    OuterCode,
    SecureCodec,
    index_sets,
    make_codec,
    perfect_capacity,
    type_cardinalities,
)


def coset_encode(outer, message, randomness) -> list:
    """One chunk through coset_encode_bulk: a one-column call."""
    dtype = outer.field.dtype
    cols = outer.coset_encode_bulk(
        np.array(message, dtype=dtype).reshape(-1, 1), np.array(randomness, dtype=dtype).reshape(-1, 1)
    )
    return cols[:, 0].tolist()


def coset_decode(codec, codeword) -> list:
    """One chunk through coset_decode_bulk: a one-column call on the
    shares of the first k nodes, made with encode_bulk."""
    shares = encode_bulk(codec.inner, np.array(codeword, dtype=codec.field.dtype).reshape(-1, 1))
    cols = codec.outer.coset_decode_bulk(codec.inner, ((e, shares[e]) for e in range(1, codec.params.k + 1)))
    return cols[:, 0].tolist()


# -- type cardinalities -------------------------------------------------------


def test_type_cardinalities_examples():
    assert type_cardinalities(3, 4) == (0, 3, 3, 1)
    assert type_cardinalities(2, 3) == (0, 2, 1)
    assert type_cardinalities(2, 2) == (0, 1)


def test_type_cardinalities_rejects_bad_k():
    with pytest.raises(ParameterError):
        type_cardinalities(1, 4)
    with pytest.raises(ParameterError):
        type_cardinalities(3, 2)


def test_type_cardinalities_sum_and_max():
    for k in range(2, 13):
        for d in range(k, 13):
            counts = type_cardinalities(k, d)
            total = sum(d - i for i in range(k))
            assert sum(counts) == total - 2, (k, d)
            assert max(counts) == d - 1, (k, d)


# -- index sets ---------------------------------------------------------------


def test_index_sets_running_example():
    sets = index_sets(3, 4)
    assert sets == ((1, 2, 3, 4), (2, 5, 6, 7), (3, 6, 8, 9), (4, 7, 9))


def test_index_set_structure():
    for k in range(2, 8):
        for d in range(k, 9):
            sets = index_sets(k, d)
            total = sum(d - i for i in range(k))
            for i, s in enumerate(sets, start=1):
                assert list(s) == sorted(s)
                assert len(s) == (d if i <= k else k)
            for i in range(1, d + 1):
                for j in range(i + 1, d + 1):
                    common = set(sets[i - 1]) & set(sets[j - 1])
                    assert len(common) == (1 if i <= k else 0), (k, d, i, j)
            assert set().union(*sets) == set(range(1, total + 1))


# -- cauchy stack -------------------------------------------------------------


def test_stack_running_example_dimensions():
    params = params_new(5, 3, 4, 4)
    stack = params.cauchy_stack
    assert (stack.rows, stack.cols) == (9, 4) and stack.field == Field(4)
    assert all(v != 0 for row in stack.data for v in row)


def test_stack_rejects_small_field():
    with pytest.raises(ParameterError, match="field too small"):
        params_new(5, 3, 4, 3)


STORE_POINTS = ((5, 3, 4, 8), (12, 6, 10, 8), (20, 10, 16, 8), (12, 6, 10, 16))


@pytest.mark.parametrize(
    "p",
    [grid_params(k, d) for k in range(2, 6) for d in range(k, k + 3)]
    + [params_new(*point) for point in STORE_POINTS],
    ids=lambda p: f"{p.n}-{p.k}-{p.d}-{p.m}",
)
def test_codes_are_cut_from_the_params_stack(p):
    """Each code is a function of the parameters: the inner code holds
    rows 0..n-1 of the params' Cauchy stack, n x d, and the outer code's
    check rows take their values from rows n..n+d-1, d x d, both over
    GF(2^m)."""
    stack = p.cauchy_stack
    inner, outer = InnerCode(p), OuterCode(p)
    coeffs = submatrix(stack, range(p.n, p.n + p.d), range(p.d))
    assert inner.encoding_matrix.data == [stack.data[i] for i in range(p.n)]
    sets = index_sets(p.k, p.d)
    for row, (t, c) in zip(outer.parity_check_ext.data, outer.ext_row_types, strict=True):
        assert [v for v in row if v] == coeffs.data[c - 1][: len(sets[t - 1])]
    for code, matrix, shape in (
        (inner, inner.encoding_matrix, (p.n, p.d)),
        (outer, coeffs, (p.d, p.d)),
    ):
        assert code.field == matrix.field == Field(p.m)
        assert (matrix.rows, matrix.cols) == shape


# -- type rows ----------------------------------------------------------------


def scalar_type_row(k: int, d: int, t: int, coeffs: list) -> list:
    """The type-t row (1-based) written one symbol at a time: coeffs[j] on
    each symbol (b, j) of message-matrix row t, zero elsewhere."""
    row = [0] * (k * (k + 1) // 2 + k * (d - k))
    for b, j in type_positions(k, d, t - 1):
        row[b] = coeffs[j]
    return row


def test_typed_row_group_two():
    p = params_new(5, 3, 4, 4)
    for r in range(p.n + p.d):
        g, g2, g3, _ = p.cauchy_stack.data[r]  # 4th entry unused for type 4
        assert p.typed_rows[r, 3].tolist() == [0, 0, 0, g, 0, 0, g2, 0, g3]


def test_typed_row_group_one_support():
    p = params_new(5, 3, 4, 4)
    for r in range(p.n + p.d):
        row = p.typed_rows[r, 0]
        assert [i + 1 for i, v in enumerate(row) if v] == [1, 2, 3, 4]


@pytest.mark.parametrize("point", STORE_POINTS + ((6, 3, 5, 4), (7, 4, 6, 5)), ids=str)
def test_typed_rows_are_every_row_of_the_codes(point):
    """Every (r, t) of the typed rows is Cauchy row r written onto type t's
    positions by a scalar loop, and the generator stack, H, H_ext and the
    completion certificates' matrices are typed rows at their addresses:
    (e-1, t-1) for node e, (n+c-1, t-1) for ledger entry (t, c)."""
    p = params_new(*point)
    typed = p.typed_rows
    assert typed.shape == (p.n + p.d, p.d, p.total_symbols) and typed.dtype == Field(p.m).dtype
    assert not typed.flags.writeable
    for r in range(p.n + p.d):
        for t in range(1, p.d + 1):
            assert typed[r, t - 1].tolist() == scalar_type_row(p.k, p.d, t, p.cauchy_stack.data[r]), (r, t)

    def at(ledger):
        return [typed[p.n + c - 1, t - 1].tolist() for t, c in ledger]

    codec = make_codec(p)
    outer = codec.outer
    assert codec.inner.generator_stack.tolist() == [typed[e, t].tolist() for e in range(p.n) for t in range(p.d)]
    assert outer.parity_check.data == at(outer.row_types)
    assert outer.check_rows.types.tolist() == [t - 1 for t, _ in outer.row_types]
    assert outer.check_rows.coefficients.tolist() == [p.cauchy_stack.data[p.n + c - 1] for _, c in outer.row_types]
    assert outer.parity_check_ext.data == at(outer.ext_row_types)
    for subset in [(), tuple(range(1, p.k + 1)), tuple(range(p.secure_symbols - p.d, p.secure_symbols + 1))]:
        for node in (1, p.n):
            cert = certify_completion(codec, subset, node)
            own = [typed[node - 1, t].tolist() for t in range(p.d)]
            assert cert.matrix.data == at(outer.row_types[i - 1] for i in subset) + own + at(cert.appended)


# -- parity-check construction ---------------------------------------------


REFERENCE_POSITIONS = {  # (type, coefficient column j) per symbol, k=3 d=4
    2: ((2, 1), (5, 2), (6, 3), (7, 4)),
    3: ((3, 1), (6, 2), (8, 3), (9, 4)),
    4: ((4, 1), (7, 2), (9, 3)),
}


def test_parity_check_matches_reference_pattern(codec534):
    outer = codec534.outer
    h = outer.parity_check
    coeff = submatrix(codec534.params.cauchy_stack, range(5, 9), range(4))
    assert (h.rows, h.cols) == (7, 9)
    assert outer.row_types == ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (4, 1))
    for r, (type_i, p) in enumerate(outer.row_types):
        expected = [0] * 9
        for b, j in REFERENCE_POSITIONS[type_i]:
            expected[b - 1] = coeff.data[p - 1][j - 1]
        assert h.data[r] == expected, f"row {r}"


def test_parity_check_rank(codec534):
    assert rank(codec534.outer.parity_check) == 7


def test_extension_top_block_is_parity_check(codec534):
    outer = codec534.outer
    ext = outer.parity_check_ext
    assert ext.rows == ext.cols == 9
    assert [ext.data[i] for i in range(7)] == [outer.parity_check.data[i] for i in range(7)]
    # appended rows: a type-3 row drawing the last coefficient row, then a
    # type-1 row drawing the first
    coeff = submatrix(codec534.params.cauchy_stack, range(5, 9), range(4))
    assert ext.data[7] == scalar_type_row(3, 4, 3, coeff.data[3])
    assert ext.data[8] == scalar_type_row(3, 4, 1, coeff.data[0])


def test_extension_invertible_on_grid():
    for k in range(2, 9):
        for d in range(k, 9):
            codec = make_codec(grid_params(k, d))
            p = codec.params
            assert rank(codec.outer.parity_check) == p.secure_symbols, (k, d)
            assert rank(codec.outer.parity_check_ext) == p.total_symbols, (k, d)


def test_solve_steps_refuse_a_broken_extension(codec534):
    """The coset encoder's build refuses a type with more rows than
    unsolved symbols, and a singular step, each by name."""
    outer, p = codec534.outer, codec534.params
    ext, types = outer.parity_check_ext, outer.ext_row_types
    assert types[0] == (2, 1)
    relabeled = ((3, 1),) + types[1:]
    with pytest.raises(ParameterError) as exc:
        weaksec._solve_steps(p, ext, relabeled)
    assert str(exc.value) == "parity-check matrix is rank-deficient: type 3 has 5 rows for 4 unsolved symbols"
    first, second = [r for r, (t, _) in enumerate(types) if t == 3][:2]
    data = [list(row) for row in ext.data]
    data[second] = list(data[first])
    with pytest.raises(ParameterError) as exc:
        weaksec._solve_steps(p, Matrix(ext.field, data), types)
    assert str(exc.value) == "extended parity-check matrix is singular: type 3 step"


# -- coset encode / decode ------------------------------------------------


def test_coset_roundtrip(codec534):
    rng = random.Random(0)
    outer = codec534.outer
    for _ in range(25):
        msg = [rng.randrange(16) for _ in range(7)]
        rnd = [rng.randrange(16) for _ in range(2)]
        codeword = coset_encode(outer, msg, rnd)
        assert len(codeword) == 9
        assert coset_decode(codec534, codeword) == msg


def test_coset_encode_is_injective_in_randomness(codec534):
    outer = codec534.outer
    msg = [3, 1, 4, 1, 5, 9, 2]
    seen = set()
    for r1, r2 in [(0, 0), (0, 1), (7, 7), (15, 3)]:
        codeword = tuple(coset_encode(outer, msg, [r1, r2]))
        assert codeword not in seen
        seen.add(codeword)
        assert coset_decode(codec534, list(codeword)) == msg


def test_coset_enumerates_whole_coset(codec322):
    """For each fixed message, the 64 randomness pairs hit each of the 64
    coset members exactly once; the coset itself comes from brute force."""
    outer = codec322.outer
    q = codec322.field.order
    for msg_sym in (0, 3, 7):
        coset = {
            x
            for x in product(range(q), repeat=3)
            if mat_vec(outer.parity_check, list(x)) == [msg_sym]
        }
        assert len(coset) == q * q
        produced = [tuple(coset_encode(outer, [msg_sym], [r1, r2])) for r1 in range(q) for r2 in range(q)]
        assert len(set(produced)) == q * q
        assert set(produced) == coset


def test_coset_decode_matches_parity_product(codec534):
    rng = random.Random(1)
    outer = codec534.outer
    for _ in range(10):
        x = [rng.randrange(16) for _ in range(9)]
        assert coset_decode(codec534, x) == mat_vec(outer.parity_check, x)
    assert coset_decode(codec534, [0] * 9) == [0] * 7


def test_coset_decode_invariant_under_null_space(codec534):
    """Two codewords of one message differ by a vector of H's null space,
    which is two-dimensional; adding such a vector never changes a
    syndrome."""
    rng = random.Random(2)
    outer = codec534.outer
    msg = [rng.randrange(16) for _ in range(7)]
    base = coset_encode(outer, msg, [0, 0])
    basis = [[a ^ b for a, b in zip(coset_encode(outer, msg, r), base)] for r in ([1, 0], [0, 1])]
    assert rank(Matrix(codec534.field, basis)) == 2
    x = [rng.randrange(16) for _ in range(9)]
    syndrome = coset_decode(codec534, x)
    for v in basis:
        shifted = [a ^ b for a, b in zip(x, v)]
        assert coset_decode(codec534, shifted) == syndrome


def test_coset_length_validation(codec534):
    outer = codec534.outer
    with pytest.raises(ValueError):
        coset_encode(outer, [0] * 6, [0, 0])
    with pytest.raises(ValueError):
        coset_encode(outer, [0] * 7, [0])
    shares = encode_bulk(codec534.inner, np.zeros((9, 1), dtype=codec534.field.dtype))
    with pytest.raises(ValueError, match="has 3 rows, expected 4"):
        outer.coset_decode_bulk(codec534.inner, [(1, shares[1]), (2, shares[2]), (3, shares[3][:3])])
    with pytest.raises(InsufficientNodesError):
        outer.coset_decode_bulk(codec534.inner, [(1, shares[1]), (2, shares[2])])


def test_coset_bulk_matches_scalar(codec534):
    rng = random.Random(3)
    outer = codec534.outer
    msgs = [[rng.randrange(16) for _ in range(7)] for _ in range(11)]
    rnds = [[rng.randrange(16) for _ in range(2)] for _ in range(11)]
    cols = outer.coset_encode_bulk(np.array(msgs, dtype=np.int32).T, np.array(rnds, dtype=np.int32).T)
    shares = encode_bulk(codec534.inner, cols)
    decoded = outer.coset_decode_bulk(codec534.inner, ((e, shares[e]) for e in (2, 4, 5)))
    for t in range(11):
        assert cols[:, t].tolist() == coset_encode(outer, msgs[t], rnds[t])
        assert decoded[:, t].tolist() == msgs[t] == mat_vec(outer.parity_check, cols[:, t].tolist())


@pytest.mark.parametrize("params", [params_new(5, 3, 4, 8), params_new(7, 4, 6, 5), grid_params(3, 3)], ids=str)
def test_coset_decode_from_every_k_subset(params, monkeypatch):
    """Every k-subset of nodes decodes the stored message, d == k included,
    on exactly the wing solve's k^2 (d-k) multiplies per chunk plus H's
    nonzeros: the read map has H's sparsity, whichever nodes serve."""
    codec = make_codec(params)
    p = codec.params
    rng = np.random.default_rng(p.n)

    def draw(rows):
        return rng.integers(0, 1 << p.m, (rows, 17)).astype(codec.field.dtype)

    message = draw(p.secure_symbols)
    shares = encode_bulk(codec.inner, codec.outer.coset_encode_bulk(message, draw(2)))
    mults = []
    real = Field.mat_mul_cols

    def spy(self, rows, cols):
        mults.append(int(np.count_nonzero(np.asarray(rows))) * cols.shape[1])
        return real(self, rows, cols)

    monkeypatch.setattr(Field, "mat_mul_cols", spy)
    nonzeros = sum(1 for row in codec.outer.parity_check.data for a in row if a)
    for subset in combinations(range(1, p.n + 1), p.k):
        del mults[:]
        decoded = codec.outer.coset_decode_bulk(codec.inner, ((e, shares[e]) for e in subset))
        assert sum(mults) == (p.k * p.k * (p.d - p.k) + nonzeros) * 17, subset
        assert decoded.tolist() == message.tolist(), subset


def test_coset_encode_bulk_matches_dense_inverse_on_grid():
    """The type-ordered solve gives exactly the dense inverse's product."""
    rng = random.Random(4)
    for k in range(2, 9):
        for d in range(k, 9):
            codec = make_codec(grid_params(k, d))
            outer, field = codec.outer, codec.field
            dense = invert(outer.parity_check_ext)

            def draw(rows):
                cells = [[rng.randrange(field.order) for _ in range(6)] for _ in range(rows)]
                return np.array(cells, dtype=field.dtype)

            msgs, rnds = draw(codec.params.secure_symbols), draw(2)
            cols = outer.coset_encode_bulk(msgs, rnds)
            assert cols.dtype == field.dtype
            for t in range(6):
                z = msgs[:, t].tolist() + rnds[:, t].tolist()
                assert cols[:, t].tolist() == mat_vec(dense, z), (k, d, t)


# -- capacity formulas ------------------------------------------------------


def test_capacity_formulas():
    assert perfect_capacity(3, 4, 1) == 5
    assert perfect_capacity(3, 4, 0) == 9
    # capacity given up for perfect secrecy at one observed node is d
    assert 9 - perfect_capacity(3, 4, 1) == 4
    with pytest.raises(ParameterError):
        perfect_capacity(3, 4, 3)


# -- per-process memo of derived matrices --------------------------------------


def _assert_same_matrices(a, b):
    """Two codecs of one parameter set carry equal derived matrices."""
    assert a.params.cauchy_stack == b.params.cauchy_stack
    assert (a.params.typed_rows == b.params.typed_rows).all()
    assert a.inner.encoding_matrix == b.inner.encoding_matrix
    assert (a.inner.generator_stack == b.inner.generator_stack).all()
    for name in ("parity_check", "parity_check_ext"):
        assert getattr(a.outer, name) == getattr(b.outer, name), name
    assert (a.outer.check_rows.types == b.outer.check_rows.types).all()
    assert (a.outer.check_rows.coefficients == b.outer.check_rows.coefficients).all()
    assert a.outer.ext_row_types == b.outer.ext_row_types
    for s, t in zip(a.outer.solve_steps, b.outer.solve_steps, strict=True):
        assert (s.type_index, s.rows, s.variables, s.known) == (t.type_index, t.rows, t.variables, t.known)
        assert (s.inverse == t.inverse).all() and (s.coupling == t.coupling).all()


def test_codecs_share_derived_data_over_their_own_fields():
    """Two builds of one parameter set are distinct codecs, each over its
    own Field, that share one stack and one inner and outer code; these
    equal a derivation that bypasses the memo."""
    p = params_new(7, 4, 6, 5)
    a, b = make_codec(p), make_codec(p)
    assert a is not b and a.field is not b.field and a.field == b.field
    assert a.inner is b.inner and a.outer is b.outer
    for codec in (a, b):
        assert codec.inner.field == codec.field and codec.outer.field == codec.field
        for matrix in (codec.params.cauchy_stack, codec.inner.encoding_matrix, codec.outer.parity_check):
            assert matrix.field == codec.field
    for step in a.outer.solve_steps:
        assert step.inverse.dtype == step.coupling.dtype == a.field.dtype
    for shared in (a.params.typed_rows, a.inner.generator_stack, a.outer.check_rows.coefficients, a.outer.solve_steps[0].inverse):
        with pytest.raises(ValueError):
            shared[0, 0] ^= 1  # shared, so read-only

    q = params_new(7, 4, 6, 5)
    assert q == p and q is not p
    fresh = SecureCodec.__new__(SecureCodec)
    fresh.params = q
    fresh.inner = InnerCode(q)
    fresh.outer = OuterCode(q)
    _assert_same_matrices(a, fresh)


def test_codec_params_is_the_memoized_object():
    """A codec's params is the object its codes were built from, so codecs
    of distinct but equal parameter objects read one Cauchy stack and one
    typed-row array, never building their own."""
    p, q = params_new(6, 3, 5, 4), params_new(6, 3, 5, 4)
    assert p == q and p is not q
    a, b = make_codec(p), make_codec(q)
    assert a.params is a.inner.params is a.outer.params is b.params
    assert a.params.typed_rows is b.params.typed_rows
    assert a.params.cauchy_stack is b.params.cauchy_stack


def test_codec_memo_stays_at_its_bound():
    """More parameter sets than the bound keep the memo at the bound; an
    evicted set is derived again, to equal matrices."""
    grid = [grid_params(k, d) for k in range(2, 6) for d in range(k, k + 3)]
    assert len(grid) > weaksec._CODEC_MEMO
    weaksec._codes.cache_clear()
    first = make_codec(grid[0])
    for p in grid:
        make_codec(p)
        assert weaksec._codes.cache_info().currsize <= weaksec._CODEC_MEMO
    assert weaksec._codes.cache_info().currsize == weaksec._CODEC_MEMO
    again = make_codec(grid[0])
    assert again.inner.generator_stack is not first.inner.generator_stack
    _assert_same_matrices(first, again)
