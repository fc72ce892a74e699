import random
from itertools import product

import numpy as np
import pytest

from conftest import grid_params
from weavesafe.errors import ParameterError
from weavesafe.gf2m import field_new
from weavesafe.linalg import invert, mat_vec, null_space, rank, submatrix
from weavesafe.pm_mbr import params_new
from weavesafe.weaksec import (
    OuterCode,
    build_cauchy_stack,
    index_sets,
    make_codec,
    make_type_row,
    max_guesses,
    perfect_capacity,
    secure_capacity,
    type_cardinalities,
)


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
    stack = build_cauchy_stack(params, field_new(4))
    assert (stack.rows, stack.cols) == (9, 4)
    assert all(v != 0 for row in stack.data for v in row)


def test_stack_rejects_small_field():
    params = params_new(5, 3, 4, 4)
    with pytest.raises(ParameterError, match="does not match"):
        build_cauchy_stack(params, field_new(3))
    with pytest.raises(ParameterError, match="field too small"):
        params_new(5, 3, 4, 3)


# -- type rows ----------------------------------------------------------------


def test_make_type_row_group_two():
    f = field_new(4)
    g = 7
    coeffs = [g, f.mul(g, g), f.pow(g, 3), 0]  # 4th entry unused for type 4
    row = make_type_row(f, 3, 4, 4, coeffs)
    assert row == [0, 0, 0, g, 0, 0, f.mul(g, g), 0, f.pow(g, 3)]


def test_make_type_row_group_one_support():
    f = field_new(4)
    row = make_type_row(f, 3, 4, 1, [1, 2, 3, 4])
    assert [i + 1 for i, v in enumerate(row) if v] == [1, 2, 3, 4]


def test_make_type_row_errors():
    f = field_new(4)
    with pytest.raises(ValueError, match="type index"):
        make_type_row(f, 3, 4, 5, [1, 2, 3, 4])
    with pytest.raises(ValueError, match="zero coefficient"):
        make_type_row(f, 3, 4, 1, [1, 0, 3, 4])
    with pytest.raises(ValueError, match="coefficients"):
        make_type_row(f, 3, 4, 1, [1, 2, 3])


# -- parity-check construction ---------------------------------------------


REFERENCE_POSITIONS = {  # (type, coefficient column j) per symbol, k=3 d=4
    2: ((2, 1), (5, 2), (6, 3), (7, 4)),
    3: ((3, 1), (6, 2), (8, 3), (9, 4)),
    4: ((4, 1), (7, 2), (9, 3)),
}


def test_parity_check_matches_reference_pattern(codec534):
    outer = codec534.outer
    h = outer.parity_check
    coeff = outer.coeff_matrix
    assert (h.rows, h.cols) == (7, 9)
    assert outer.row_types == ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (4, 1))
    for r, (type_i, p) in enumerate(outer.row_types):
        expected = [0] * 9
        for b, j in REFERENCE_POSITIONS[type_i]:
            expected[b - 1] = coeff.get(p - 1, j - 1)
        assert h.row(r) == expected, f"row {r}"


def test_parity_check_rank(codec534):
    assert rank(codec534.outer.parity_check) == 7


def test_extension_top_block_is_parity_check(codec534):
    outer = codec534.outer
    ext = outer.parity_check_ext
    assert ext.rows == ext.cols == 9
    assert [ext.row(i) for i in range(7)] == [outer.parity_check.row(i) for i in range(7)]
    # appended rows: a type-3 row drawing the last coefficient row, then a
    # type-1 row drawing the first
    coeff = outer.coeff_matrix
    assert ext.row(7) == make_type_row(codec534.field, 3, 4, 3, coeff.row(3))
    assert ext.row(8) == make_type_row(codec534.field, 3, 4, 1, coeff.row(0))


def test_extension_invertible_on_grid():
    for k in range(2, 9):
        for d in range(k, 9):
            codec = make_codec(grid_params(k, d))
            p = codec.params
            assert rank(codec.outer.parity_check) == p.secure_symbols, (k, d)
            assert rank(codec.outer.parity_check_ext) == p.total_symbols, (k, d)


# -- coset encode / decode ------------------------------------------------


def test_coset_roundtrip(codec534):
    rng = random.Random(0)
    outer = codec534.outer
    for _ in range(25):
        msg = [rng.randrange(16) for _ in range(7)]
        rnd = [rng.randrange(16) for _ in range(2)]
        codeword = outer.coset_encode(msg, rnd)
        assert len(codeword) == 9
        assert outer.coset_decode(codeword) == msg


def test_coset_encode_is_injective_in_randomness(codec534):
    outer = codec534.outer
    msg = [3, 1, 4, 1, 5, 9, 2]
    seen = set()
    for r1, r2 in [(0, 0), (0, 1), (7, 7), (15, 3)]:
        codeword = tuple(outer.coset_encode(msg, [r1, r2]))
        assert codeword not in seen
        seen.add(codeword)
        assert outer.coset_decode(list(codeword)) == msg


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
        produced = [tuple(outer.coset_encode([msg_sym], [r1, r2])) for r1 in range(q) for r2 in range(q)]
        assert len(set(produced)) == q * q
        assert set(produced) == coset


def test_coset_decode_matches_parity_product(codec534):
    rng = random.Random(1)
    outer = codec534.outer
    for _ in range(10):
        x = [rng.randrange(16) for _ in range(9)]
        assert outer.coset_decode(x) == mat_vec(outer.parity_check, x)
    assert outer.coset_decode([0] * 9) == [0] * 7


def test_coset_decode_invariant_under_null_space(codec534):
    rng = random.Random(2)
    outer = codec534.outer
    basis = null_space(outer.parity_check)
    assert len(basis) == 2
    x = [rng.randrange(16) for _ in range(9)]
    syndrome = outer.coset_decode(x)
    for v in basis:
        shifted = [a ^ b for a, b in zip(x, v)]
        assert outer.coset_decode(shifted) == syndrome


def test_coset_length_validation(codec534):
    outer = codec534.outer
    with pytest.raises(ValueError):
        outer.coset_encode([0] * 6, [0, 0])
    with pytest.raises(ValueError):
        outer.coset_encode([0] * 7, [0])
    with pytest.raises(ValueError):
        outer.coset_decode([0] * 8)


def test_coset_bulk_matches_scalar(codec534):
    rng = random.Random(3)
    outer = codec534.outer
    msgs = [[rng.randrange(16) for _ in range(7)] for _ in range(11)]
    rnds = [[rng.randrange(16) for _ in range(2)] for _ in range(11)]
    cols = outer.coset_encode_bulk(np.array(msgs, dtype=np.int32).T, np.array(rnds, dtype=np.int32).T)
    decoded = outer.coset_decode_bulk(cols)
    for t in range(11):
        assert cols[:, t].tolist() == outer.coset_encode(msgs[t], rnds[t])
        assert decoded[:, t].tolist() == msgs[t]


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
    assert secure_capacity(3, 4) == 7
    assert max_guesses(3, 4) == 3
    assert max_guesses(2, 2) == 0
    assert perfect_capacity(3, 4, 1) == 5
    assert perfect_capacity(3, 4, 0) == 9
    # capacity given up for perfect secrecy at one observed node is d
    assert 9 - perfect_capacity(3, 4, 1) == 4
    with pytest.raises(ParameterError):
        perfect_capacity(3, 4, 3)


def test_outer_code_rejects_wrong_coeff_shape(codec534):
    params = codec534.params
    bad = submatrix(codec534.outer.coeff_matrix, range(3), range(4))
    with pytest.raises(ParameterError):
        OuterCode(params, codec534.field, bad)
