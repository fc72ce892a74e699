import random

import pytest

from conftest import gf_inv_bruteforce, gf_mul_bruteforce
from weavesafe.errors import ParameterError
from weavesafe.gf2m import CANONICAL_POLYS, field_new, is_irreducible


def test_canonical_polynomials_are_irreducible():
    for m, poly in CANONICAL_POLYS.items():
        assert is_irreducible(poly, m), f"m={m}"


def test_field_new_basics():
    f3 = field_new(3)
    assert f3.order == 8
    assert f3.reduction_poly == 0b1011  # x^3 + x + 1
    assert field_new(8).order == 256


@pytest.mark.parametrize("m", [2, 17, 0, -1])
def test_field_new_rejects_bad_degree(m):
    with pytest.raises(ParameterError):
        field_new(m)


def test_add_is_self_inverse(gf8):
    assert gf8.add(3, 3) == 0
    for a in gf8.elements():
        assert gf8.add(a, a) == 0


def test_known_products_gf8(gf8):
    # frozen from the carry-less multiply-and-reduce oracle
    assert gf_mul_bruteforce(3, 3, 3) == 5
    assert gf8.mul(3, 3) == 5
    # frozen from exhaustive inverse search
    assert gf_inv_bruteforce(2, 3) == 5
    assert gf8.inv(2) == 5


@pytest.mark.parametrize("m", [3, 4, 8])
def test_table_multiply_matches_bruteforce(m):
    f = field_new(m)
    for a in f.elements():
        for b in f.elements():
            assert f.mul(a, b) == gf_mul_bruteforce(a, b, m), (a, b)


@pytest.mark.parametrize("m", [3, 4])
def test_field_axioms_exhaustive(m):
    f = field_new(m)
    els = list(f.elements())
    for a in els:
        for b in els:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            for c in els:
                assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("m", [8, 12, 16])
def test_field_axioms_random(m):
    f = field_new(m)
    rng = random.Random(m)
    for _ in range(200):
        a, b, c = (rng.randrange(f.order) for _ in range(3))
        assert f.mul(a, b) == f.mul(b, a)
        assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        assert f.mul(a, b) == gf_mul_bruteforce(a, b, m)


@pytest.mark.parametrize("m", [3, 4, 8, 16])
def test_inverse_and_division(m):
    f = field_new(m)
    rng = random.Random(m)
    sample = list(range(1, f.order)) if m <= 8 else [rng.randrange(1, f.order) for _ in range(300)]
    for a in sample:
        assert f.mul(a, f.inv(a)) == 1
        assert f.div(a, a) == 1
    with pytest.raises(ZeroDivisionError):
        f.inv(0)
    with pytest.raises(ZeroDivisionError):
        f.div(3, 0)
    assert f.div(0, 3) == 0


def test_log_exp_tables_are_mutually_inverse():
    for m in (3, 4, 8):
        f = field_new(m)
        for a in range(1, f.order):
            assert f.exp_table[f.log_table[a]] == a
        assert sorted(f.exp_table) == list(range(1, f.order))


def test_pow(gf16):
    rng = random.Random(4)
    for _ in range(100):
        a = rng.randrange(16)
        e = rng.randrange(10)
        expected = 1
        for _ in range(e):
            expected = gf16.mul(expected, a)
        assert gf16.pow(a, e) == expected
    assert gf16.pow(0, 0) == 1
    with pytest.raises(ValueError):
        gf16.pow(3, -1)


def test_check_rejects_out_of_range(gf8):
    with pytest.raises(ValueError):
        gf8.check(8)
    with pytest.raises(ValueError):
        gf8.check(-1)
    assert gf8.check(7) == 7


def test_symbol_serialization_is_big_endian():
    f4 = field_new(4)
    assert f4.symbol_bytes == 1
    assert f4.symbols_to_bytes([0x0A, 0x01]) == b"\x0a\x01"
    f12 = field_new(12)
    assert f12.symbol_bytes == 2
    assert f12.symbols_to_bytes([0xABC]) == b"\x0a\xbc"
    assert f12.bytes_to_symbols(b"\x0a\xbc\x00\x01") == [0xABC, 1]


def test_symbol_serialization_roundtrip():
    rng = random.Random(9)
    for m in (3, 8, 11, 16):
        f = field_new(m)
        symbols = [rng.randrange(f.order) for _ in range(50)]
        assert f.bytes_to_symbols(f.symbols_to_bytes(symbols)) == symbols


def test_symbol_deserialization_rejects_garbage():
    f = field_new(12)
    with pytest.raises(ValueError):
        f.bytes_to_symbols(b"\xff\xff")  # 0xFFFF >= 2^12
    with pytest.raises(ValueError):
        f.bytes_to_symbols(b"\x00")  # not a multiple of the symbol width


def test_fields_compare_by_degree():
    assert field_new(5) == field_new(5)
    assert field_new(5) != field_new(6)


def test_mul_vec_matches_scalar():
    """The table kernel against the brute-force oracle: exhaustive over
    (a, x) for m <= 8, sampled above; every input width gives field-width
    output."""
    np = pytest.importorskip("numpy")
    for m in range(3, 17):
        f = field_new(m)
        if m <= 8:
            coeffs = range(f.order)
            xs = np.arange(f.order)
            dtypes = (np.uint8, np.uint16, np.int32)
        else:
            rng = random.Random(m)
            coeffs = [0, 1, 2, f.order - 1] + [rng.randrange(3, f.order - 1) for _ in range(12)]
            edges = [0, 1, 0xFF, 0x100, f.order - 1]
            xs = np.array(edges + [rng.randrange(f.order) for _ in range(200)])
            dtypes = (np.uint16, np.int32)
        for a in coeffs:
            expected = [gf_mul_bruteforce(a, int(x), m) for x in xs]
            for dtype in dtypes:
                out = f.mul_vec(a, xs.astype(dtype))
                assert out.dtype == f.dtype, (m, dtype)
                assert out.tolist() == expected, (m, a, dtype)


def test_mat_mul_cols_matches_scalar(gf16):
    import numpy as np

    rng = random.Random(3)
    rows = [[rng.randrange(16) for _ in range(4)] for _ in range(3)]
    cols = np.array([[rng.randrange(16) for _ in range(7)] for _ in range(4)], dtype=np.int32)
    out = gf16.mat_mul_cols(rows, cols)
    for t in range(7):
        for r in range(3):
            acc = 0
            for c in range(4):
                acc ^= gf16.mul(rows[r][c], int(cols[c][t]))
            assert out[r][t] == acc
