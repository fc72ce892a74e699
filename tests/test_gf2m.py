import math
import random

import pytest

from conftest import gf_inv_bruteforce, gf_mul_bruteforce
from weavesafe.errors import ParameterError
from weavesafe import gf2m
from weavesafe.gf2m import CANONICAL_POLYS, Field


def test_canonical_polynomials_are_irreducible():
    """The generator's powers are every nonzero residue exactly once,
    which holds exactly when the polynomial is irreducible (see
    ``gf2m._tables``)."""
    for m in CANONICAL_POLYS:
        assert sorted(Field(m).exp_table[: 2**m - 1]) == list(range(1, 2**m)), f"m={m}"


def test_generator_is_the_smallest():
    """x generates every canonical field but GF(2^8), where it has order 51
    and 3 = x + 1 is the smallest generator."""
    for m in CANONICAL_POLYS:
        assert Field(m).exp_table[1] == (3 if m == 8 else 2), f"m={m}"
    assert 255 // math.gcd(Field(8).log_table[2], 255) == 51


@pytest.fixture
def planted_poly(monkeypatch):
    """Plant a reduction polynomial for m = 4; the table memos (the log/exp
    tables and the coefficient tables, which both depend on the
    polynomial) are cleared before and after, so no other test sees the
    planted tables."""

    def plant(poly):
        monkeypatch.setitem(CANONICAL_POLYS, 4, poly)
        gf2m._tables.cache_clear()
        gf2m._split_tables.cache_clear()

    yield plant
    gf2m._tables.cache_clear()
    gf2m._split_tables.cache_clear()


def test_reducible_polynomial_is_refused(planted_poly):
    planted_poly(0x11)  # x^4 + 1 = (x + 1)^4
    with pytest.raises(ParameterError, match="0x11 for m=4 is not irreducible"):
        Field(4)


def test_irreducible_non_primitive_polynomial_builds_a_field(planted_poly):
    planted_poly(0x1F)  # x^4 + x^3 + x^2 + x + 1: x has order 5
    f = Field(4)
    assert f.reduction_poly == 0x1F
    assert f.exp_table[1] == 3
    assert sorted(f.exp_table[: 2**4 - 1]) == list(range(1, 16))
    for a in range(16):
        for b in range(16):
            assert f.mul(a, b) == gf_mul_bruteforce(a, b, 4)
        if a:
            assert f.mul(a, f.inv(a)) == 1


def test_field_new_basics():
    f3 = Field(3)
    assert f3.order == 8
    assert f3.reduction_poly == 0b1011  # x^3 + x + 1
    assert Field(8).order == 256


@pytest.mark.parametrize("m", [2, 17, 0, -1])
def test_field_new_rejects_bad_degree(m):
    with pytest.raises(ParameterError):
        Field(m)


def test_add_is_self_inverse(gf8):
    """Field addition is xor, as every kernel accumulates it: the map
    [1 1] sends (a, a) to zero and (a, b) to a ^ b."""
    import numpy as np

    a = np.arange(gf8.order, dtype=gf8.dtype)
    assert gf8.mat_mul_cols([[1, 1]], np.stack([a, a])).tolist() == [[0] * gf8.order]
    b = a[::-1].copy()
    assert gf8.mat_mul_cols([[1, 1]], np.stack([a, b])).tolist() == [(a ^ b).tolist()]


def test_known_products_gf8(gf8):
    # frozen from the carry-less multiply-and-reduce oracle
    assert gf_mul_bruteforce(3, 3, 3) == 5
    assert gf8.mul(3, 3) == 5
    # frozen from exhaustive inverse search
    assert gf_inv_bruteforce(2, 3) == 5
    assert gf8.inv(2) == 5


@pytest.mark.parametrize("m", [3, 4, 8])
def test_table_multiply_matches_bruteforce(m):
    f = Field(m)
    for a in range(f.order):
        for b in range(f.order):
            assert f.mul(a, b) == gf_mul_bruteforce(a, b, m), (a, b)


@pytest.mark.parametrize("m", [3, 4])
def test_field_axioms_exhaustive(m):
    f = Field(m)
    els = range(f.order)
    for a in els:
        for b in els:
            assert f.mul(a, b) == f.mul(b, a)
            for c in els:
                assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
                assert f.mul(a, b ^ c) == f.mul(a, b) ^ f.mul(a, c)


@pytest.mark.parametrize("m", [8, 12, 16])
def test_field_axioms_random(m):
    f = Field(m)
    rng = random.Random(m)
    for _ in range(200):
        a, b, c = (rng.randrange(f.order) for _ in range(3))
        assert f.mul(a, b) == f.mul(b, a)
        assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
        assert f.mul(a, b ^ c) == f.mul(a, b) ^ f.mul(a, c)
        assert f.mul(a, b) == gf_mul_bruteforce(a, b, m)


@pytest.mark.parametrize("m", [3, 4, 8, 16])
def test_inverse_and_division(m):
    f = Field(m)
    rng = random.Random(m)
    sample = list(range(1, f.order)) if m <= 8 else [rng.randrange(1, f.order) for _ in range(300)]
    for a in sample:
        assert f.mul(a, f.inv(a)) == 1
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


def test_log_exp_tables_are_mutually_inverse():
    for m in (3, 4, 8):
        f = Field(m)
        for a in range(1, f.order):
            assert f.exp_table[f.log_table[a]] == a
        assert sorted(f.exp_table[: 2**m - 1]) == list(range(1, f.order))


def test_one_table_form_serves_field_and_eliminations():
    """Zero's log is the sentinel 2N and the exp table is the N powers
    twice, then 2N + 1 zeros, so any sum of two logs indexes the product.
    The doubled powers are the same int objects, and the Field holds
    exactly these tables as the arrays that linalg's batched update reads."""
    for m in (3, 8, 16):
        f = Field(m)
        n = f.order - 1
        assert f.log_table[0] == 2 * n and len(f.exp_table) == 4 * n + 1
        assert all(a is b for a, b in zip(f.exp_table[:n], f.exp_table[n : 2 * n]))
        assert f.exp_table[2 * n :] == [0] * (2 * n + 1)
        log, exp = f.log_array, f.exp_array
        assert exp.dtype == f.dtype
        assert log.tolist() == f.log_table and exp.tolist() == f.exp_table


def test_pow(gf16):
    """Powers through the tables: exp[e * log(a) mod (q-1)] is a multiplied
    by itself e times, the identity the eliminations' log arithmetic uses."""
    rng = random.Random(4)
    for _ in range(100):
        a = rng.randrange(1, 16)
        e = rng.randrange(10)
        expected = 1
        for _ in range(e):
            expected = gf16.mul(expected, a)
        assert gf16.exp_table[gf16.log_table[a] * e % 15] == expected


def test_check_rejects_out_of_range(gf8):
    with pytest.raises(ValueError):
        gf8.check(8)
    with pytest.raises(ValueError):
        gf8.check(-1)
    assert gf8.check(7) == 7


def test_fields_compare_by_degree():
    assert Field(5) == Field(5)
    assert Field(5) != Field(6)


def test_mul_vec_matches_scalar():
    """The table kernel against the brute-force oracle: exhaustive over
    (a, x) for m <= 8, sampled above; every input width gives field-width
    output."""
    np = pytest.importorskip("numpy")
    for m in range(3, 17):
        f = Field(m)
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


# -- bulk kernel: table path and bit-sliced path -----------------------------


def _product_oracle(m, rows, cols):
    """rows times cols, entry by entry through the brute-force multiply."""
    return [
        [
            _xor_all(gf_mul_bruteforce(a, int(cols[c][t]), m) for c, a in enumerate(row))
            for t in range(cols.shape[1])
        ]
        for row in rows
    ]


def _xor_all(values):
    acc = 0
    for v in values:
        acc ^= v
    return acc


def _spy_sliced(monkeypatch):
    """Record every bit-sliced call mat_mul_cols makes."""

    calls = []
    real = Field._mat_mul_sliced

    def spy(self, *args):
        calls.append(self.m)
        return real(self, *args)

    monkeypatch.setattr(Field, "_mat_mul_sliced", spy)
    return calls


def _dense_rows(f, rng, fanout, width):
    return [[rng.randrange(1, f.order) for _ in range(width)] for _ in range(fanout)]


@pytest.mark.parametrize("m", range(3, 17))
def test_mat_mul_cols_both_paths_match_bruteforce(m, monkeypatch):
    """A dense map at the threshold fan-out takes the bit-sliced path, one
    row fewer the table path; both equal the brute-force product and the
    scalar Field.mul, on every input width, with field-width output."""
    import numpy as np

    from weavesafe.gf2m import _SLICED_FANOUT

    f = Field(m)
    rng = random.Random(100 + m)
    lanes = 8 // f.dtype.itemsize
    calls = _spy_sliced(monkeypatch)
    threshold = _SLICED_FANOUT[m]
    for n in (0, 1, lanes - 1, lanes + 1, 3 * lanes + 5):
        cols = np.array([[rng.randrange(f.order) for _ in range(n)] for _ in range(3)]).reshape(3, n)
        for fanout, sliced in ((threshold, True), (threshold - 1, False)):
            rows = _dense_rows(f, rng, fanout, 3)
            expected = _product_oracle(m, rows, cols)
            for t in range(min(n, 2)):
                for r, row in enumerate(rows):
                    assert expected[r][t] == _xor_all(f.mul(a, int(cols[c][t])) for c, a in enumerate(row))
            for dtype in (np.uint8, np.uint16, np.int32) if m <= 8 else (np.uint16, np.int32):
                del calls[:]
                out = f.mat_mul_cols(rows, cols.astype(dtype))
                assert out.dtype == f.dtype and out.shape == (fanout, n)
                assert out.tolist() == expected, (m, n, fanout, dtype)
                assert bool(calls) == sliced, (m, n, fanout)


@pytest.mark.parametrize("m", [3, 5, 8, 11, 16])
def test_mat_mul_cols_zero_rows_and_columns(m, monkeypatch):
    import numpy as np

    from weavesafe.gf2m import _SLICED_FANOUT

    f = Field(m)
    rng = random.Random(200 + m)
    calls = _spy_sliced(monkeypatch)
    cols = np.array([[rng.randrange(f.order) for _ in range(21)] for _ in range(4)])
    for fanout in (_SLICED_FANOUT[m] + 1, 1):
        # column 1 is never used and row 0 is all zero
        rows = [[0, 0, 0, 0]] + [
            [rng.randrange(1, f.order), 0, rng.randrange(1, f.order), rng.randrange(1, f.order)]
            for _ in range(fanout)
        ]
        del calls[:]
        out = f.mat_mul_cols(rows, cols)
        assert bool(calls) == (fanout > 1)
        assert out.tolist() == _product_oracle(m, rows, cols)
    assert f.mat_mul_cols([[0] * 4] * 3, cols).tolist() == [[0] * 21] * 3
    assert f.mat_mul_cols([], cols).shape == (0, 21)
    assert f.mat_mul_cols([[], []], cols[:0]).tolist() == [[0] * 21] * 2


@pytest.mark.parametrize("m", [4, 8, 9, 16])
def test_mat_mul_cols_window_edges(m, monkeypatch):
    """Column counts one below, at and one above the bit-sliced window,
    under the shipped plane budget and under one that forces many windows;
    every column is checked against the table path and the boundary
    columns against the brute-force product."""
    import numpy as np

    from weavesafe import gf2m

    f = Field(m)
    rng = np.random.default_rng(m)
    py_rng = random.Random(m)
    lanes = 8 // f.dtype.itemsize
    calls = _spy_sliced(monkeypatch)
    rows = _dense_rows(f, py_rng, gf2m._SLICED_FANOUT[m] + 2, 3)
    for budget in (gf2m._PLANE_BYTES, 8 * 3 * m * 5):
        monkeypatch.setattr(gf2m, "_PLANE_BYTES", budget)
        window = budget // (8 * 3 * m) * lanes
        for n in (window - 1, window, window + 1, 2 * window + 3):
            cols = rng.integers(0, f.order, (3, n)).astype(f.dtype)
            del calls[:]
            out = f.mat_mul_cols(rows, cols)
            assert calls, (m, budget, n)
            table = np.vstack([f.mat_mul_cols(rows[i : i + 2], cols) for i in range(0, len(rows), 2)])
            assert len(calls) == 1  # pairs of rows stay below the threshold
            assert (out == table).all(), (m, budget, n)
            edges = sorted({0, 1, window - 1, window, n - 1} & set(range(n)))
            assert out[:, edges].tolist() == _product_oracle(m, rows, cols[:, edges])


@pytest.mark.parametrize("point", [(20, 10, 16, 8), (7, 4, 6, 5)])
def test_warm_bit_sliced_call_allocates_no_scratch(point, monkeypatch):
    """Once its thread has made one call, a bit-sliced mat_mul_cols call
    allocates its output and under 64 KiB besides: planes, carry, gather
    and reduce come from the thread's workspace.  The calls are those of a
    256 KiB file's inner encode and read, among them (20,10,16,8)'s inner
    encode and (7,4,6,5)'s read map."""
    import tracemalloc

    import numpy as np

    from weavesafe import make_codec, params_new
    from weavesafe.pm_mbr import encode_bulk

    p = params_new(*point)
    codec = make_codec(p)
    f = codec.field
    width = codec.inner.generator_stack.shape[1]
    n_chunks = -(-(1 << 18) * 8 // p.m // p.secure_symbols)
    codewords = np.random.default_rng(1).integers(0, f.order, (width, n_chunks)).astype(f.dtype)
    maps, real = [], Field.mat_mul_cols
    monkeypatch.setattr(Field, "mat_mul_cols", lambda self, rows, cols: maps.append((rows, cols)) or real(self, rows, cols))
    shares = encode_bulk(codec.inner, codewords)
    codec.outer.coset_decode_bulk(codec.inner, {e: shares[e] for e in range(1, p.k + 1)})
    monkeypatch.undo()
    calls = _spy_sliced(monkeypatch)
    for rows, cols in maps:
        del calls[:]
        f.mat_mul_cols(rows, cols)
        if not calls:
            continue
        tracemalloc.start()
        try:
            out = f.mat_mul_cols(rows, cols)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - out.nbytes < 64 << 10, (point, out.shape, peak - out.nbytes)
    assert calls, point
    assert len(maps[0][0]) == p.n * p.d and len(maps[-1][0]) == p.secure_symbols


def test_one_field_shared_by_threads(monkeypatch):
    """Three threads share one Field and apply their own maps, one
    bit-sliced and one on tables each, to inputs of their own widths, 200
    times, over windows small enough and a switch interval short enough
    that their calls interleave; every product equals the brute-force one."""
    import sys
    import threading

    import numpy as np

    f = Field(8)
    py_rng = random.Random(8)
    rng = np.random.default_rng(8)
    monkeypatch.setattr(gf2m, "_PLANE_BYTES", 8 * 6 * 8 * 16)  # 128 symbols a window
    calls = _spy_sliced(monkeypatch)
    jobs = []
    for width in (700, 900, 1100):
        cols = rng.integers(0, f.order, (6, width)).astype(f.dtype)
        maps = (_dense_rows(f, py_rng, gf2m._SLICED_FANOUT[8] + 3, 6), _dense_rows(f, py_rng, 2, 6))
        jobs.append([(rows, cols, _product_oracle(8, rows, cols)) for rows in maps])
    wrong = []

    def work(job):
        for _ in range(200):
            for rows, cols, expected in job:
                if f.mat_mul_cols(rows, cols).tolist() != expected:
                    wrong.append(len(rows))

    threads = [threading.Thread(target=work, args=(job,)) for job in jobs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not wrong
    assert len(calls) == len(jobs) * 200  # the dense maps alone are bit-sliced


# -- per-process memos of the kernel -------------------------------------------


@pytest.mark.parametrize("m", [5, 8, 12, 16])
def test_one_plan_per_map_whatever_the_column_count(m, monkeypatch):
    """A map builds one plan on either path, whatever the column count and
    the input dtype, and every result equals the brute-force product."""
    import numpy as np

    from weavesafe import gf2m

    f = Field(m)
    rng = random.Random(300 + m)
    np_rng = np.random.default_rng(300 + m)
    lanes = 8 // f.dtype.itemsize
    calls = _spy_sliced(monkeypatch)
    threshold = gf2m._SLICED_FANOUT[m]
    for fanout, sliced in ((threshold + 1, True), (threshold - 1, False)):
        rows = np.array(_dense_rows(f, rng, fanout, 3), dtype=f.dtype)
        window = gf2m._PLANE_BYTES // (8 * 3 * m) * lanes
        gf2m._plan.cache_clear()
        for n in (0, 1, lanes - 1, lanes + 1, window - 1, window + 1, 2 * window + 3):
            cols = np_rng.integers(0, f.order, (3, n)).astype(f.dtype)
            del calls[:]
            out = f.mat_mul_cols(rows, cols)
            assert bool(calls) == sliced, (m, n, fanout)
            edges = sorted({0, 1, lanes, window - 1, window, n - 1} & set(range(n)))
            assert out[:, edges].tolist() == _product_oracle(m, rows.tolist(), cols[:, edges])
            if n <= 2 * lanes:
                assert out.tolist() == _product_oracle(m, rows.tolist(), cols)
            assert (f.mat_mul_cols(rows.tolist(), cols.astype(np.int32)) == out).all()
        info = gf2m._plan.cache_info()
        assert (info.misses, info.currsize) == (1, 1), (m, fanout, info)


def test_plan_memo_stays_at_its_bound():
    """More distinct maps than the bound keep the memo at the bound, and an
    evicted map planned again gives the same product."""
    import numpy as np

    from weavesafe import gf2m

    f = Field(8)
    cols = np.arange(3 * 40, dtype=np.uint8).reshape(3, 40)
    gf2m._plan.cache_clear()
    first = f.mat_mul_cols([[1, 2, 3]] * 6, cols)
    for a in range(gf2m._PLAN_MEMO + 5):
        f.mat_mul_cols([[1 + a % 255, 1 + a // 255, 7]] * 6, cols)
        assert gf2m._plan.cache_info().currsize <= gf2m._PLAN_MEMO
    assert gf2m._plan.cache_info().currsize == gf2m._PLAN_MEMO
    assert (f.mat_mul_cols([[1, 2, 3]] * 6, cols) == first).all()
    assert gf2m._plan.cache_info().misses == gf2m._PLAN_MEMO + 7


def test_field_tables_are_shared_and_bounded():
    """Fields of one degree share their tables, and above m = 8 their
    coefficient tables; more coefficients than the bound keep that memo
    at the bound."""
    import numpy as np

    from weavesafe import gf2m

    for m in (5, 8, 16):
        a, b = Field(m), Field(m)
        assert a is not b
        assert a.exp_table is b.exp_table and a.log_table is b.log_table
        assert a.exp_array is b.exp_array and a.log_array is b.log_array
    gf2m._split_tables.cache_clear()
    a, b = Field(16), Field(16)
    xs = np.array([0, 1, 0xFF, 0x100, 0xFFFF], dtype=np.uint16)
    before = gf2m._split_tables.cache_info()
    assert a.mul_vec(0x1234, xs).tolist() == b.mul_vec(0x1234, xs).tolist()
    after = gf2m._split_tables.cache_info()
    assert (after.misses - before.misses, after.hits - before.hits) == (1, 1)
    fields = (Field(12), a)
    for c in range(1, gf2m._SPLIT_MEMO + 10):
        field = fields[c % 2]
        expected = [gf_mul_bruteforce(c % field.order, int(x) % field.order, field.m) for x in xs[:3]]
        if c % 509 == 0:
            assert field.mul_vec(c % field.order, xs[:3]).tolist() == expected
        else:
            field.mul_vec(c % field.order, xs[:3])
    assert gf2m._split_tables.cache_info().currsize == gf2m._SPLIT_MEMO
