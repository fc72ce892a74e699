import random
from itertools import combinations

import pytest

from conftest import random_matrix, random_nonsingular
from weavesafe.errors import CapExceededError, SingularMatrixError
from weavesafe.gf2m import field_new
from weavesafe.linalg import (
    Matrix,
    all_square_submatrices_nonsingular,
    cauchy,
    count_square_submatrices,
    first_dependent_subset,
    invert,
    mat_mul,
    mat_vec,
    null_space,
    rank,
    reduce_modulo,
    solve,
    submatrix,
    transpose,
    vstack,
)


def test_cauchy_one_by_one(gf8):
    # 1 + 2 = 3 in GF(8); the inverse of 3 was pinned by exhaustive search
    assert cauchy(gf8, [1], [2]).data == [[6]]


def test_cauchy_rejects_bad_points(gf8):
    with pytest.raises(ValueError):
        cauchy(gf8, [1, 2], [1, 3])  # overlap
    with pytest.raises(ValueError):
        cauchy(gf8, [1, 1], [2, 3])  # duplicate rows
    with pytest.raises(ValueError):
        cauchy(gf8, [1], [2, 2])  # duplicate cols


def test_cauchy_entries_nonzero(gf16):
    mat = cauchy(gf16, list(range(9)), list(range(9, 13)))
    assert mat.rows == 9 and mat.cols == 4
    assert all(v != 0 for row in mat.data for v in row)


def test_rank_basics(gf16):
    assert rank(Matrix.zeros(gf16, 3, 3)) == 0
    assert rank(Matrix.identity(gf16, 4)) == 4
    row = [1, 5, 9]
    scaled = [gf16.mul(7, v) for v in row]
    assert rank(Matrix(gf16, [row, scaled])) == 1


def test_rank_equals_transpose_rank(gf16):
    rng = random.Random(0)
    for _ in range(25):
        a = random_matrix(gf16, rng.randrange(1, 6), rng.randrange(1, 6), rng)
        assert rank(a) == rank(transpose(a))


def test_rank_subadditive_under_vstack(gf16):
    rng = random.Random(1)
    for _ in range(25):
        cols = rng.randrange(1, 6)
        a = random_matrix(gf16, rng.randrange(1, 4), cols, rng)
        b = random_matrix(gf16, rng.randrange(1, 4), cols, rng)
        assert rank(vstack(a, b)) <= rank(a) + rank(b)
        assert rank(vstack(a, b)) >= max(rank(a), rank(b))


def test_invert_identity(gf16):
    eye = Matrix.identity(gf16, 5)
    assert invert(eye) == eye


def test_invert_random_nonsingular(gf16):
    rng = random.Random(2)
    for _ in range(10):
        a = random_nonsingular(gf16, 5, rng)
        assert mat_mul(a, invert(a)) == Matrix.identity(gf16, 5)


def test_invert_rejects_singular(gf16):
    with pytest.raises(SingularMatrixError):
        invert(Matrix.zeros(gf16, 3, 3))
    with pytest.raises(ValueError):
        invert(Matrix.zeros(gf16, 2, 3))


def test_solve_identity(gf16):
    b = [3, 9, 14]
    assert solve(Matrix.identity(gf16, 3), b) == b


def test_solve_verified_by_remultiplication(gf16):
    rng = random.Random(3)
    for _ in range(20):
        a = random_matrix(gf16, 4, rng.randrange(2, 6), rng)
        x_true = [rng.randrange(16) for _ in range(a.cols)]
        b = mat_vec(a, x_true)
        x = solve(a, b)
        assert mat_vec(a, x) == b


def test_solve_detects_inconsistency(gf16):
    a = Matrix(gf16, [[1, 2], [1, 2]])
    with pytest.raises(ValueError, match="inconsistent"):
        solve(a, [1, 2])


def test_mat_mul_shapes_and_errors(gf16):
    a = Matrix(gf16, [[1, 2, 3]])
    b = Matrix(gf16, [[1], [0], [4]])
    assert mat_mul(a, b).data == [[gf16.mul(3, 4) ^ 1]]
    with pytest.raises(ValueError):
        mat_mul(a, a)


def test_vstack_and_submatrix(gf16):
    a = Matrix(gf16, [[1, 2], [3, 4]])
    b = Matrix(gf16, [[5, 6]])
    stacked = vstack(a, b)
    assert stacked.data == [[1, 2], [3, 4], [5, 6]]
    assert submatrix(stacked, [0, 2], [1]).data == [[2], [6]]
    with pytest.raises(ValueError):
        submatrix(a, [2], [0])
    with pytest.raises(ValueError):
        vstack(a, Matrix(gf16, [[1, 2, 3]]))


def test_null_space(gf16):
    rng = random.Random(4)
    for _ in range(20):
        a = random_matrix(gf16, 3, 5, rng)
        basis = null_space(a)
        assert len(basis) == a.cols - rank(a)
        for v in basis:
            assert mat_vec(a, v) == [0, 0, 0]


def test_all_minors_nonsingular_for_cauchy(gf16):
    mat = cauchy(gf16, list(range(6)), list(range(6, 12)))
    assert all_square_submatrices_nonsingular(mat, 6) is True


def test_all_minors_flags_zero_entry(gf16):
    mat = Matrix(gf16, [[1, 2], [3, 0]])
    assert all_square_submatrices_nonsingular(mat, 2) == ((1,), (1,))


def test_vandermonde_can_contain_singular_minors(gf16):
    # rows are powers of the point: the classic construction that is good
    # enough for plain MBR encoding but not for the stacked requirement;
    # nonzero points so the failure is a genuine >= 2x2 minor
    points = list(range(1, 10))
    vand = Matrix(gf16, [[gf16.pow(p, j) for j in range(4)] for p in points])
    witness = all_square_submatrices_nonsingular(vand, 4)
    assert witness is not True
    rows, cols = witness
    assert rank(submatrix(vand, rows, cols)) < len(rows)


def test_minor_enumeration_cap():
    f = field_new(4)
    mat = cauchy(f, list(range(8)), list(range(8, 16)))
    assert count_square_submatrices(8, 8, 8) == 12869
    with pytest.raises(CapExceededError):
        all_square_submatrices_nonsingular(mat, 8, minor_cap=100)


def test_matrix_validation(gf8):
    with pytest.raises(ValueError):
        Matrix(gf8, [[1, 2], [3]])
    with pytest.raises(ValueError):
        Matrix(gf8, [[9]])


def test_derived_matrices_are_fresh_and_skip_validation(gf8, monkeypatch):
    """vstack, submatrix, transpose, mat_mul and invert build their results
    without checking entries again, on rows no input shares; the public
    constructor still checks every entry."""
    from weavesafe.gf2m import Field

    a = Matrix(gf8, [[1, 2], [3, 4]])
    b = Matrix(gf8, [[5, 6]])
    checks = []
    real = Field.check
    monkeypatch.setattr(Field, "check", lambda self, v: checks.append(v) or real(self, v))
    results = [vstack(a, b), submatrix(a, [1, 0], [1]), transpose(a), mat_mul(a, a), invert(a)]
    assert checks == []
    for out in results:
        for row in out.data:
            row[0] ^= 1
    assert a.data == [[1, 2], [3, 4]] and b.data == [[5, 6]]
    Matrix(gf8, [[1, 2]])
    assert checks == [1, 2]


def test_codec_build_checks_only_the_cauchy_points(monkeypatch):
    """A codec build validates the Cauchy points it is given; every matrix
    derived from the stack is built without checking its entries again."""
    from weavesafe.gf2m import Field
    from weavesafe.pm_mbr import params_new
    from weavesafe.weaksec import codec_plan, make_codec

    p = params_new(20, 10, 16, 8)
    codec_plan.cache_clear()  # a derived plan would be reused unchecked
    checks = []
    real = Field.check
    monkeypatch.setattr(Field, "check", lambda self, v: checks.append(v) or real(self, v))
    make_codec(p)
    assert sorted(checks) == list(range(p.n + 2 * p.d))
    del checks[:]
    make_codec(p)
    assert checks == []


# -- quotient reduction and the prefix walk ------------------------------------


def reference_all_minors(a, max_order):
    """The all-minors check as first written: one rank per (rows, cols) pair."""
    for s in range(1, max_order + 1):
        for rset in combinations(range(a.rows), s):
            for cset in combinations(range(a.cols), s):
                if rank(submatrix(a, rset, cset)) < s:
                    return (rset, cset)
    return True


def test_reduce_modulo_keeps_rank_over_the_quotient(gf16):
    rng = random.Random(11)
    for _ in range(40):
        modulus = random_matrix(gf16, rng.randrange(0, 5), 7, rng)
        rows = random_matrix(gf16, rng.randrange(1, 5), 7, rng)
        reduced = reduce_modulo(gf16, rows.data, modulus.data)
        assert all(len(v) == 7 - rank(modulus) for v in reduced)
        quotient_rank = rank(Matrix(gf16, reduced)) if reduced[0] else 0
        assert quotient_rank == rank(Matrix(gf16, rows.data + modulus.data)) - rank(modulus)


def test_reduce_modulo_zero_exactly_on_the_row_space(gf16):
    rng = random.Random(12)
    modulus = random_matrix(gf16, 3, 6, rng)
    inside = mat_mul(random_matrix(gf16, 4, 3, rng), modulus)
    assert all(not any(v) for v in reduce_modulo(gf16, inside.data, modulus.data))
    outside = Matrix(gf16, [[0, 0, 0, 0, 0, 1]])
    if rank(vstack(modulus, outside)) > 3:
        assert any(reduce_modulo(gf16, outside.data, modulus.data)[0])


def test_first_dependent_subset_matches_ranks(gf8):
    """Walked in ascending sizes, the first hit and the count of examined
    (subset, group) pairs agree with one rank per pair."""
    rng = random.Random(13)
    for _ in range(30):
        groups = [
            [[rng.choice((0, 0, 1, rng.randrange(8))) for _ in range(4)] for _ in range(6)]
            for _ in range(rng.randrange(1, 4))
        ]
        for size in range(1, 5):
            visited, subset, group = first_dependent_subset(gf8, groups, size)
            expected = (0, None, None)
            for cand in combinations(range(6), size):
                for g, vectors in enumerate(groups):
                    expected = (expected[0] + 1, None, None)
                    if rank(Matrix(gf8, [vectors[i] for i in cand])) < size:
                        expected = (expected[0], cand, g)
                        break
                if expected[1] is not None:
                    break
            assert (visited, subset, group) == expected
            if subset is not None:
                break


def test_first_dependent_subset_refuses_a_dependent_prefix(gf8):
    vectors = [[0, 0], [1, 0], [0, 1]]  # index 0 alone is dependent
    with pytest.raises(AssertionError, match=r"subset \(0,\) is dependent"):
        first_dependent_subset(gf8, [vectors], 2)
    assert first_dependent_subset(gf8, [vectors], 1) == (1, (0,), 0)


def test_all_minors_matches_reference_first_offender(gf16):
    rng = random.Random(14)
    offenders = 0
    for _ in range(60):
        rows, cols = rng.randrange(1, 6), rng.randrange(1, 6)
        mat = Matrix(gf16, [[rng.choice((0, 1, 2, rng.randrange(16))) for _ in range(cols)] for _ in range(rows)])
        order = rng.randrange(1, min(rows, cols) + 1)
        expected = reference_all_minors(mat, order)
        assert all_square_submatrices_nonsingular(mat, order) == expected
        offenders += expected is not True
    points = list(range(1, 10))
    vand = Matrix(gf16, [[gf16.pow(p, j) for j in range(4)] for p in points])
    assert all_square_submatrices_nonsingular(vand, 4) == reference_all_minors(vand, 4)
    assert offenders > 20
