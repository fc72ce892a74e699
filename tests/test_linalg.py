import random
from itertools import combinations

import numpy as np
import pytest

from conftest import random_matrix, random_nonsingular
from weavesafe import linalg
from weavesafe.errors import CapExceededError, SingularMatrixError
from weavesafe.gf2m import Field
from weavesafe.linalg import (
    Matrix,
    all_square_submatrices_nonsingular,
    cauchy,
    count_square_submatrices,
    first_dependent_subset,
    invert,
    quotient_stack,
    mat_vec,
    rank,
    submatrix,
    vstack,
)


def powers(field, point, count):
    """[1, point, point^2, ...], count entries, by repeated multiplication."""
    out = [1]
    while len(out) < count:
        out.append(field.mul(out[-1], point))
    return out[:count]


def zeros(field, rows, cols):
    return Matrix(field, [[0] * cols for _ in range(rows)])


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
    assert rank(zeros(gf16, 3, 3)) == 0
    assert rank(Matrix.identity(gf16, 4)) == 4
    row = [1, 5, 9]
    scaled = [gf16.mul(7, v) for v in row]
    assert rank(Matrix(gf16, [row, scaled])) == 1


def test_rank_equals_transpose_rank(gf16):
    rng = random.Random(0)
    for _ in range(25):
        a = random_matrix(gf16, rng.randrange(1, 6), rng.randrange(1, 6), rng)
        assert rank(a) == rank(Matrix(gf16, [list(col) for col in zip(*a.data)]))


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
        inverse = np.array(invert(a).data, dtype=gf16.dtype)
        assert gf16.mat_mul_cols(a.data, inverse).tolist() == Matrix.identity(gf16, 5).data


def test_invert_rejects_singular(gf16):
    with pytest.raises(SingularMatrixError):
        invert(zeros(gf16, 3, 3))
    with pytest.raises(ValueError):
        invert(zeros(gf16, 2, 3))


def reference_eliminate(field, data, col_limit=None):
    """linalg._eliminate as it was: the pivot row scaled as a whole, and
    every column of each target row tested against it."""
    log, exp = field.log_table, field.exp_table
    order = field.order - 1
    rows = len(data)
    cols = len(data[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols if col_limit is None else col_limit):
        piv = next((i for i in range(r, rows) if data[i][c]), None)
        if piv is None:
            continue
        data[r], data[piv] = data[piv], data[r]
        inv_log = order - log[data[r][c]]
        if inv_log != order:
            data[r] = [exp[log[v] + inv_log] for v in data[r]]
        prow = data[r]
        plog = [log[v] for v in prow]
        for i in range(rows):
            if i != r and data[i][c]:
                lf = log[data[i][c]]
                for j in range(c, cols):
                    if prow[j]:
                        data[i][j] ^= exp[lf + plog[j]]
        pivots.append((r, c))
        r += 1
        if r == rows:
            break
    return pivots


@pytest.mark.parametrize("m", [4, 8, 16])
def test_eliminate_matches_reference(m):
    """Same pivots and the same reduced rows, for rank-deficient and sparse
    matrices and for invert's column limit."""
    field = Field(m)
    rng = random.Random(60 + m)
    for _ in range(120):
        rows, cols = rng.randrange(0, 7), rng.randrange(1, 9)
        data = [
            [rng.randrange(1, field.order) if rng.random() < 0.5 else 0 for _ in range(cols)]
            for _ in range(rows)
        ]
        if rows >= 2 and rng.random() < 0.3:
            data[-1] = [field.mul(rng.randrange(1, field.order), v) for v in data[0]]
        limit = rng.choice([None, rng.randrange(0, cols + 1)])
        got, expected = [list(row) for row in data], [list(row) for row in data]
        assert linalg._eliminate(field, got, limit) == reference_eliminate(field, expected, limit)
        assert got == expected


def rank_case(field, rng, rows, cols, density, deficient):
    """A rows x cols matrix with entries nonzero at the given density; when
    deficient, each row after the first few is a combination of earlier rows."""
    def entry():
        return rng.randrange(1, field.order) if rng.random() < density else 0

    data = []
    for i in range(rows):
        if deficient and i >= 2 and rng.random() < 0.6:
            row = [0] * cols
            for src in rng.sample(data, rng.randrange(1, min(i, 3) + 1)):
                coeff = rng.randrange(1, field.order)
                row = [v ^ field.mul(coeff, s) for v, s in zip(row, src)]
            data.append(row)
        else:
            data.append([entry() for _ in range(cols)])
    return data


@pytest.mark.parametrize("m", [3, 4, 5, 8, 16])
def test_rank_matches_gauss_jordan_count(m):
    """rank's forward sweep counts the pivots that the Gauss-Jordan
    _eliminate finds, and leaves its argument's rows as they were: on
    random, sparse and rank-deficient matrices, all-zero ones, one row,
    one column, and wide and tall shapes."""
    field = Field(m)
    rng = random.Random(70 + m)
    shapes = [(1, 1), (1, 9), (9, 1), (0, 0)] + [(3, 40), (40, 3), (17, 115), (16, 16)]
    shapes += [(rng.randrange(1, 10), rng.randrange(1, 10)) for _ in range(150)]
    short = 0  # nonzero matrices of less than full rank
    for rows, cols in shapes:
        for density in (0.0, 0.15, 0.5, 1.0):
            for deficient in (False, True):
                data = rank_case(field, rng, rows, cols, density, deficient)
                a = Matrix(field, data) if data else Matrix.derived(field, [])
                before = [list(row) for row in a.data]
                expected = len(linalg._eliminate(field, [list(row) for row in data]))
                assert rank(a) == expected, (rows, cols, density, deficient, data)
                assert a.data == before
                if density == 0.0:
                    assert expected == 0
                short += 0 < expected < min(rows, cols)
    assert short >= 100


def test_solve_identity(gf16):
    """Solving a square system means applying its inverse, as
    reconstruct and repair do."""
    b = [3, 9, 14]
    assert mat_vec(invert(Matrix.identity(gf16, 3)), b) == b


def test_solve_verified_by_remultiplication(gf16):
    rng = random.Random(3)
    for _ in range(20):
        a = random_nonsingular(gf16, rng.randrange(2, 6), rng)
        x_true = [rng.randrange(16) for _ in range(a.cols)]
        b = mat_vec(a, x_true)
        x = mat_vec(invert(a), b)
        assert mat_vec(a, x) == b and x == x_true


def test_mat_mul_shapes_and_errors(gf16):
    a = Matrix(gf16, [[1, 2, 3]])
    assert mat_vec(a, [1, 0, 4]) == [gf16.mul(3, 4) ^ 1]
    assert gf16.mat_mul_cols(a.data, np.array([[1], [0], [4]])).tolist() == [[gf16.mul(3, 4) ^ 1]]
    with pytest.raises(ValueError):
        mat_vec(a, [1, 2])


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
    vand = Matrix(gf16, [powers(gf16, p, 4) for p in points])
    witness = all_square_submatrices_nonsingular(vand, 4)
    assert witness is not True
    rows, cols = witness
    assert rank(submatrix(vand, rows, cols)) < len(rows)


def test_minor_enumeration_cap():
    f = Field(4)
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
    """vstack, submatrix and invert build their results without checking
    entries again, on rows no input shares; the public constructor still
    checks every entry."""
    a = Matrix(gf8, [[1, 2], [3, 4]])
    b = Matrix(gf8, [[5, 6]])
    checks = []
    real = Field.check
    monkeypatch.setattr(Field, "check", lambda self, v: checks.append(v) or real(self, v))
    results = [vstack(a, b), submatrix(a, [1, 0], [1]), invert(a)]
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
    from weavesafe.pm_mbr import params_new
    from weavesafe.weaksec import _codes, make_codec

    p = params_new(20, 10, 16, 8)
    _codes.cache_clear()  # memoized codes would be reused unchecked
    checks = []
    real = Field.check
    monkeypatch.setattr(Field, "check", lambda self, v: checks.append(v) or real(self, v))
    make_codec(p)
    assert sorted(checks) == list(range(p.n + 2 * p.d))
    del checks[:]
    make_codec(p)
    assert checks == []
    make_codec(params_new(20, 10, 16, 8))  # an equal object, as each operation parses
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


def one_modulus(field, modulus, width) -> np.ndarray:
    """A modulus given as lists (possibly none), as a one-modulus stack."""
    return np.array(modulus, dtype=field.dtype).reshape(1, -1, width)


def reduce_modulo(field, rows, modulus) -> list:
    """rows reduced modulo one modulus' row space, as plain lists."""
    return quotient_stack(field, rows, one_modulus(field, modulus, len(rows[0])))[0].tolist()


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
    mix = random_matrix(gf16, 4, 3, rng)
    inside = gf16.mat_mul_cols(mix.data, np.array(modulus.data, dtype=gf16.dtype)).tolist()
    assert all(not any(v) for v in reduce_modulo(gf16, inside, modulus.data))
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


# -- the level-batched walk against the depth-first walk it replaced ------------


def reference_walk(field, groups, size):
    """first_dependent_subset as a depth-first walk, one prefix at a time:
    each group keeps the vectors after the prefix reduced modulo the
    prefix's span, and a push clears the pivot's first nonzero column from
    the later vectors with scalar field operations."""
    count = len(groups[0]) if groups else 0
    visited = 0

    def clear(pivot, col, vectors):
        scale = field.inv(pivot[col])
        return [
            [x ^ field.mul(field.mul(v[col], scale), p) for x, p in zip(v, pivot)]
            for v in vectors
        ]

    def walk(prefix, states):
        nonlocal visited
        start = prefix[-1] + 1 if prefix else 0
        if len(prefix) == size - 1:
            hits = []
            for g, state in enumerate(states):
                zero = next((o for o, v in enumerate(state) if not any(v)), None)
                if zero is not None:
                    hits.append((zero, g))
            if not hits:
                visited += (count - start) * len(states)
                return None
            offset, g = min(hits)
            visited += offset * len(states) + g + 1
            return prefix + (start + offset,), g
        for offset in range(count - start - (size - 1 - len(prefix))):
            children = []
            for g, state in enumerate(states):
                pivot = state[offset]
                col = next((c for c, x in enumerate(pivot) if x), None)
                if col is None:
                    raise AssertionError(
                        f"subset {prefix + (start + offset,)} is dependent in group {g}; "
                        f"smaller subsets must be walked before size {size}"
                    )
                children.append(clear(pivot, col, state[offset + 1 :]))
            found = walk(prefix + (start + offset,), children)
            if found:
                return found
        return None

    found = walk((), [[list(v) for v in g] for g in groups])
    return (visited, None, None) if found is None else (visited, found[0], found[1])


def walk_outcome(walk, field, groups, size):
    """walk's result, or the message of the AssertionError it raised."""
    try:
        return walk(field, groups, size)
    except AssertionError as exc:
        return str(exc)


def test_walk_matches_depth_first_walk_at_every_block_size(gf16, monkeypatch):
    """Random sparse groups, sizes walked out of order too, so dependent
    prefixes and hits come in both orders; every block budget from one
    child per block up gives the depth-first walk's result or message."""
    rng = random.Random(21)
    cases = []
    for _ in range(40):
        count, width = rng.randrange(1, 8), rng.randrange(1, 5)
        groups = [
            [[rng.choice((0, 0, 0, 1, rng.randrange(16))) for _ in range(width)] for _ in range(count)]
            for _ in range(rng.randrange(1, 4))
        ]
        for size in range(1, 5):
            cases.append((groups, size, walk_outcome(reference_walk, gf16, groups, size)))
    raised = sum(isinstance(expected, str) for _, _, expected in cases)
    hits = sum(isinstance(expected, tuple) and expected[1] is not None for _, _, expected in cases)
    assert raised > 20 and hits > 20
    for budget in (1, 40, 300, linalg._BLOCK_SYMBOLS):
        monkeypatch.setattr(linalg, "_BLOCK_SYMBOLS", budget)
        for groups, size, expected in cases:
            assert walk_outcome(first_dependent_subset, gf16, groups, size) == expected


def independent_vectors(field, count, width, rng):
    """count random vectors in which every width of them are independent
    (checked by rank), so the only dependencies are the ones planted."""
    while True:
        vectors = [[rng.randrange(1, field.order) for _ in range(width)] for _ in range(count)]
        if all(
            rank(Matrix(field, [vectors[i] for i in cand])) == width
            for cand in combinations(range(count), width)
        ):
            return vectors


@pytest.mark.parametrize(
    "where, planted",
    [("first", (0, 4, 8)), ("middle", (0, 5, 8)), ("last", (0, 6, 8)), ("last block", (6, 7, 8))],
)
def test_walk_hit_at_block_positions(monkeypatch, where, planted):
    """A planted dependent triple whose prefix is first, in the middle or
    last in its block of prefixes, or alone in the walk's last block.

    Nine vectors, two groups, width 3, size 3, and a budget of
    3 x 2 x 8 x 3 symbols.  A block of prefixes holds budget // (groups x
    vectors x width) of them, the vectors counted from the block's first
    possible next index: the root's children (i,) go two to a block
    (vectors from 0), and the children of [(0,), (1,)] three to a block
    (vectors from 1): [(0, 1), (0, 2), (0, 3)], [(0, 4), (0, 5), (0, 6)],
    [(0, 7), (1, 2), (1, 3)], ...  The root's last child (6,) has the one
    child (6, 7), the walk's last block."""
    f = Field(8)
    rng = random.Random(22)
    count, width, ngroups = 9, 3, 2
    a, b, c = planted
    while True:
        groups = [independent_vectors(f, count, width, rng) for _ in range(ngroups)]
        # in group 1 only, vector c joins the span of vectors a and b
        x, y = rng.randrange(1, f.order), rng.randrange(1, f.order)
        groups[1][c] = [f.mul(x, u) ^ f.mul(y, v) for u, v in zip(groups[1][a], groups[1][b])]
        expected = reference_walk(f, groups, 3)
        if expected[1:] == (planted, 1):  # no other triple fell dependent with it
            break
    monkeypatch.setattr(linalg, "_BLOCK_SYMBOLS", 3 * ngroups * (count - 1) * width)
    assert first_dependent_subset(f, groups, 3) == expected


def test_walk_tie_goes_to_the_lowest_group(gf8):
    """A subset dependent in groups 1 and 2 is reported in group 1, after
    groups 0 and 1 of it were examined."""
    rng = random.Random(23)
    groups = [independent_vectors(gf8, 5, 2, rng) for _ in range(3)]
    for g in (1, 2):
        groups[g][3] = [gf8.mul(g + 1, x) for x in groups[g][1]]
    pairs_before = list(combinations(range(5), 2)).index((1, 3))
    assert first_dependent_subset(gf8, groups, 2) == (pairs_before * 3 + 2, (1, 3), 1)
    assert reference_walk(gf8, groups, 2) == (pairs_before * 3 + 2, (1, 3), 1)


def test_walk_over_gf65536_with_zero_entries():
    """m = 16: the widest tables, the sentinel on zero entries, and the
    largest symbols, against one rank per (subset, group) pair."""
    f = Field(16)
    rng = random.Random(24)
    for _ in range(12):
        groups = [
            [[rng.choice((0, 0, 1, f.order - 1, rng.randrange(f.order))) for _ in range(3)] for _ in range(6)]
            for _ in range(rng.randrange(1, 4))
        ]
        for size in range(1, 5):
            expected = (0, None, None)
            for cand in combinations(range(6), size):
                for g, vectors in enumerate(groups):
                    expected = (expected[0] + 1, None, None)
                    if rank(Matrix(f, [vectors[i] for i in cand])) < size:
                        expected = (expected[0], cand, g)
                        break
                if expected[1] is not None:
                    break
            assert first_dependent_subset(f, groups, size) == expected
            if expected[1] is not None:
                break


def test_walk_dependent_prefix_against_a_hit_in_both_orders(gf8):
    """The walk raises for a dependent prefix only when a depth-first walk
    reaches it before the first hit."""
    rng = random.Random(25)
    vectors = independent_vectors(gf8, 6, 3, rng)
    late_prefix = [list(v) for v in vectors]
    late_prefix[2] = [gf8.mul(5, x) for x in vectors[1]]  # prefix (1, 2) dependent
    # the hit (0, 1, 2) comes before the push of (1, 2)
    assert reference_walk(gf8, [late_prefix], 3) == (1, (0, 1, 2), 0)
    assert first_dependent_subset(gf8, [late_prefix], 3) == (1, (0, 1, 2), 0)
    early_prefix = [list(v) for v in vectors]
    early_prefix[1] = [gf8.mul(5, x) for x in vectors[0]]  # prefix (0, 1) dependent
    message = r"subset \(0, 1\) is dependent in group 0"
    for walk in (reference_walk, first_dependent_subset):
        with pytest.raises(AssertionError, match=message):
            walk(gf8, [early_prefix], 3)


@pytest.mark.parametrize("budget", [1, 63, None])  # 3 x 7 = 21 symbols per modulus
def test_quotient_stack_matches_reduce_modulo_per_modulus(gf16, monkeypatch, budget):
    """One stacked reduction per modulus, zero-padded to the widest, with
    the moduli eliminated one modulus, three moduli or all moduli per
    block.  The moduli go in as one array, each padded with zero rows to
    the deepest."""
    rng = random.Random(26)
    rows = random_matrix(gf16, 5, 7, rng).data
    moduli = [random_matrix(gf16, rng.randrange(0, 4), 7, rng).data for _ in range(4)]
    moduli.append([[0] * 7, [1, 0, 0, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0, 0]])  # dependent rows
    padded = np.array([m + [[0] * 7] * (3 - len(m)) for m in moduli], dtype=gf16.dtype)
    if budget:
        monkeypatch.setattr(linalg, "_BLOCK_SYMBOLS", budget)
    stacked = quotient_stack(gf16, rows, padded)
    monkeypatch.undo()
    assert stacked.shape == (5, 5, max(7 - rank(Matrix(gf16, m)) if m else 7 for m in moduli))
    for e, modulus in enumerate(moduli):
        single = quotient_stack(gf16, rows, one_modulus(gf16, modulus, 7))[0]
        assert single.shape[1] == 7 - (rank(Matrix(gf16, modulus)) if modulus else 0)
        assert (stacked[e, :, : single.shape[1]] == single).all()
        assert not stacked[e, :, single.shape[1] :].any()


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
    vand = Matrix(gf16, [powers(gf16, p, 4) for p in points])
    assert all_square_submatrices_nonsingular(vand, 4) == reference_all_minors(vand, 4)
    assert offenders > 20
