"""Dense exact matrix algebra over GF(2^m).

Everything is elimination-based: rank decides nonsingularity, there is
no determinant code path.  Pivoting always takes the first nonzero
entry in column order, so results are deterministic.  Matrices are
value-semantic; operations return fresh objects and never mutate their
inputs.  Exhaustive searches over index subsets walk them as prefixes,
so that each prefix's elimination is shared by all of its extensions
(``first_dependent_subset``).
"""

from array import array
from functools import lru_cache
from itertools import combinations

from .errors import CapExceededError, SingularMatrixError
from .gf2m import Field


class Matrix:
    """Row-major dense matrix whose entries live in one Field."""

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field: Field, data: list[list[int]]):
        self.field = field
        self.rows = len(data)
        self.cols = len(data[0]) if data else 0
        for row in data:
            if len(row) != self.cols:
                raise ValueError("ragged rows")
            for v in row:
                field.check(v)
        self.data = [list(row) for row in data]

    @classmethod
    def derived(cls, field: Field, data: list[list[int]]) -> "Matrix":
        """A Matrix on fresh rows whose entries are field elements by
        construction: copied from validated matrices or computed by field
        operations.  They are taken as they are, neither checked nor copied."""
        out = cls.__new__(cls)
        out.field = field
        out.rows = len(data)
        out.cols = len(data[0]) if data else 0
        out.data = data
        return out

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> "Matrix":
        return cls.derived(field, [[0] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        return cls.derived(field, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def column(cls, field: Field, entries: list[int]) -> "Matrix":
        return cls(field, [[v] for v in entries])

    def get(self, i: int, j: int) -> int:
        return self.data[i][j]

    def row(self, i: int) -> list[int]:
        return list(self.data[i])

    def col(self, j: int) -> list[int]:
        return [row[j] for row in self.data]

    def column_vector(self) -> list[int]:
        if self.cols != 1:
            raise ValueError("not a column vector")
        return [row[0] for row in self.data]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and other.field == self.field
            and other.data == self.data
        )

    def __hash__(self):
        return hash((self.field, tuple(tuple(r) for r in self.data)))

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols} over GF(2^{self.field.m}))"


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if a.field != b.field:
        raise ValueError("field mismatch")
    if a.cols != b.rows:
        raise ValueError(f"dimension mismatch: {a.cols} vs {b.rows}")
    f = a.field
    out = [[0] * b.cols for _ in range(a.rows)]
    for i in range(a.rows):
        arow = a.data[i]
        orow = out[i]
        for k in range(a.cols):
            aik = arow[k]
            if aik == 0:
                continue
            brow = b.data[k]
            for j in range(b.cols):
                if brow[j]:
                    orow[j] ^= f.mul(aik, brow[j])
    return Matrix.derived(f, out)


def mat_vec(a: Matrix, v: list[int]) -> list[int]:
    """a times a column vector given as a plain list."""
    if a.cols != len(v):
        raise ValueError(f"dimension mismatch: {a.cols} vs {len(v)}")
    f = a.field
    out = [0] * a.rows
    for i in range(a.rows):
        acc = 0
        for k, aik in enumerate(a.data[i]):
            if aik and v[k]:
                acc ^= f.mul(aik, v[k])
        out[i] = acc
    return out


def transpose(a: Matrix) -> Matrix:
    return Matrix.derived(a.field, [[a.data[i][j] for i in range(a.rows)] for j in range(a.cols)])


def vstack(a: Matrix, b: Matrix) -> Matrix:
    if a.field != b.field:
        raise ValueError("field mismatch")
    if a.cols != b.cols:
        raise ValueError(f"column mismatch: {a.cols} vs {b.cols}")
    return Matrix.derived(a.field, [list(row) for row in a.data + b.data])


def submatrix(a: Matrix, row_idx, col_idx) -> Matrix:
    rows = list(row_idx)
    cols = list(col_idx)
    for i in rows:
        if not 0 <= i < a.rows:
            raise ValueError(f"row index {i} out of range")
    for j in cols:
        if not 0 <= j < a.cols:
            raise ValueError(f"column index {j} out of range")
    return Matrix.derived(a.field, [[a.data[i][j] for j in cols] for i in rows])


def cauchy(field: Field, row_points: list[int], col_points: list[int]) -> Matrix:
    """Matrix with entry (i, j) = 1/(row_points[i] + col_points[j]).

    Points must be pairwise distinct with no overlap between the two
    lists; in characteristic 2 that is exactly what keeps every sum
    nonzero, and it makes every square submatrix nonsingular.
    """
    if len(set(row_points)) != len(row_points):
        raise ValueError("duplicate row points")
    if len(set(col_points)) != len(col_points):
        raise ValueError("duplicate column points")
    overlap = set(row_points) & set(col_points)
    if overlap:
        raise ValueError(f"row/column point overlap: {sorted(overlap)}")
    for p in row_points + col_points:
        field.check(p)
    return Matrix.derived(
        field,
        [[field.inv(a ^ b) for b in col_points] for a in row_points],
    )


@lru_cache(maxsize=None)
def _log_tables(field: Field):
    """(log, exp) with exp doubled, so exp[log[a] + log[b]] = a * b for
    nonzero a, b without a modulo; log[0] is -1.  Fields of one degree
    are equal and share the tables."""
    return field.log_table, field.exp_table * 2


def _eliminate(field: Field, data: list[list[int]], col_limit: int | None = None):
    """In-place forward elimination; returns list of (row, pivot_col).

    Pivots are searched only in the first col_limit columns (all by
    default); row operations always span the full width.
    """
    log, exp = _log_tables(field)
    order = field.order - 1
    rows = len(data)
    cols = len(data[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols if col_limit is None else col_limit):
        piv = None
        for i in range(r, rows):
            if data[i][c]:
                piv = i
                break
        if piv is None:
            continue
        data[r], data[piv] = data[piv], data[r]
        inv_log = order - log[data[r][c]]
        if inv_log != order:  # pivot is not 1: scale the row by its inverse
            data[r] = [exp[log[v] + inv_log] if v else 0 for v in data[r]]
        prow = data[r]
        plog = [log[v] for v in prow]
        for i in range(rows):
            if i != r and data[i][c]:
                lf = log[data[i][c]]
                irow = data[i]
                for j in range(c, cols):
                    if prow[j]:
                        irow[j] ^= exp[lf + plog[j]]
        pivots.append((r, c))
        r += 1
        if r == rows:
            break
    return pivots


def rank(a: Matrix) -> int:
    data = [list(row) for row in a.data]
    return len(_eliminate(a.field, data))


def _clear_column(tables, pivot: list[int], col: int, vectors: list) -> list:
    """vectors with entry col cleared by adding multiples of pivot.

    pivot[col] must be nonzero.  Vectors already zero at col are passed
    through as the same objects; the others are fresh lists.
    """
    log, exp = tables
    order = len(exp) // 2
    shift = order - log[pivot[col]]  # scales pivot to 1 at col
    plog = [(log[x] + shift) % order if x else -1 for x in pivot]
    out = []
    for v in vectors:
        a = v[col]
        if a:
            la = log[a]
            v = [x ^ exp[la + lp] if lp >= 0 else x for x, lp in zip(v, plog)]
        out.append(v)
    return out


def reduce_modulo(field: Field, rows, modulus) -> list[array]:
    """Each row reduced modulo the row space of modulus, as a vector on the
    columns where modulus has no pivot.

    Rows are congruent modulo that space exactly when their reductions are
    equal, so a set of rows is independent modulo it exactly when the
    reductions are linearly independent.  The vectors are compact arrays of
    symbols, since an audit holds one set per node.
    """
    basis = [list(r) for r in modulus]
    pivots = _eliminate(field, basis)
    out = [list(r) for r in rows]
    tables = _log_tables(field)
    # basis is in reduced echelon form: clearing one pivot column leaves
    # the others untouched.
    for r, c in pivots:
        out = _clear_column(tables, basis[r], c, out)
    pivot_cols = {c for _, c in pivots}
    keep = [c for c in range(len(out[0]) if out else 0) if c not in pivot_cols]
    typecode = "B" if field.m <= 8 else "H"
    return [array(typecode, [v[c] for c in keep]) for v in out]


def first_dependent_subset(field: Field, groups, size: int):
    """The first index subset whose vectors are linearly dependent.

    groups holds one list of vectors per group, each indexed the same way.
    Subsets of ``size`` indices (0-based) are taken in lexicographic order
    and, for each, the groups in order.  Returns (visited, subset, group),
    where visited counts the (subset, group) pairs examined up to and
    including the hit, or (visited, None, None) if there is no hit.

    The walk is a depth-first search over prefixes.  Each group keeps the
    vectors after the prefix reduced modulo the prefix's span, so a pair
    costs one zero test and each extension of a prefix clears one column.
    The test is exact only when every proper prefix is independent, which
    holds when every (size-1)-subset is independent in every group; walk
    sizes in ascending order to establish it.  A dependent prefix raises
    AssertionError instead of being assumed away.
    """
    if size < 1:
        raise ValueError(f"subset size {size} must be at least 1")
    count = len(groups[0]) if groups else 0
    tables = _log_tables(field)
    visited = 0

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
                children.append(_clear_column(tables, pivot, col, state[offset + 1 :]))
            found = walk(prefix + (start + offset,), children)
            if found:
                return found
        return None

    found = walk((), list(groups))
    if found is None:
        return visited, None, None
    return visited, found[0], found[1]


def invert(a: Matrix) -> Matrix:
    if a.rows != a.cols:
        raise ValueError("only square matrices can be inverted")
    n = a.rows
    f = a.field
    aug = [a.data[i] + [1 if i == j else 0 for j in range(n)] for i in range(n)]
    pivots = _eliminate(f, aug, col_limit=n)
    if len(pivots) != n:
        raise SingularMatrixError(f"singular {n}x{n} matrix")
    return Matrix.derived(f, [row[n:] for row in aug])


def solve(a: Matrix, b: list[int]) -> list[int]:
    """One solution x of a*x = b (free variables set to zero)."""
    if len(b) != a.rows:
        raise ValueError(f"dimension mismatch: {a.rows} vs {len(b)}")
    f = a.field
    aug = [a.data[i] + [b[i]] for i in range(a.rows)]
    r = 0
    pivots = []
    for c in range(a.cols):
        piv = None
        for i in range(r, a.rows):
            if aug[i][c]:
                piv = i
                break
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv_p = f.inv(aug[r][c])
        if inv_p != 1:
            aug[r] = [f.mul(inv_p, v) for v in aug[r]]
        prow = aug[r]
        for i in range(a.rows):
            if i != r and aug[i][c]:
                fac = aug[i][c]
                irow = aug[i]
                for j in range(c, a.cols + 1):
                    if prow[j]:
                        irow[j] ^= f.mul(fac, prow[j])
        pivots.append((r, c))
        r += 1
        if r == a.rows:
            break
    for i in range(r, a.rows):
        if aug[i][a.cols]:
            raise ValueError("inconsistent system")
    x = [0] * a.cols
    for row_i, col_i in pivots:
        x[col_i] = aug[row_i][a.cols]
    return x


def null_space(a: Matrix) -> list[list[int]]:
    """Basis of the right null space, one vector per free column."""
    f = a.field
    data = [list(row) for row in a.data]
    pivots = _eliminate(f, data)
    pivot_cols = {c: r for r, c in pivots}
    free_cols = [c for c in range(a.cols) if c not in pivot_cols]
    basis = []
    for fc in free_cols:
        v = [0] * a.cols
        v[fc] = 1
        for r, c in pivots:
            v[c] = data[r][fc]  # xor-negation is identity in char 2
        basis.append(v)
    return basis


def count_square_submatrices(rows: int, cols: int, max_order: int) -> int:
    from math import comb

    return sum(comb(rows, s) * comb(cols, s) for s in range(1, max_order + 1))


def all_square_submatrices_nonsingular(a: Matrix, max_order: int, minor_cap: int = 10_000_000):
    """Exhaustively check every square submatrix of order <= max_order.

    Returns True, or the first offending (row_set, col_set) in
    size-ascending lexicographic order.  Exponential: guarded by
    minor_cap, meant for audits and tests, not for encoding paths.

    Each order is one walk over row sets that keeps, for every column
    set, the rows after the current row prefix reduced modulo the prefix;
    the prefix eliminations are shared by all column sets.  Orders are
    checked ascending, so every s-1 rows are independent on every s
    columns when order s is reached, as ``first_dependent_subset``
    requires.
    """
    if max_order > min(a.rows, a.cols):
        raise ValueError("max_order exceeds matrix dimensions")
    total = count_square_submatrices(a.rows, a.cols, max_order)
    if total > minor_cap:
        raise CapExceededError(f"{total} minors exceed cap {minor_cap}")
    for s in range(1, max_order + 1):
        csets = list(combinations(range(a.cols), s))
        groups = [[[row[c] for c in cset] for row in a.data] for cset in csets]
        _, rset, g = first_dependent_subset(a.field, groups, s)
        if rset is not None:
            return (rset, csets[g])
    return True
