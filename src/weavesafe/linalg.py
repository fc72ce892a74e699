"""Dense exact matrix algebra over GF(2^m).

Everything is elimination-based: rank decides nonsingularity, there is
no determinant code path.  Pivoting always takes the first nonzero
entry in column order, so results are deterministic.  Matrices are
value-semantic; operations return fresh objects and never mutate their
inputs.

The scalar side runs on Python lists.  ``rank`` runs a forward sweep:
each column's first remaining nonzero row pivots, and only the remaining
rows nonzero in that column are cleared, at the pivot row's nonzeros; no
row is scaled and none above a pivot is touched.  ``invert`` alone runs
the Gauss-Jordan ``_eliminate``, which scales each pivot row to 1 and
clears its column from every other row.  The codec build, the audit's
rank-formula oracle (``audit.leakage``) and its certificates are built on
these.  The audit engine runs on numpy instead, in two parts.
``quotient_stack`` eliminates every node's rows, as one (nodes x depth x
width) array, and then reduces the check rows modulo each node's basis
with one ``Field.mat_mul_cols`` product per pattern of pivot columns: the
bit-sliced GF kernel that the codecs use.  ``first_dependent_subset``
walks index subsets as prefixes, so that each prefix's elimination is
shared by all of its extensions.  Both eliminate with one row update,
``_clear``, on whole arrays: a pivot's first nonzero column is cleared
from many vectors with one gather from the exp table, indexed by sums of
logs.  Both sides index the tables that ``gf2m._tables`` builds
and the Field holds, the scalar side as lists and the engine as numpy
arrays; they share no elimination code.  Keeping the oracle on the
separate scalar path means that a fault in the batched update or in the
kernel cannot hide itself: the engine's verdicts are re-derived by code
it does not use.

Scratch is bounded by fixed budgets, whatever the number of subsets or
nodes.  ``_clear`` updates at most ``_BLOCK_SYMBOLS`` (2^16) symbols at a
time: the walk keeps the states of a block of prefixes, in lexicographic
order, as one (prefixes x groups x vectors x width) array and makes its
child states a block at a time, and ``quotient_stack`` eliminates its
moduli a block at a time, so both stay near 1 MiB.  The quotient's
products are as large as its output, and the kernel bounds its own
planes (``gf2m._PLANE_BYTES``).
"""

from itertools import combinations, compress, islice

import numpy as np

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
    def identity(cls, field: Field, n: int) -> "Matrix":
        return cls.derived(field, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and other.field == self.field
            and other.data == self.data
        )

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols} over GF(2^{self.field.m}))"


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


def _eliminate(field: Field, data: list[list[int]], col_limit: int | None = None):
    """In-place forward elimination; returns list of (row, pivot_col).

    Pivots are searched only in the first col_limit columns (all by
    default); row operations always span the full width.
    """
    log, exp = field.log_table, field.exp_table
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
        prow = data[r]
        inv_log = order - log[prow[c]]
        # The pivot row scaled to 1 at c, as (column, log) of its nonzeros.
        nonzero = [(j, (log[v] + inv_log) % order) for j, v in enumerate(prow) if v]
        for j, lv in nonzero:
            prow[j] = exp[lv]
        for i in range(rows):
            if i != r and data[i][c]:
                lf = log[data[i][c]]
                irow = data[i]
                for j, lv in nonzero:
                    irow[j] ^= exp[lf + lv]
        pivots.append((r, c))
        r += 1
        if r == rows:
            break
    return pivots


def rank(a: Matrix) -> int:
    """The rank of a, by a forward sweep over its columns.

    A column's pivot is the first remaining row that is nonzero there; it
    leaves the remaining rows and counts one.  Only when other remaining
    rows are nonzero in that column is the pivot row listed as (column,
    log) pairs, and those rows are cleared at its nonzeros.  No row is
    scaled to 1 and no row above a pivot is updated: a rank needs neither.
    A row is copied when it is updated, so a's rows are never changed.
    """
    log, exp = a.field.log_table, a.field.exp_table
    order = a.field.order - 1
    width = a.cols
    rows = [row for row in a.data if any(row)]
    found = 0
    for c in range(width):
        if not rows:
            break
        hits = [i for i, row in enumerate(rows) if row[c]]
        if not hits:
            continue
        found += 1
        prow = rows[hits[0]]
        if len(hits) > 1:
            lp = log[prow[c]]
            # Every remaining row is zero before c, so the pivot row is too.
            nonzero = [(j, log[prow[j]]) for j in compress(range(c, width), islice(prow, c, None))]
            for i in hits[1:]:
                irow = list(rows[i])
                lf = (log[irow[c]] - lp) % order
                for j, lv in nonzero:
                    irow[j] ^= exp[lf + lv]
                rows[i] = irow
        del rows[hits[0]]
    return found


# Most symbols one ``_clear`` updates: a block of walk states, or of the
# moduli in ``quotient_stack``.  Its scratch is about 8 + 3 bytes per
# symbol (the summed logs and the gathered products) on top of the block
# itself, so near 1 MiB.
_BLOCK_SYMBOLS = 1 << 16


def _clear(field: Field, vectors, pivots) -> None:
    """Clear, in place, the entry of each vector at its pivot's first
    nonzero column by adding that multiple of the pivot: one ``take`` from
    the field's exp array at a sum of logs multiplies, with no test for
    zero and no modulo.

    vectors is a C-contiguous array of shape (..., V, W), and pivots has
    shape (..., W): one pivot for each V vectors.  A zero pivot leaves its
    vectors unchanged: its inverse log is the sentinel, so each of its
    products lands in the zero tail.
    """
    log, exp = field.log_array, field.exp_array
    n = field.order - 1
    width = vectors.shape[-1]
    col = (pivots != 0).argmax(axis=-1)
    lead = pivots.reshape(-1).take(np.arange(0, pivots.size, width).reshape(col.shape) + col)
    inv = np.where(lead != 0, n - log.take(lead), 2 * n)[..., None]
    # The pivot scaled to 1 at its column, as logs (sentinel at zeros).
    lq = log.take(exp.take(log.take(pivots) + inv))
    rows = np.arange(0, vectors.size, width).reshape(vectors.shape[:-1])
    entries = vectors.reshape(-1).take(rows + col[..., None])  # (..., V)
    vectors ^= exp.take(log.take(entries)[..., None] + lq[..., None, :])


def _zero_rows(a) -> np.ndarray:
    """Which rows (last axis) of a C-contiguous array are all zero.

    The row bytes are read as 8, 4, 2 and 1-byte words and or-ed
    together: a few strided passes instead of a reduction over a short
    axis."""
    raw = a.view(np.uint8)
    acc = np.zeros(raw.shape[:-1], dtype=np.uint64)
    pos = 0
    for word in (8, 4, 2, 1):
        while raw.shape[-1] - pos >= word:
            acc |= raw[..., pos : pos + word].view(f"u{word}")[..., 0]
            pos += word
    return acc == 0


def quotient_stack(field: Field, rows, moduli: np.ndarray) -> np.ndarray:
    """rows reduced modulo the row space of each modulus, stacked.

    moduli is one (moduli x depth x width) array; a modulus with fewer
    rows is padded with zero rows, which span nothing.  Returns an array
    of native dtype, shape (moduli x rows x width): entry e holds each row
    reduced modulo rowspace(moduli[e]), on the columns where that modulus
    has no pivot, zero-padded to the widest quotient.
    Rows are congruent modulo a row space exactly when their reductions
    are equal, so a set of rows is independent modulo it exactly when the
    reductions are linearly independent.

    Only the moduli are eliminated.  Each modulus row in turn becomes a
    pivot at its first nonzero column, and ``_clear`` removes that column
    from every other row of its modulus, for as many moduli at once as
    ``_BLOCK_SYMBOLS`` allows; a modulus row that reduces to zero is
    dependent on the earlier ones and pivots nothing.  Each basis row is
    then scaled to 1 at its pivot, so on its pivot columns P a basis is
    the identity, and the remainder of rows on the other columns is
    rows + rows[:, P] * basis.  Moduli with the same pivots share one
    ``Field.mat_mul_cols`` call over their bases side by side.
    """
    count = len(rows)
    if not count or not moduli.shape[-1]:
        return np.zeros((len(moduli), count, 0), dtype=field.dtype)
    rows = np.asarray(rows, dtype=field.dtype)
    basis = np.array(moduli, dtype=field.dtype)
    total, depth, width = basis.shape
    step = max(1, _BLOCK_SYMBOLS // max(1, depth * width))
    for r in range(depth):
        for lo in range(0, total, step):
            block = basis[lo : lo + step]
            pivot = block[:, r].copy()
            _clear(field, block, pivot)  # which clears the pivot row too
            block[:, r] = pivot
    # A basis row keeps its first nonzero column, its pivot, from its own
    # step on: a later pivot row is zero there and before its own pivot.
    nonzero = basis != 0
    pivots = np.where(nonzero.any(axis=-1), nonzero.argmax(axis=-1), -1)
    pivoting = np.nonzero(pivots >= 0)
    log, exp = field.log_array, field.exp_array
    inv = field.order - 1 - log.take(basis[pivoting + (pivots[pivoting],)])
    basis[pivoting] = exp.take(log.take(basis[pivoting]) + inv[:, None])  # 1 at each pivot

    groups = {}
    for e, key in enumerate(map(tuple, pivots.tolist())):
        groups.setdefault(key, []).append(e)
    kept = width - (pivots >= 0).sum(axis=1)
    out = np.zeros((total, count, int(kept.max(initial=0))), dtype=field.dtype)
    for key, members in groups.items():
        live = [r for r, c in enumerate(key) if c >= 0]
        cols = [key[r] for r in live]
        free = np.ones(width, dtype=bool)
        free[cols] = False
        quotient = np.repeat(rows[:, None, free], len(members), axis=1)  # (rows, moduli, kept)
        if cols:
            side_by_side = basis[np.ix_(members, live, free)].transpose(1, 0, 2)
            products = field.mat_mul_cols(rows[:, cols], side_by_side.reshape(len(cols), -1))
            quotient ^= products.reshape(quotient.shape)
        out[members, :, : quotient.shape[2]] = quotient.transpose(1, 0, 2)
    return out


def first_dependent_subset(field: Field, groups, size: int):
    """The first index subset whose vectors are linearly dependent.

    groups holds one list of vectors per group, each indexed the same way
    and all of one width, or one (groups x vectors x width) array.
    Subsets of ``size`` indices (0-based) are taken in lexicographic order
    and, for each, the groups in order.  Returns (visited, subset, group),
    where visited counts the (subset, group) pairs examined up to and
    including the hit, or (visited, None, None) if there is no hit.

    The walk goes over prefixes level by level, a block at a time.  A
    prefix's state is every group's vectors reduced modulo the span of
    the prefix's vectors, so a pair costs one zero test.  A block holds
    the states of prefixes of one length, in lexicographic order, as one
    (prefixes x groups x vectors x width) array over the vectors from the
    block's first possible next index on; entries at or before a
    prefix's own last index are dead and masked.  A push makes each
    child prefix's state from its parent's with one ``_clear`` (one
    gather per symbol).  A leaf block's zero test is read in (prefix,
    next index, group) order, which is the order of the checks.  Children
    are made at most ``_BLOCK_SYMBOLS`` symbols at a time and walked
    depth first, so scratch stays bounded and a hit ends the walk within
    one block.

    The test is exact only when every proper prefix is independent, which
    holds when every (size-1)-subset is independent in every group; walk
    sizes in ascending order to establish it.  A dependent prefix raises
    AssertionError instead of being assumed away, exactly when a
    depth-first walk would reach it before the first hit.
    """
    if size < 1:
        raise ValueError(f"subset size {size} must be at least 1")
    vectors = np.ascontiguousarray(groups, dtype=field.dtype)
    if vectors.ndim != 3 or 0 in vectors.shape[:2]:  # no groups, or no vectors
        return 0, None, None
    ngroups, count, width = vectors.shape
    visited = 0

    def leaf(prefixes, last, start, states):
        nonlocal visited
        nexts = np.arange(start, count)
        zero = _zero_rows(states)  # (prefixes, groups, next)
        zero &= (nexts > last[:, None])[:, None, :]
        per_prefix = (count - 1 - last) * ngroups
        if not zero.any():
            visited += int(per_prefix.sum())
            return None
        order = zero.transpose(0, 2, 1)  # (prefix, next index, group): the check order
        k, j, g = np.unravel_index(order.argmax(), order.shape)
        visited += int(per_prefix[:k].sum()) + (int(nexts[j] - last[k]) - 1) * ngroups + int(g) + 1
        return tuple(map(int, prefixes[k])) + (int(nexts[j]),), int(g)

    def walk(prefixes, last, start, states):
        """prefixes (K x length) in lexicographic order, their last indices,
        and their states over the vectors start .. count-1."""
        length = prefixes.shape[1]
        if length == size - 1:
            return leaf(prefixes, last, start, states)
        # Child i of a prefix needs size-1-length more indices after it.
        stop = count - (size - 1 - length)
        branches = np.maximum(stop - 1 - last, 0)
        parent = np.repeat(np.arange(len(last)), branches)
        nexts = np.arange(len(parent)) - np.repeat(np.cumsum(branches) - branches, branches)
        nexts += last[parent] + 1
        step = max(1, _BLOCK_SYMBOLS // max(1, ngroups * (count - start) * width))
        for lo in range(0, len(parent), step):
            par, idx = parent[lo : lo + step], nexts[lo : lo + step]
            pivots = states[par, :, idx - start]  # (children, groups, width)
            dead = _zero_rows(pivots)
            any_dead = dead.any()
            if any_dead:  # walk the children before the first dependent one
                c, g = np.unravel_index(dead.argmax(), dead.shape)
                par, idx, pivots = par[:c], idx[:c], pivots[:c]
            if len(par):
                head = int(idx.min()) + 1
                children = states[par, :, head - start :]
                _clear(field, children, pivots)
                found = walk(np.column_stack([prefixes[par], idx]), idx, head, children)
                if found:
                    return found
            if any_dead:
                subset = tuple(map(int, prefixes[parent[lo + c]])) + (int(nexts[lo + c]),)
                raise AssertionError(
                    f"subset {subset} is dependent in group {int(g)}; "
                    f"smaller subsets must be walked before size {size}"
                )
        return None

    found = walk(np.zeros((1, 0), dtype=np.intp), np.array([-1]), 0, vectors[None])
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
    data = np.array(a.data, dtype=a.field.dtype).reshape(a.rows, a.cols)
    for s in range(1, max_order + 1):
        csets = list(combinations(range(a.cols), s))
        groups = data[:, csets].transpose(1, 0, 2)  # (column sets, rows, s)
        _, rset, g = first_dependent_subset(a.field, groups, s)
        if rset is not None:
            return (rset, csets[g])
    return True
