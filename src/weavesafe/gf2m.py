"""Arithmetic in the binary extension field GF(2^m) for 3 <= m <= 16.

Field elements are plain Python ints in [0, 2^m); the binary digits of
an int are the coefficients of a polynomial over GF(2), reduced modulo
a fixed irreducible polynomial per degree.  Working with bare ints plus
a Field context (rather than wrapper objects) keeps hot loops cheap.

Canonical reduction polynomials (one per degree, never change: shares
written with one build must decode with any other):

    m=3  : x^3 + x + 1                      0xB
    m=4  : x^4 + x + 1                      0x13
    m=5  : x^5 + x^2 + 1                    0x25
    m=6  : x^6 + x + 1                      0x43
    m=7  : x^7 + x^3 + 1                    0x89
    m=8  : x^8 + x^4 + x^3 + x + 1          0x11B
    m=9  : x^9 + x^4 + 1                    0x211
    m=10 : x^10 + x^3 + 1                   0x409
    m=11 : x^11 + x^2 + 1                   0x805
    m=12 : x^12 + x^6 + x^4 + x + 1         0x1053
    m=13 : x^13 + x^4 + x^3 + x + 1         0x201B
    m=14 : x^14 + x^10 + x^6 + x + 1        0x4443
    m=15 : x^15 + x + 1                     0x8003
    m=16 : x^16 + x^12 + x^3 + x + 1        0x1100B

Scalar multiplication and inversion go through exp/log tables built on
the smallest multiplicative generator: 2 (the residue x) for every m but
8, where x has order 51 and the generator is 3.  Finding it also proves
the polynomial irreducible.  ``_tables`` is the one place the log/exp
tables are built, in the one form that the Field and both eliminations in
``linalg`` index, as lists and as numpy arrays.
Addition is xor; in characteristic 2 every element is its own negative,
so a + b = 0 exactly when a = b.

Bulk multiplication (``mul_vec``, ``mat_mul_cols``) works on numpy arrays
of symbols at native width: uint8 for m <= 8, uint16 above.  It has three
paths, the first two from Plank, Greenan and Miller ("Screaming Fast
Galois Field Arithmetic Using Intel SIMD Instructions", FAST 2013):

* Table path: the coefficient's product tables, built on first use,
  are gathered from once per nonzero coefficient, xor-accumulated per
  row.  For m <= 8 one table covers the whole field, so a product is one
  gather; above that the coefficient has a low-byte and a high-byte
  uint16 table, whose two lookups are xored.  Multiplication by a fixed
  coefficient is linear over GF(2), so every table is the xor span of
  the coefficient times x^i.  ``mul_vec`` is always this path.
* Bit-sliced path (their "BYTWO" region multiply on 64-bit words): a
  window of each used column is viewed as uint64 words of 8 (m <= 8) or
  4 (m > 8) symbol lanes and expanded once into its m planes x^i * column
  by a lane-wise xtime (shift left, clear the bit that left each lane,
  xor the reduction polynomial into the lanes whose top bit was set).
  Row r of the product is the xor of the planes picked by the set bits of
  its coefficients.  A batch of up to eight rows takes one gather a window,
  plane-major (picks x rows x words), and one ``np.bitwise_xor.reduce``
  over its leading axis, whose inner loop so spans all its rows: 1.4 to
  1.8 times as fast in narrow windows (76 to 106 words a plane for the
  read map and inner encode at (20,10,16,8)).  A window holds
  ``_PLANE_BYTES`` of its N planes and ``_row_batches`` keeps a gather
  within N planes, so the planes, carry, gather and reduce take at most
  (2 + 9/N) ``_PLANE_BYTES`` (2.5 from N = 18) of one workspace per thread,
  never an output, kept across calls lest glibc trim it and ops fault it in.
* Fan-in path: the bit-sliced path turned round, expanding the outputs.
  The used columns are staged raw in the same window loop and workspace;
  for each row r and bit i, S_{r,i} is the xor of the columns whose
  coefficient in row r has bit i set, and the row is finished by Horner's
  rule, acc = x * acc + S_{r,i} for i from m-1 down to 0, with the same
  xtime.  So the m-1 xtimes are per row, not per column.  Each S is
  xored up in place, one ufunc per column picked: a padded gather and
  reduce copies m times the widest bit's picks (1 x 16 at m = 8 over 148k
  columns: 2.6 against 1.1 ms).  A window holds ``_PLANE_BYTES`` of the
  whole workspace: the staged columns, a zero plane, a carry and m sums.

``mat_mul_cols`` picks the path per map from the nonzeros per used
column (the fan-out f: how many coefficients each expanded column feeds),
the nonzeros per row that has any (the width w) and m, and for fan-in
maps per call from the column count n.  The expansion costs m-1 xtimes
per column and each coefficient about m/2 plane xors, against one gather
(two above m = 8) per coefficient on the table path, so the bit-sliced
path wins once f is large enough, later for larger m; fan-in pays m-1
xtimes per row instead, so it wins on few rows once w is large enough,
but its fixed cost a call (m-1 Horner steps of seven ufuncs per row and
one ufunc per picked column, per window) is only repaid over enough
columns.  The rule is

    bit-sliced  iff  f >= max(m // 2 + 1, m - 4)
    else fan-in iff  w >= 2, 2, 2, 3, 3, 4, 4, 4, 6, 8, 8, 8, 8, 12 for m = 3..16
                     and n >= 40960 (``_FANIN_COLUMNS``)
    else tables

that is f >= 2, 3, 3, 4, 4, 5 for m = 3..8 and 5, 6, 7, 8, 9, 10, 11, 12
for m = 9..16.  f and w were calibrated over 40k-symbol columns (2-vCPU
Xeon VM, numpy 2.4), the fan-out on dense f x 4 and f x 16 maps, the
width on dense R x w maps for each R < f below the bit-sliced threshold
up to 4, as the smallest value from which the faster path was not
slower, rounded up where the two paths were within noise (10% for w:
m = 6, 8, 11, 15, 16), w kept non-decreasing in m (m = 13 measured 7).
The column count is the least from which fan-in at the threshold width,
one row and up to four, was not slower than tables at any m (median of
five best-of-seven rounds over 16k-48k columns): 16k to 24k sufficed at
m = 3, 4, 6 and 9 to 14, 32k at m = 8 and 16, 40k at m = 5, 7 and 15;
a row two nonzeros wider crossed at 6k-16k.  Below it a 1 x 2 map at
m = 5 over 1k columns took fan-in 5 times as long as tables.  At f = 16
the bit-sliced path is about 2 times as fast as tables for m = 8 and
1.2 to 1.6 times for m = 16; fan-in at w = 16 is 2.1 to 2.6 times as
fast for m = 8 and 1.2 to 1.3 times for m = 16.  At (20,10,16,8) and
(7,4,6,5) inner encode (f = 38 and 12), the read map (f = 11.8 and 4.6)
and its wing solve, the solve steps of types 2 to k with their couplings
and the repair inverse take the bit-sliced path; repair's upload (w = d,
over the d helpers' d N columns) and the one-row solve steps (over N
columns) take fan-in on files large enough but those with one nonzero,
which stay on tables.  At (5,3,4,8) inner encode is bit-sliced and the
upload and the 4 x 4 maps (w = 4) fan-in; at (12,6,10,16) only inner
encode (f = 22) is bit-sliced and no map is wide enough for fan-in.

What depends on the degree or on a map alone is derived once per
process and shared by every Field of the degree.  The exp/log tables are
kept for each degree (at most 14), and the coefficient tables for the
last ``_SPLIT_MEMO`` (4096) (degree, coefficient) pairs.  A map's plan
(the nonzero entries for the table path; the used columns and the row
batches with their plane indices for the bit-sliced path, or each row's
columns per bit for fan-in, with its nonzero entries for calls on fewer
columns) is keyed on (m, shape, coefficient bytes) and kept for the last
``_PLAN_MEMO`` (256) distinct maps.  A plan does not depend on the
column count, so one map applied to files of any size shares one plan.
The bounds are fixed, and no memo holds any symbol of the data the maps
are applied to.
"""

import itertools
import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ParameterError

CANONICAL_POLYS = {
    3: 0xB,
    4: 0x13,
    5: 0x25,
    6: 0x43,
    7: 0x89,
    8: 0x11B,
    9: 0x211,
    10: 0x409,
    11: 0x805,
    12: 0x1053,
    13: 0x201B,
    14: 0x4443,
    15: 0x8003,
    16: 0x1100B,
}


# Least nonzeros per used column at which mat_mul_cols takes the
# bit-sliced path (see the module docstring for the calibration).
_SLICED_FANOUT = {m: max(m // 2 + 1, m - 4) for m in range(3, 17)}

# Below it, least nonzeros per row with any at which it takes the fan-in
# path rather than the tables (see the module docstring).
_FANIN_WIDTH = dict(zip(range(3, 17), (2, 2, 2, 3, 3, 4, 4, 4, 6, 8, 8, 8, 8, 12)))

# Least columns at which a fan-in map takes that path: below it the tables
# are faster (see the module docstring).
_FANIN_COLUMNS = 40960

# Most kernel plans and m > 8 coefficient tables a process keeps.
_PLAN_MEMO = 256
_SPLIT_MEMO = 4096


def native_dtype(m: int) -> np.dtype:
    """The numpy dtype that holds one m-bit symbol: uint8 or uint16."""
    return np.dtype(np.uint8 if m <= 8 else np.uint16)


def _xor_span(basis: np.ndarray) -> np.ndarray:
    """The table whose entry b is the xor of basis[i] over the set bits i of b."""
    table = np.zeros(1, dtype=basis.dtype)
    for v in basis:
        table = np.concatenate([table, table ^ v])
    return table


@lru_cache(maxsize=None)  # one entry per degree, at most 14
def _tables(m: int) -> tuple:
    """(exp, log) tables of GF(2^m) as lists, then as numpy arrays.

    With N = 2^m - 1, the log table maps zero to 2N and a nonzero residue
    to its log in [0, N); the exp table is the N powers twice and 2N + 1
    zeros, so a sum of two logs indexes the product.  The arrays hold the
    same values, exp at native dtype and log as intp, for the batched row
    update in ``linalg``.

    Candidates g = 2, 3, ... are tried in turn; the first whose powers
    g^0 .. g^(2^m - 2) reach every nonzero residue is the generator, and
    its coverage proves the polynomial irreducible.  Were g times some
    nonzero residue g^i zero, g would be nilpotent and so g^m = 0, one of
    the powers that cover (m < 2^m - 1).  So g is a unit, and so is each
    nonzero residue, a power of g: the residues form a field.
    """
    order = 1 << m
    dtype = native_dtype(m)
    for generator in range(2, order):
        # Powers of the candidate by doubling: the block g^L .. g^(2L-1) is
        # the block before it times g^L.
        powers, step = np.ones(1, dtype=dtype), generator
        while powers.size < order - 1:
            powers = np.concatenate([powers, _times(m, step, powers)])
            step = int(_times(m, step, np.array(step, dtype=dtype)))
        powers = powers[: order - 1]
        log = np.full(order, -1, dtype=np.intp)
        log[powers] = np.arange(order - 1)
        if log[1:].min() >= 0:
            log[0] = 2 * (order - 1)
            exp = np.concatenate([powers, powers, np.zeros(2 * order - 1, dtype)])
            return powers.tolist() * 2 + [0] * (2 * order - 1), log.tolist(), exp, log
    raise ParameterError(f"reduction polynomial {CANONICAL_POLYS[m]:#x} for m={m} is not irreducible")


def _times(m: int, a: int, vec):
    """a times every entry of vec: one gather from the coefficient's table
    for m <= 8, one from each of its byte tables above."""
    low, high = _split_tables(m, a)
    if m <= 8:
        return low.take(vec)
    return low.take(vec & 0xFF) ^ high.take(vec >> 8)


class Field:
    """GF(2^m) with precomputed discrete-log tables, as lists and arrays.

    The tables depend on m alone, so every Field of one degree shares
    them (see ``_tables``).  All operations are pure, so one Field
    instance can be shared freely across threads; nothing is added to it
    after construction.
    """

    def __init__(self, m: int):
        if not isinstance(m, int) or not 3 <= m <= 16:
            raise ParameterError(f"unsupported field degree m={m}; need 3 <= m <= 16")
        self.m = m
        self.reduction_poly = CANONICAL_POLYS[m]
        self.order = 1 << m
        self.dtype = native_dtype(m)
        self.exp_table, self.log_table, self.exp_array, self.log_array = _tables(m)

    # -- scalar operations ------------------------------------------------

    def check(self, a: int) -> int:
        """Validate that a is an element of this field."""
        if not isinstance(a, int) or not 0 <= a < self.order:
            raise ValueError(f"{a!r} is not an element of GF(2^{self.m})")
        return a

    def mul(self, a: int, b: int) -> int:
        return self.exp_table[self.log_table[a] + self.log_table[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return self.exp_table[self.order - 1 - self.log_table[a]]

    def __eq__(self, other) -> bool:
        return isinstance(other, Field) and other.m == self.m

    def __repr__(self) -> str:
        return f"Field(m={self.m})"

    # -- bulk multiplication on native-width numpy arrays -----------------

    def mul_vec(self, a: int, vec):
        """Multiply every entry of a numpy vector of symbols by the scalar a."""
        return _times(self.m, a, vec)

    def mat_mul_cols(self, rows, cols):
        """Apply a small matrix (coefficient rows: an array, or lists) to a
        2-D numpy array whose axis 0 indexes matrix columns.

        Returns a field-width array with one row per coefficient row.  Maps
        whose columns feed enough coefficients take the bit-sliced path,
        the rest with wide enough rows the fan-in path over enough columns,
        and the others xor-accumulate one table gather per nonzero
        coefficient (see the module docstring for the rule).  The map's
        plan is memoized; callers that apply one map often pass it as an
        array of the field's dtype, which is not converted again.
        """
        if not len(rows):
            return np.zeros((0, cols.shape[1]), dtype=self.dtype)
        coeffs = np.asarray(rows, dtype=self.dtype).reshape(len(rows), -1)
        out = np.zeros((coeffs.shape[0], cols.shape[1]), dtype=self.dtype)
        plan = _plan(self.m, coeffs.shape, coeffs.tobytes())
        if isinstance(plan, _FanInPlan) and cols.shape[1] < _FANIN_COLUMNS:
            plan = plan.entries  # below the crossover the tables are faster
        if isinstance(plan, _SlicedPlan):
            self._mat_mul_sliced(plan, cols, out)
        elif isinstance(plan, _FanInPlan):
            self._mat_mul_fan_in(plan, cols, out)
        else:
            for r, c, a in plan:
                out[r] ^= self.mul_vec(a, cols[c])
        return out

    def _mat_mul_sliced(self, plan, cols, out):
        """out = coefficients * cols[plan.used], window by window on 64-bit
        lane planes, the inputs expanded (see the module docstring)."""
        m, n_used = self.m, len(plan.used)
        xtime = self._xtime()
        # Workspace rows: the planes and a zero plane, a batch's gather (the
        # xtime carry before it) and its reduce.
        parts = (n_used * m + 1, max(n_used, plan.most_picks), _GROUP)
        for window, width, (flat, gather, acc) in self._windows(plan, cols, parts, n_used * m):
            planes = flat[:-1].reshape(m, n_used, -1)  # x^i * column u is planes[i, u]
            for i in range(1, m):
                xtime(planes[i - 1], gather[:n_used], planes[i])
            for rows, index in plan.batches:
                picked = gather.reshape(-1)[: index.size * flat.shape[1]].reshape(index.shape + flat.shape[1:])
                flat.take(index, axis=0, out=picked, mode="clip")  # picks x rows x words
                np.bitwise_xor.reduce(picked, axis=0, out=acc[: len(rows)])
                out[rows, window] = acc[: len(rows)].view(self.dtype)[:, :width]

    def _mat_mul_fan_in(self, plan, cols, out):
        """out = coefficients * cols[plan.used], window by window on 64-bit
        lane planes, the outputs expanded (see the module docstring)."""
        m = self.m
        xtime = self._xtime()
        # Workspace rows: the staged columns and a zero plane, the xtime
        # carry, and a row's m sums.
        parts = (len(plan.used) + 1, 1, m)
        for window, width, (flat, carry, acc) in self._windows(plan, cols, parts, sum(parts)):
            for r, picks in plan.rows:
                for total, pick in zip(acc, picks):  # S_i
                    np.bitwise_xor(flat[pick[0]], flat[pick[1]], out=total)
                    for p in pick[2:]:
                        total ^= flat[p]
                for i in range(m - 1, 0, -1):  # Horner's rule
                    xtime(acc[i], carry[0], acc[i])
                    acc[i - 1] ^= acc[i]
                out[r, window] = acc[0].view(self.dtype)[:width]

    def _xtime(self):
        """The step cur = x * prev on 64-bit words of native-width lanes,
        as a function of (prev, carry, cur), carry a scratch row of their
        width; cur may be prev."""
        m, lane_bits = self.m, 8 * self.dtype.itemsize
        ones = _lanes(1, lane_bits)
        keep = _lanes((1 << m) - 2, lane_bits)  # drops the bit shifted out of each lane
        poly = np.uint64(self.reduction_poly & ((1 << m) - 1))

        def xtime(prev, carry, cur):
            np.right_shift(prev, m - 1, out=carry)
            carry &= ones
            carry *= poly
            np.left_shift(prev, 1, out=cur)
            cur &= keep
            cur ^= carry

        return xtime

    def _windows(self, plan, cols, parts, budget_rows):
        """The column windows of a bit-sliced call, each as (its columns, its
        width, the workspace parts).  A window holds as many 64-bit words as
        fit _PLANE_BYTES over ``budget_rows`` rows.  Each part, ``parts[j]``
        rows of the thread's workspace, is cut k words wide in a window of k
        words, so that it is contiguous; the first holds the used columns
        staged raw and, in its last row, the zero plane.  The workspace only
        grows, per thread."""
        lanes = 8 // self.dtype.itemsize
        n, n_used = cols.shape[1], len(plan.used)
        words = max(min(_PLANE_BYTES // (8 * budget_rows), -(-n // lanes)), 1)
        ends = list(itertools.accumulate(parts))
        spans = list(zip([0] + ends, ends))
        scratch = getattr(_local, "scratch", None)
        if scratch is None or scratch.size < ends[-1] * words:
            scratch = _local.scratch = np.empty(ends[-1] * words, dtype=np.uint64)
        for start in range(0, n, words * lanes):
            stop = min(n, start + words * lanes)
            width = stop - start
            k = -(-width // lanes)
            views = [scratch[a * k : b * k].reshape(-1, k) for a, b in spans]
            views[0][-1] = 0  # the zero plane: the workspace keeps what earlier calls left
            low = views[0][:n_used].view(self.dtype)
            for u, c, count in plan.runs:
                low[u : u + count, :width] = cols[c : c + count, start:stop]
            low[:, width:] = 0
            yield slice(start, stop), width, views


@dataclass(frozen=True)
class _SlicedPlan:
    """What the bit-sliced path needs of one map, whatever the column count."""

    used: np.ndarray  # the map's columns with a nonzero coefficient
    runs: tuple  # (u, c, count): used[u : u + count] are columns c .. c + count - 1
    batches: tuple  # (rows, plane index) pairs, see _row_batches
    most_picks: int  # size of the largest plane index


@dataclass(frozen=True)
class _FanInPlan:
    """What the fan-in path needs of one map, whatever the column count,
    and the table path's entries, which serve it below _FANIN_COLUMNS."""

    used: np.ndarray  # as in _SlicedPlan
    runs: tuple
    rows: tuple  # (row, picks) pairs, see _row_sums
    entries: tuple  # (row, column, coefficient) of each nonzero


@lru_cache(maxsize=_PLAN_MEMO)
def _plan(m: int, shape: tuple, data: bytes):
    """The memoized analysis of one map of shape ``shape`` over GF(2^m),
    whose coefficients are ``data`` (C order, field dtype): a _SlicedPlan,
    a _FanInPlan, or for the table path its nonzero entries as (row,
    column, coefficient)."""
    coeffs = np.frombuffer(data, dtype=native_dtype(m)).reshape(shape)
    row_of, col_of = np.nonzero(coeffs)
    used = np.flatnonzero(np.bincount(col_of, minlength=shape[1]))
    live = np.flatnonzero(np.bincount(row_of, minlength=shape[0]))
    first = np.flatnonzero(np.diff(used, prepend=-2) != 1)
    runs = tuple(zip(first.tolist(), used[first].tolist(), np.diff(first, append=used.size).tolist()))
    if row_of.size and row_of.size >= _SLICED_FANOUT[m] * used.size:
        batches = _row_batches(coeffs[:, used], m)
        return _SlicedPlan(used, runs, batches, max(index.size for _, index in batches))
    entries = tuple(zip(row_of.tolist(), col_of.tolist(), coeffs[row_of, col_of].tolist()))
    if row_of.size and row_of.size >= _FANIN_WIDTH[m] * live.size:
        return _FanInPlan(used, runs, _row_sums(coeffs[:, used], m, live), entries)
    return entries


def _row_batches(coeffs, m: int) -> tuple:
    """The bit-sliced path's rows as (rows, index) batches.

    Plane i*U + u is x^i times used column u of U, and the plane after the
    last one is zero.  Row r xors the planes of its coefficients' set bits.
    Rows in order of their number of picks go in batches of up to _GROUP
    that share one gather and one reduce.  The index is plane-major (picks
    x rows, C order): index[:, j] lists the planes of rows[j], padded with
    the zero plane.  A batch picks at most half as many planes as there
    are (unless one row alone picks more), so its gather stays within half
    of the plane scratch at every window size.  All-zero rows are left out.
    """
    row_of, col_of = np.nonzero(coeffs)
    values = coeffs[row_of, col_of]
    entry, bit = np.nonzero((values[:, None] >> np.arange(m, dtype=values.dtype)) & 1)
    counts = np.bincount(row_of[entry], minlength=coeffs.shape[0])
    picks = np.split(bit * coeffs.shape[1] + col_of[entry], np.cumsum(counts)[:-1])
    live = sorted((r for r in range(len(counts)) if counts[r]), key=counts.__getitem__)
    zero_plane = coeffs.shape[1] * m
    group = max(min(_GROUP, zero_plane // 2 // int(counts.max())), 1)
    batches = []
    for first in range(0, len(live), group):
        rows = live[first : first + group]
        index = np.full((counts[rows[-1]], len(rows)), zero_plane, np.min_scalar_type(zero_plane))
        for j, r in enumerate(rows):
            index[: counts[r], j] = picks[r]
        batches.append((np.array(rows), index))
    return tuple(batches)


def _row_sums(coeffs, m: int, live) -> tuple:
    """The fan-in path's rows as (row, picks) pairs: picks[i] lists the
    used columns whose coefficient in the row has bit i set, padded to two
    with the zero plane after them."""
    zero = coeffs.shape[1]
    rows = []
    for r in live.tolist():
        picks = (np.flatnonzero(coeffs[r] >> i & 1).tolist() for i in range(m))
        rows.append((r, tuple(tuple(p + [zero] * (2 - len(p))) for p in picks)))
    return tuple(rows)


# Planes of one bit-sliced window, in bytes: a window holds as many uint64
# words per plane as fit, so scratch never grows with the input.  Calibrated
# under workspace reuse, between resident memory and page faults (CHANGES.md).
_PLANE_BYTES = 768 << 10
_GROUP = 8  # most rows in one batch
_local = threading.local()  # .scratch: this thread's bit-sliced workspace


def _lanes(value: int, lane_bits: int) -> np.uint64:
    """value repeated in every lane_bits-wide lane of a 64-bit word."""
    return np.uint64(value * (((1 << 64) - 1) // ((1 << lane_bits) - 1)))  # times 0x0101...


@lru_cache(maxsize=_SPLIT_MEMO)
def _split_tables(m: int, a: int):
    """The coefficient a's product tables, spans of a, a*x, ..., a*x^(m-1):
    over the whole field and an unused [0] for m <= 8, over the low and
    the high byte above."""
    basis = []
    for _ in range(m):
        basis.append(a)
        a = (a << 1) ^ ((a >> (m - 1)) & 1) * CANONICAL_POLYS[m]
    basis = np.array(basis, dtype=native_dtype(m))
    return _xor_span(basis[:8]), _xor_span(basis[8:])
