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
of symbols at native width: uint8 for m <= 8, uint16 above.  It has two
paths, both from Plank, Greenan and Miller ("Screaming Fast Galois Field
Arithmetic Using Intel SIMD Instructions", FAST 2013):

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
  its coefficients: one gather and one ``np.bitwise_xor.reduce`` per
  window for every batch of up to eight rows.  A window holds
  ``_PLANE_BYTES`` of its N planes and ``_row_batches`` keeps a gather
  within N planes, so the planes, carry, gather and reduce take at most
  (2 + 9/N) ``_PLANE_BYTES``, at most 2.5 times from N = 18.  They are
  cut from one workspace per thread, kept across calls and never an
  output: allocated per call, glibc trimmed them after each store, read
  and repair and the next faulted them in again, about 790, 1450 and 560
  minor faults an op on the benchmark's ``audit`` workload.

``mat_mul_cols`` picks the path per map from the nonzeros per used
column (the fan-out f: how many coefficients each expanded column feeds)
and m.  The expansion costs m-1 xtimes per column and each coefficient
about m/2 plane xors, against one gather (two above m = 8) per
coefficient on the table path, so the bit-sliced path wins once f is
large enough, later for larger m.  The rule is

    bit-sliced  iff  f >= max(m // 2 + 1, m - 4)

that is f >= 2, 3, 3, 4, 4, 5 for m = 3..8 and 5, 6, 7, 8, 9, 10, 11, 12
for m = 9..16.  It was calibrated on dense f x 4 and f x 16 maps over
40k-symbol columns (2-vCPU Xeon VM, numpy 2.4) as the smallest f from
which on the bit-sliced path was not slower, rounded up where the two
paths were within noise; at f = 16 it is about 2 times as fast for
m = 8 and 1.2 to 1.6 times for m = 16.  At (20,10,16,8) and (7,4,6,5)
inner encode (f = 38 and 12), the read map (f = 11.8 and 4.6) and its
wing solve, the solve steps of types 2 to k with their couplings and
the repair inverse take the bit-sliced path, and the one-row solve steps
(f = 1) stay on tables; at (5,3,4,8) and at (12,6,10,16) only inner
encode (f = 8 and 22) is bit-sliced.

What depends on the degree or on a map alone is derived once per
process and shared by every Field of the degree.  The exp/log tables are
kept for each degree (at most 14), and the coefficient tables for the
last ``_SPLIT_MEMO`` (4096) (degree, coefficient) pairs.  A map's plan
(the nonzero entries for the table path; the used columns and the row
batches with their plane indices for the bit-sliced path) is keyed on
(m, shape, coefficient bytes) and kept for the last ``_PLAN_MEMO`` (256)
distinct maps.  A plan does not depend on the column count, so one map
applied to files of any size shares one plan.  The bounds are fixed, and
no memo holds any symbol of the data the maps are applied to.
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
        the rest xor-accumulate one table gather per nonzero coefficient
        (see the module docstring for the rule).  The map's plan is
        memoized; callers that apply one map often pass it as an array of
        the field's dtype, which is not converted again.
        """
        if not len(rows):
            return np.zeros((0, cols.shape[1]), dtype=self.dtype)
        coeffs = np.asarray(rows, dtype=self.dtype).reshape(len(rows), -1)
        out = np.zeros((coeffs.shape[0], cols.shape[1]), dtype=self.dtype)
        plan = _plan(self.m, coeffs.shape, coeffs.tobytes())
        if isinstance(plan, _SlicedPlan):
            self._mat_mul_sliced(plan, cols, out)
        else:
            for r, c, a in plan:
                out[r] ^= self.mul_vec(a, cols[c])
        return out

    def _mat_mul_sliced(self, plan, cols, out):
        """out = coefficients * cols[plan.used], window by window on 64-bit
        lane planes (see the module docstring)."""
        m = self.m
        lane_bits = 8 * self.dtype.itemsize
        lanes = 64 // lane_bits
        ones = _lanes(1, lane_bits)
        keep = _lanes((1 << m) - 2, lane_bits)  # drops the bit shifted out of each lane
        poly = np.uint64(self.reduction_poly & ((1 << m) - 1))
        n_used = len(plan.used)
        n = cols.shape[1]
        words = max(min(_PLANE_BYTES // (8 * n_used * m), -(-n // lanes)), 1)
        # Workspace rows, k words wide in a window of k words so that each
        # part is contiguous: the planes and a zero plane, a batch's gather
        # (the xtime carry before it) and its reduce.  It only grows, per thread.
        ends = list(itertools.accumulate((n_used * m + 1, max(n_used, plan.most_picks), _GROUP)))
        spans = list(zip([0] + ends, ends))
        scratch = getattr(_local, "scratch", None)
        if scratch is None or scratch.size < ends[-1] * words:
            scratch = _local.scratch = np.empty(ends[-1] * words, dtype=np.uint64)
        for start in range(0, n, words * lanes):
            stop = min(n, start + words * lanes)
            width = stop - start
            k = -(-width // lanes)
            flat, gather, acc = (scratch[a * k : b * k].reshape(-1, k) for a, b in spans)
            carry = gather[:n_used]
            flat[-1] = 0  # the zero plane: the workspace keeps what earlier calls left
            planes = flat[:-1].reshape(m, n_used, k)  # x^i * column u is planes[i, u]
            low = planes[0].view(self.dtype)
            for u, c, count in plan.runs:
                low[u : u + count, :width] = cols[c : c + count, start:stop]
            low[:, width:] = 0
            for i in range(1, m):
                prev, cur = planes[i - 1], planes[i]
                np.right_shift(prev, m - 1, out=carry)
                carry &= ones
                carry *= poly
                np.left_shift(prev, 1, out=cur)
                cur &= keep
                cur ^= carry
            for rows, index in plan.batches:
                picked = gather.reshape(-1)[: index.size * k].reshape(index.shape + (k,))
                flat.take(index, axis=0, out=picked, mode="clip")
                np.bitwise_xor.reduce(picked, axis=1, out=acc[: len(rows)])
                out[rows, start:stop] = acc[: len(rows)].view(self.dtype)[:, :width]


@dataclass(frozen=True)
class _SlicedPlan:
    """What the bit-sliced path needs of one map, whatever the column count."""

    used: np.ndarray  # the map's columns with a nonzero coefficient
    runs: tuple  # (u, c, count): used[u : u + count] are columns c .. c + count - 1
    batches: tuple  # (rows, plane index) pairs, see _row_batches
    most_picks: int  # size of the largest plane index


@lru_cache(maxsize=_PLAN_MEMO)
def _plan(m: int, shape: tuple, data: bytes):
    """The memoized analysis of one map of shape ``shape`` over GF(2^m),
    whose coefficients are ``data`` (C order, field dtype): a _SlicedPlan,
    or for the table path its nonzero entries as (row, column, coefficient)."""
    coeffs = np.frombuffer(data, dtype=native_dtype(m)).reshape(shape)
    row_of, col_of = np.nonzero(coeffs)
    used = np.flatnonzero(np.bincount(col_of, minlength=shape[1]))
    if row_of.size and row_of.size >= _SLICED_FANOUT[m] * used.size:
        batches = _row_batches(coeffs[:, used], m)
        first = np.flatnonzero(np.diff(used, prepend=-2) != 1)
        runs = tuple(zip(first.tolist(), used[first].tolist(), np.diff(first, append=used.size).tolist()))
        return _SlicedPlan(used, runs, batches, max(index.size for _, index in batches))
    return tuple(zip(row_of.tolist(), col_of.tolist(), coeffs[row_of, col_of].tolist()))


def _row_batches(coeffs, m: int) -> tuple:
    """The bit-sliced path's rows as (rows, index) batches.

    Plane i*U + u is x^i times used column u of U, and the plane after the
    last one is zero.  Row r xors the planes of its coefficients' set bits.
    Rows in order of their number of picks go in batches of up to _GROUP
    that share one gather and one reduce: index[j] lists the planes of
    rows[j], padded with the zero plane.  A batch picks at most half as
    many planes as there are (unless one row alone picks more), so its
    gather stays within half of the plane scratch at every window size.
    All-zero rows are left out.
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
        index = np.full((len(rows), counts[rows[-1]]), zero_plane, np.min_scalar_type(zero_plane))
        for j, r in enumerate(rows):
            index[j, : counts[r]] = picks[r]
        batches.append((np.array(rows), index))
    return tuple(batches)


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
