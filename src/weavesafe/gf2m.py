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
the smallest multiplicative generator (for m=8 the canonical polynomial
is irreducible but x itself is not a generator, so the builder searches).
Addition is xor; in characteristic 2 every element is its own negative,
so a + b = 0 exactly when a = b.

Bulk multiplication (``mul_vec``, ``mat_mul_cols``) works on numpy arrays
of symbols at native width: uint8 for m <= 8, uint16 above.  It is one
gather from a product table per coefficient, after Plank, Greenan and
Miller's split tables ("Screaming Fast Galois Field Arithmetic Using
Intel SIMD Instructions", FAST 2013).  For m <= 8 each Field holds the
full 2^m x 2^m uint8 product table; above that, each coefficient gets a
low-byte and a high-byte uint16 table, built on first use, whose two
lookups are xored.  Multiplication by a fixed coefficient is linear over
GF(2), so every table is the xor span of the coefficient times x^i.
"""

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


def clmul_reduce(a: int, b: int, poly: int, m: int) -> int:
    """Carry-less multiply then reduce modulo poly.

    Slow reference path; the Field uses it only to bootstrap its tables.
    """
    p = 0
    while b:
        if b & 1:
            p ^= a
        b >>= 1
        a <<= 1
        if (a >> m) & 1:
            a ^= poly
    return p


def is_irreducible(poly: int, m: int) -> bool:
    """Exhaustive trial division by every polynomial of degree 1..m//2."""
    if poly.bit_length() - 1 != m:
        return False
    for deg in range(1, m // 2 + 1):
        for cand in range(1 << deg, 1 << (deg + 1)):
            rem = poly
            while rem.bit_length() - 1 >= deg:
                rem ^= cand << (rem.bit_length() - 1 - deg)
            if rem == 0:
                return False
    return True


def native_dtype(m: int) -> np.dtype:
    """The numpy dtype that holds one m-bit symbol: uint8 or uint16."""
    return np.dtype(np.uint8 if m <= 8 else np.uint16)


def _xor_span(basis: np.ndarray) -> np.ndarray:
    """Tables over the last axis: entry b is the xor of basis[..., i] over
    the set bits i of b."""
    table = np.zeros(basis.shape[:-1] + (1,), dtype=basis.dtype)
    for i in range(basis.shape[-1]):
        table = np.concatenate([table, table ^ basis[..., i : i + 1]], axis=-1)
    return table


class Field:
    """GF(2^m) with precomputed discrete-log and product tables.

    All operations are pure, so one Field instance can be shared freely
    across threads; the only state added after construction is the
    per-coefficient table cache for m > 8, whose entries never change.
    """

    def __init__(self, m: int):
        if not isinstance(m, int) or not 3 <= m <= 16:
            raise ParameterError(f"unsupported field degree m={m}; need 3 <= m <= 16")
        poly = CANONICAL_POLYS[m]
        if not is_irreducible(poly, m):  # guards table corruption, never fires for the shipped set
            raise ParameterError(f"reduction polynomial {poly:#x} for m={m} is not irreducible")
        self.m = m
        self.reduction_poly = poly
        self.order = 1 << m
        self.symbol_bytes = (m + 7) // 8

        generator = self._find_generator()
        self.generator = generator
        self.exp_table = [0] * (self.order - 1)
        self.log_table = [-1] * self.order
        x = 1
        for i in range(self.order - 1):
            self.exp_table[i] = x
            self.log_table[x] = i
            x = clmul_reduce(x, generator, poly, m)

        self.dtype = native_dtype(m)
        if m <= 8:
            basis = np.stack(self._times_x_powers(np.arange(self.order)), axis=-1)
            self._product = _xor_span(basis.astype(self.dtype))
        else:
            self._split = {}  # coefficient -> (low-byte table, high-byte table)

    def _find_generator(self) -> int:
        group_order = self.order - 1
        prime_factors = _prime_factors(group_order)
        for g in range(2, self.order):
            if all(
                _pow_raw(g, group_order // f, self.reduction_poly, self.m) != 1
                for f in prime_factors
            ):
                return g
        raise AssertionError("no generator found; field tables are broken")

    # -- scalar operations ------------------------------------------------

    def check(self, a: int) -> int:
        """Validate that a is an element of this field."""
        if not isinstance(a, int) or not 0 <= a < self.order:
            raise ValueError(f"{a!r} is not an element of GF(2^{self.m})")
        return a

    def add(self, a: int, b: int) -> int:
        return a ^ b

    def sub(self, a: int, b: int) -> int:
        return a ^ b

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp_table[(self.log_table[a] + self.log_table[b]) % (self.order - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return self.exp_table[(self.order - 1 - self.log_table[a]) % (self.order - 1)]

    def div(self, a: int, b: int) -> int:
        if b == 0:
            raise ZeroDivisionError("division by zero")
        if a == 0:
            return 0
        return self.exp_table[(self.log_table[a] - self.log_table[b]) % (self.order - 1)]

    def pow(self, a: int, e: int) -> int:
        """a raised to a nonnegative integer exponent (a^0 = 1)."""
        if e < 0:
            raise ValueError("exponent must be nonnegative")
        if e == 0:
            return 1
        if a == 0:
            return 0
        return self.exp_table[(self.log_table[a] * e) % (self.order - 1)]

    def elements(self) -> range:
        return range(self.order)

    def __eq__(self, other) -> bool:
        return isinstance(other, Field) and other.m == self.m

    def __hash__(self) -> int:
        return hash(("gf2m", self.m))

    def __repr__(self) -> str:
        return f"Field(m={self.m})"

    # -- symbol serialization ---------------------------------------------

    def symbols_to_bytes(self, symbols) -> bytes:
        """Big-endian, symbol_bytes per symbol, high bits zero-padded."""
        width = self.symbol_bytes
        out = bytearray(len(symbols) * width)
        for i, s in enumerate(symbols):
            out[i * width : (i + 1) * width] = int(s).to_bytes(width, "big")
        return bytes(out)

    def bytes_to_symbols(self, data: bytes) -> list[int]:
        width = self.symbol_bytes
        if len(data) % width:
            raise ValueError(f"byte length {len(data)} is not a multiple of {width}")
        out = []
        for i in range(0, len(data), width):
            s = int.from_bytes(data[i : i + width], "big")
            if s >= self.order:
                raise ValueError(f"symbol {s:#x} out of range for GF(2^{self.m})")
            out.append(s)
        return out

    # -- bulk multiplication on native-width numpy arrays -----------------

    def _times_x_powers(self, a):
        """[a, a*x, ..., a*x^(m-1)] for an element or an array of them."""
        out = []
        for _ in range(self.m):
            out.append(a)
            a = (a << 1) ^ ((a >> (self.m - 1)) & 1) * self.reduction_poly
        return out

    def _split_tables(self, a: int):
        tables = self._split.get(a)
        if tables is None:
            basis = np.array(self._times_x_powers(a), dtype=self.dtype)
            tables = self._split[a] = (_xor_span(basis[:8]), _xor_span(basis[8:]))
        return tables

    def mul_vec(self, a: int, vec):
        """Multiply every entry of a numpy vector of symbols by the scalar a."""
        if self.m <= 8:
            return np.take(self._product[a], vec)
        low, high = self._split_tables(a)
        return np.take(low, vec & 0xFF) ^ np.take(high, vec >> 8)

    def mat_mul_cols(self, rows, cols):
        """Apply a small matrix (list of coefficient rows) to a 2-D numpy
        array whose axis 0 indexes matrix columns; xor-accumulates rows."""
        out = np.zeros((len(rows), cols.shape[1]), dtype=cols.dtype)
        for r, row in enumerate(rows):
            acc = out[r]
            for c, coeff in enumerate(row):
                if coeff:
                    acc ^= self.mul_vec(coeff, cols[c])
        return out


def field_new(m: int) -> Field:
    """Build the canonical GF(2^m) field context."""
    return Field(m)


def _prime_factors(x: int) -> list[int]:
    out = []
    f = 2
    while f * f <= x:
        if x % f == 0:
            out.append(f)
            while x % f == 0:
                x //= f
        f += 1
    if x > 1:
        out.append(x)
    return out


def _pow_raw(a: int, e: int, poly: int, m: int) -> int:
    r = 1
    while e:
        if e & 1:
            r = clmul_reduce(r, a, poly, m)
        a = clmul_reduce(a, a, poly, m)
        e >>= 1
    return r
