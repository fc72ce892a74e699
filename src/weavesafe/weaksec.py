"""Coset-coding outer layer that makes the inner MBR code weakly secure.

The parity-check matrix is assembled from rows whose supports copy the
storage-node row patterns ("types"): a row of type i is nonzero exactly
on the symbol positions of row i of the message matrix, and its values
come from one row of a d x d coefficient matrix.  Stacking the node
encoding matrix on top of the coefficient matrix must give a matrix all
of whose square submatrices are nonsingular; drawing the whole stack as
one Cauchy matrix on 2^m >= n + 2d distinct points achieves that.

Encoding a message of B-2 symbols picks the coset member selected by
two fresh random symbols: the parity-check matrix extended by two more
rows is invertible, so (message, randomness) -> codeword is a bijection
and uniform randomness yields a uniform coset element.  The extension is
solved by successive decoding, one type at a time (type k, then k-1 down
to 2, then the types above k, then type 1): each step is a small square
solve with a precomputed inverse, after the symbols fixed by earlier
steps are cancelled from its rows.  The nonsingular steps are the proof
that the extension is invertible, and the same steps are the encoder;
no B x B inverse is ever formed.  Decoding is a single syndrome
computation.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ParameterError, SingularMatrixError
from .gf2m import Field, field_new
from .linalg import Matrix, cauchy, invert, mat_vec, submatrix, vstack
from .pm_mbr import CodeParams, InnerCode, type_positions


@lru_cache(maxsize=None)
def type_cardinalities(k: int, d: int) -> tuple:
    """How many parity-check rows each type contributes (index 0 = type 1).

    Type 1 contributes none, middle types grow linearly, type k carries
    d-1 rows, and every type past k exactly one; the total is B - 2.
    """
    if k < 2:
        raise ParameterError(f"k={k} out of range: need k >= 2")
    if d < k:
        raise ParameterError(f"d={d} < k={k}")
    counts = [0] * d
    for i in range(2, k):  # types 2..k-1
        counts[i - 1] = d - k + i
    counts[k - 1] = d - 1
    for i in range(k + 1, d + 1):
        counts[i - 1] = 1
    return tuple(counts)


@lru_cache(maxsize=None)
def index_sets(k: int, d: int) -> tuple:
    """1-based symbol index sets per type; the support of any type-i row."""
    return tuple(
        tuple(b + 1 for b, _ in type_positions(k, d, t)) for t in range(d)
    )


def build_cauchy_stack(params: CodeParams, field: Field) -> Matrix:
    """The canonical (n+d) x d Cauchy stack of encoding and coefficient rows.

    Row points are the field elements 0..n+d-1 and column points
    n+d..n+2d-1, so any build of the same parameters produces the same
    matrix bit for bit.
    """
    if field.m != params.m:
        raise ParameterError(f"field degree {field.m} does not match params m={params.m}")
    needed = params.n + 2 * params.d
    if field.order < needed:
        raise ParameterError(f"field too small: {field.order} < n + 2d = {needed}")
    span = params.n + params.d
    return cauchy(field, list(range(span)), list(range(span, span + params.d)))


def make_type_row(field: Field, k: int, d: int, type_index: int, coeffs: list[int]) -> list[int]:
    """Length-B row supported exactly on the index set of the given type.

    coeffs is read in message-matrix column order; entries past the k-th
    are ignored for types above k (their rows stop at column k).
    """
    if not 1 <= type_index <= d:
        raise ValueError(f"type index {type_index} out of range 1..{d}")
    if len(coeffs) != d:
        raise ValueError(f"need {d} coefficients, got {len(coeffs)}")
    total = k * (k + 1) // 2 + k * (d - k)
    row = [0] * total
    for b, j in type_positions(k, d, type_index - 1):
        if coeffs[j] == 0:
            raise ValueError(f"zero coefficient at column {j + 1} would break the type-{type_index} support")
        row[b] = coeffs[j]
    return row


@dataclass(frozen=True)
class SolveStep:
    """One step of the successive decode of H_ext * c = z.

    The rows of one type fix that type's codeword symbols not fixed by an
    earlier step: c[variables] = inverse * (z[rows] + coupling * c[known]).
    """

    type_index: int
    rows: tuple  # 0-based rows of the extended parity check
    variables: tuple  # 1-based codeword indices solved here
    known: tuple  # 0-based codeword indices, solved earlier, that the rows touch
    inverse: list  # coefficient rows of the inverse of the rows x variables block
    coupling: list  # coefficient rows of the rows x known block


class OuterCode:
    """Parity-check machinery for one parameter set.

    Holds the (B-2) x B parity-check matrix, its per-row (type,
    coefficient-row) ledger, and the invertible B x B extension used for
    uniform coset encoding, together with the type-ordered solve steps
    that invert it.  Immutable after construction; encoding consumes
    caller-supplied randomness and is otherwise deterministic.
    """

    def __init__(self, params: CodeParams, field: Field, coeff_matrix: Matrix):
        if (coeff_matrix.rows, coeff_matrix.cols) != (params.d, params.d):
            raise ParameterError(
                f"coefficient matrix must be {params.d}x{params.d}, "
                f"got {coeff_matrix.rows}x{coeff_matrix.cols}"
            )
        self.params = params
        self.field = field
        self.coeff_matrix = coeff_matrix
        self.type_counts = type_cardinalities(params.k, params.d)
        self.index_sets = index_sets(params.k, params.d)

        rows = []
        ledger = []
        for type_i in range(2, params.d + 1):
            for p in range(1, self.type_counts[type_i - 1] + 1):
                rows.append(
                    make_type_row(field, params.k, params.d, type_i, coeff_matrix.row(p - 1))
                )
                ledger.append((type_i, p))
        self.parity_check = Matrix(field, rows)
        self.row_types = tuple(ledger)

        secure = params.secure_symbols
        if len(rows) != secure:
            raise ParameterError(
                f"type cardinalities sum to {len(rows)}, expected B-2 = {secure}"
            )

        self.parity_check_ext = self._extend()
        self.ext_row_types = self.row_types + ((params.k, params.d), (1, 1))
        # Nonsingular steps prove H_ext invertible, hence H of full row rank.
        self.solve_steps = self._solve_steps()

    def _extend(self) -> Matrix:
        """Append a type-k row (last coefficient row) and a type-1 row
        (first coefficient row); the result is square and invertible."""
        p = self.params
        extra = Matrix(
            self.field,
            [
                make_type_row(self.field, p.k, p.d, p.k, self.coeff_matrix.row(p.d - 1)),
                make_type_row(self.field, p.k, p.d, 1, self.coeff_matrix.row(0)),
            ],
        )
        return vstack(self.parity_check, extra)

    def _solve_steps(self) -> tuple:
        """The successive decode of H_ext, one square solve per type.

        Type k goes first (it owns a full complement of rows), then down
        through type 2, then the single-row types above k, then type 1.
        A type-t row is supported exactly on type t's index set, so after
        the earlier steps it touches only the symbols solved here.
        """
        k, d = self.params.k, self.params.d
        ext = self.parity_check_ext
        solved: set = set()
        steps = []
        for t in list(range(k, 1, -1)) + list(range(k + 1, d + 1)) + [1]:
            rows = tuple(r for r, (rt, _) in enumerate(self.ext_row_types) if rt == t)
            variables = tuple(b for b in self.index_sets[t - 1] if b - 1 not in solved)
            known = tuple(b - 1 for b in self.index_sets[t - 1] if b - 1 in solved)
            if len(rows) != len(variables):
                raise ParameterError(
                    f"parity-check matrix is rank-deficient: type {t} has {len(rows)} rows "
                    f"for {len(variables)} unsolved symbols"
                )
            try:
                inverse = invert(submatrix(ext, rows, [b - 1 for b in variables]))
            except SingularMatrixError:
                raise ParameterError(
                    f"extended parity-check matrix is singular: type {t} step"
                ) from None
            coupling = submatrix(ext, rows, known).data
            steps.append(SolveStep(t, rows, variables, known, inverse.data, coupling))
            solved.update(b - 1 for b in variables)
        return tuple(steps)

    # -- coset encode / decode ------------------------------------------

    def coset_encode(self, message: list[int], randomness: list[int]) -> list[int]:
        p = self.params
        if len(message) != p.secure_symbols:
            raise ValueError(f"message must have {p.secure_symbols} symbols, got {len(message)}")
        if len(randomness) != 2:
            raise ValueError(f"exactly 2 randomness symbols required, got {len(randomness)}")
        for v in message + randomness:
            self.field.check(v)
        dtype = self.field.dtype
        column = self.coset_encode_bulk(
            np.array(message, dtype=dtype).reshape(-1, 1),
            np.array(randomness, dtype=dtype).reshape(-1, 1),
        )
        return column[:, 0].tolist()

    def coset_decode(self, codeword: list[int]) -> list[int]:
        p = self.params
        if len(codeword) != p.total_symbols:
            raise ValueError(f"codeword must have {p.total_symbols} symbols, got {len(codeword)}")
        return mat_vec(self.parity_check, codeword)

    # -- bulk variants ----------------------------------------------------

    def coset_encode_bulk(self, message_cols, randomness_cols):
        """Solve H_ext * c = [message; randomness] for every column, step by step."""
        f = self.field
        syndrome = np.vstack([message_cols, randomness_cols])
        out = np.empty_like(syndrome)
        for step in self.solve_steps:
            rhs = syndrome[list(step.rows)]
            if step.known:
                rhs ^= f.mat_mul_cols(step.coupling, out[list(step.known)])
            out[[b - 1 for b in step.variables]] = f.mat_mul_cols(step.inverse, rhs)
        return out

    def coset_decode_bulk(self, codeword_cols):
        return self.field.mat_mul_cols(self.parity_check.data, codeword_cols)


class SecureCodec:
    """Inner MBR code and outer coset code bound over one Cauchy stack."""

    def __init__(self, params: CodeParams):
        self.params = params
        self.field = field_new(params.m)
        self.cauchy_stack = build_cauchy_stack(params, self.field)
        encoding = submatrix(self.cauchy_stack, range(params.n), range(params.d))
        coeffs = submatrix(self.cauchy_stack, range(params.n, params.n + params.d), range(params.d))
        self.inner = InnerCode(params, self.field, encoding)
        self.outer = OuterCode(params, self.field, coeffs)

    def __repr__(self) -> str:
        p = self.params
        return f"SecureCodec(n={p.n}, k={p.k}, d={p.d}, m={p.m})"


def make_codec(params: CodeParams) -> SecureCodec:
    return SecureCodec(params)


# -- capacity formulas ---------------------------------------------------


def secure_capacity(k: int, d: int) -> int:
    """Message symbols per codeword under the secrecy wrapper: B - 2."""
    type_cardinalities(k, d)  # parameter validation
    return k * (k + 1) // 2 + k * (d - k) - 2


def max_guesses(k: int, d: int) -> int:
    """Largest side-information size the construction tolerates: d + k - 4."""
    type_cardinalities(k, d)
    return d + k - 4


def perfect_capacity(k: int, d: int, l: int) -> int:
    """Capacity if the l observed nodes had to carry zero information.

    Reported for comparison only; the whole point of the weak notion is
    to avoid paying this price.
    """
    if not 0 <= l < k:
        raise ParameterError(f"l={l} out of range: need 0 <= l < k={k}")
    return sum(d - i for i in range(l, k))
