"""Coset-coding outer layer that makes the inner MBR code weakly secure.

The parity-check matrix is assembled from rows whose supports copy the
storage-node row patterns ("types"): a row of type i is nonzero exactly
on the symbol positions of row i of the message matrix, and its values
come from one row of a d x d coefficient matrix.  Stacking the node
encoding matrix on top of the coefficient matrix must give a matrix all
of whose square submatrices are nonsingular; ``CodeParams.cauchy_stack``,
one Cauchy matrix on 2^m >= n + 2d distinct points, achieves that.  A
check row is thus the typed row (``CodeParams.typed_rows``) that a node
holding that coefficient row would store as its symbol of that type.

Encoding a message of B-2 symbols picks the coset member selected by
two fresh random symbols: the parity-check matrix extended by two more
rows is invertible, so (message, randomness) -> codeword is a bijection
and uniform randomness yields a uniform coset element.  The extension is
solved by successive decoding, one type at a time (type k, then k-1 down
to 2, then the types above k, then type 1): each step is a small square
solve with a precomputed inverse, after the symbols fixed by earlier
steps are cancelled from its rows.  The nonsingular steps are the proof
that the extension is invertible, and the same steps are the encoder;
no B x B inverse is ever formed.

Decoding reads the message straight from k shares, as virtual nodes'
symbols.  A type-t check row with coefficient row phi weights the symbol
at cell (t, j) of the symmetric message matrix M by phi[j], so on a
codeword it is phi * M[:, t]: it reads column t of M and nothing else,
which is the type-t symbol that a node with encoding row phi would
store.  ``pm_mbr.reconstruct_bulk`` gives such symbols from any k shares
with one wing solve and one map of H's sparsity; neither the codeword
nor the core block of M is formed.

Everything but the data is fixed by (n, k, d, m), so ``_codes`` builds
the inner and the outer code from the params once per process for each
parameter set, keyed on ``CodeParams``, for the last ``_CODEC_MEMO`` (8)
sets.  A codec's params is the memoized object, so an equal parameter
object met later never builds its own typed rows; each ``SecureCodec``
builds its own Field and shares the codes as they are.  Nothing derived
from a message, from randomness or from a share is kept.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ParameterError, SingularMatrixError
from .gf2m import Field
from .linalg import Matrix, invert, submatrix
from .pm_mbr import CodeParams, InnerCode, VirtualRows, reconstruct_bulk, type_positions

# Most parameter sets whose derived matrices a process keeps.
_CODEC_MEMO = 8


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
    inverse: np.ndarray  # the inverse of the rows x variables block, field dtype
    coupling: np.ndarray  # the rows x known block, field dtype


def _solve_steps(params: CodeParams, ext: Matrix, ext_types: tuple) -> tuple:
    """The successive decode of H_ext, one square solve per type.

    Type k goes first (it owns a full complement of rows), then down
    through type 2, then the single-row types above k, then type 1.
    A type-t row is supported exactly on type t's index set, so after
    the earlier steps it touches only the symbols solved here.
    """
    k, d = params.k, params.d
    sets = index_sets(k, d)
    dtype = ext.field.dtype
    solved: set = set()
    steps = []
    for t in list(range(k, 1, -1)) + list(range(k + 1, d + 1)) + [1]:
        rows = tuple(r for r, (rt, _) in enumerate(ext_types) if rt == t)
        variables = tuple(b for b in sets[t - 1] if b - 1 not in solved)
        known = tuple(b - 1 for b in sets[t - 1] if b - 1 in solved)
        if len(rows) != len(variables):
            raise ParameterError(
                f"parity-check matrix is rank-deficient: type {t} has {len(rows)} rows "
                f"for {len(variables)} unsolved symbols"
            )
        try:
            inverse = invert(submatrix(ext, rows, [b - 1 for b in variables]))
        except SingularMatrixError:
            raise ParameterError(f"extended parity-check matrix is singular: type {t} step") from None
        coupling = np.array(submatrix(ext, rows, known).data, dtype=dtype)
        steps.append(
            SolveStep(t, rows, variables, known, np.array(inverse.data, dtype=dtype), coupling)
        )
        solved.update(b - 1 for b in variables)
    return tuple(steps)


class OuterCode:
    """Parity-check machinery for one parameter set, over GF(2^m).

    Reads from the params' typed rows the (B-2) x B parity-check matrix,
    whose row of ledger entry (type t, coefficient row p) is typed row
    (n+p-1, t-1), and the invertible B x B extension used for uniform
    coset encoding, together with the type-ordered solve steps that invert
    it.  Nonsingular steps prove H_ext invertible, hence H of full row
    rank; a non-square or singular step raises ParameterError.  Immutable
    after construction; encoding consumes caller-supplied randomness and
    is otherwise deterministic.
    """

    def __init__(self, params: CodeParams):
        n, k, d = params.n, params.k, params.d
        self.params = params
        self.field = field = params.cauchy_stack.field
        counts = type_cardinalities(k, d)
        self.row_types = tuple((t, p) for t in range(2, d + 1) for p in range(1, counts[t - 1] + 1))
        # The extension appends a type-k row (last coefficient row) and a type-1
        # row (first); the solve steps check that the result is square.
        self.ext_row_types = self.row_types + ((k, d), (1, 1))
        at = [(n + p - 1, t - 1) for t, p in self.ext_row_types]
        ext = params.typed_rows[tuple(zip(*at))]
        self.parity_check = Matrix.derived(field, ext[:-2].tolist())
        self.parity_check_ext = Matrix.derived(field, ext.tolist())
        stack_rows, types = zip(*at[:-2])  # H's rows as reads: the coset decoder's map
        stack = np.array(params.cauchy_stack.data, field.dtype)
        self.check_rows = VirtualRows(np.array(types), stack[list(stack_rows)])
        self.solve_steps = _solve_steps(params, self.parity_check_ext, self.ext_row_types)

    # -- coset encode / decode, one column per chunk ----------------------

    def coset_encode_bulk(self, message_cols, randomness_cols):
        """Solve H_ext * c = [message; randomness] for every column, step by step."""
        p = self.params
        if len(message_cols) != p.secure_symbols:
            raise ValueError(f"message must have {p.secure_symbols} rows, got {len(message_cols)}")
        if len(randomness_cols) != 2:
            raise ValueError(f"exactly 2 randomness rows required, got {len(randomness_cols)}")
        f = self.field
        syndrome = np.vstack([message_cols, randomness_cols])
        out = np.empty_like(syndrome)
        for step in self.solve_steps:
            rhs = syndrome[list(step.rows)]
            if step.known:
                rhs ^= f.mat_mul_cols(step.coupling, out[list(step.known)])
            out[[b - 1 for b in step.variables]] = f.mat_mul_cols(step.inverse, rhs)
        return out

    def coset_decode_bulk(self, inner: InnerCode, shares):
        """The message of every chunk, H * c, read as virtual nodes' symbols
        from the first k (node, d x N share) pairs of ``shares``, which
        ``reconstruct_bulk`` draws through the inner code's intake."""
        return reconstruct_bulk(inner, shares, self.check_rows)


@lru_cache(maxsize=_CODEC_MEMO)
def _codes(params: CodeParams) -> tuple:
    """(inner code, outer code) of one parameter set, both cut from its
    typed rows, memoized per process.

    Every codec of the parameter set shares them, so their read rows and
    solve steps are made read-only; the generator stack is already a view
    of the read-only typed rows.
    """
    inner, outer = InnerCode(params), OuterCode(params)
    steps = [a for s in outer.solve_steps for a in (s.inverse, s.coupling)]
    for array in [*inner.codeword_rows, *outer.check_rows, *steps]:
        array.flags.writeable = False
    return inner, outer


class SecureCodec:
    """Inner MBR code and outer coset code of one parameter set.

    ``_codes`` builds both codes from the params, and every codec of the
    parameter set shares them; each codec builds its own Field, equal to
    theirs.
    """

    def __init__(self, params: CodeParams):
        self.field = Field(params.m)
        self.inner, self.outer = _codes(params)
        self.params = self.inner.params  # the memoized object, never rebuilt

    def __repr__(self) -> str:
        p = self.params
        return f"SecureCodec(n={p.n}, k={p.k}, d={p.d}, m={p.m})"


def make_codec(params: CodeParams) -> SecureCodec:
    return SecureCodec(params)


# -- capacity formulas ---------------------------------------------------


def perfect_capacity(k: int, d: int, l: int) -> int:
    """Capacity if the l observed nodes had to carry zero information.

    Reported for comparison only; the whole point of the weak notion is
    to avoid paying this price.
    """
    if not 0 <= l < k:
        raise ParameterError(f"l={l} out of range: need 0 <= l < k={k}")
    return sum(d - i for i in range(l, k))
