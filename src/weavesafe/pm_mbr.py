"""Product-matrix minimum-bandwidth regenerating (MBR) code.

A file of B symbols is arranged into a symmetric d x d message matrix
whose lower-right (d-k) x (d-k) block is zero; node i stores the d
symbols (row i of the encoding matrix) * (message matrix).  Any k nodes
reconstruct the file, and a failed node is rebuilt exactly from one
symbol contributed by each of any d helpers, so the repair download
equals the per-node storage (the MBR property).

The codeword-to-matrix layout is lexicographic: symbol 1 at cell (1,1),
then rightward along row 1, then row 2 from the diagonal, and so on,
mirrored below the diagonal.  Symbol indices and node indices are
1-based at this module's boundary, matching how operators and reports
count them.

Reconstruct and repair take (node, d x N share) pairs through one
intake, one pair at a time: it checks the pair (node in 1..n, neither the
failed node nor drawn before, d rows, the first share's chunk count),
copies the share to block[:, i] of one d x count x N block, i its draw
index, and drops it before drawing the next, so a lazy caller holds one
share at a time.  A read draws count = k pairs and no more, a repair d.

A read returns virtual nodes' symbols.  Split the read nodes' encoding
rows Psi = [Psi1 | Psi2] after column k and M = [[S, T], [T', 0]]: their
shares are Y = Psi M = [Psi1 S + Psi2 T' | Psi1 T], so the wing is
T = Psi1^-1 Y[:, k:], written over Y[:, k:] as block[k + j, i] = T[i, j];
column t < k of M is then [Psi1^-1 (Y[:, t] + Psi2 T[t]'); T[t]'] and
column t >= k is [T[:, t-k]; 0].  A node with coefficient row phi would
store phi M[:, t] as its type-t symbol, so any such symbols (unit rows at
the message cells give the codeword) are one kernel map on the block.

``CodeParams`` owns the point budget 2^m >= n + 2d, the (n+d) x d Cauchy
stack on those points (every square submatrix nonsingular) and its typed
rows, each Cauchy row on each message-matrix row's symbols: every row of
both codes and of the audit's certificates is one, so a code is a
function of (n, k, d, m) alone.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import islice
from typing import NamedTuple

import numpy as np

from .errors import InsufficientNodesError, ParameterError
from .gf2m import Field
from .linalg import Matrix, cauchy, invert, submatrix


@dataclass(frozen=True)
class CodeParams:
    """(n, k, d, m) with the usual derived quantities, valid by
    construction: ``__post_init__`` refuses what the scheme cannot serve."""

    n: int
    k: int
    d: int
    m: int

    def __post_init__(self):
        n, k, d, m = self.n, self.k, self.d, self.m
        for name, v in (("n", n), ("k", k), ("d", d), ("m", m)):
            if type(v) is not int:
                raise ParameterError(f"{name} must be an integer, got {v!r}")
        if k == 1:
            raise ParameterError(
                "k=1 is rejected: any single node alone then determines the whole "
                "file, exactly like a reader, so no encoding can hide anything"
            )
        if k < 2:
            raise ParameterError(f"k={k} out of range: need k >= 2")
        if d < k:
            raise ParameterError(f"d={d} < k={k}: repair degree cannot be below the reconstruction threshold")
        if n < d + 1:
            raise ParameterError(f"n={n} too small: need n >= d+1 = {d + 1} so d helpers survive one failure")
        if not 3 <= m <= 16:
            raise ParameterError(f"m={m} out of range: need 3 <= m <= 16")
        if (1 << m) < n + 2 * d:
            raise ParameterError(
                f"field too small: 2^{m} = {1 << m} < n + 2d = {n + 2 * d} distinct points required"
            )

    @property
    def total_symbols(self) -> int:
        """Codeword length B = k(k+1)/2 + k(d-k)."""
        return self.k * (self.k + 1) // 2 + self.k * (self.d - self.k)

    @property
    def secure_symbols(self) -> int:
        """Message symbols storable with the secrecy wrapper: B - 2."""
        return self.total_symbols - 2

    @property
    def max_guesses(self) -> int:
        """Side-information symbols an eavesdropper may hold: d + k - 4."""
        return self.d + self.k - 4

    @cached_property
    def cauchy_stack(self) -> Matrix:
        """The (n+d) x d Cauchy stack of encoding and coefficient rows over
        GF(2^m), built once per parameter object.

        Row points are the field elements 0..n+d-1 and column points
        n+d..n+2d-1, distinct by the point budget, so every build of the
        same parameters gives the same matrix bit for bit.
        """
        span = self.n + self.d
        return cauchy(Field(self.m), list(range(span)), list(range(span, span + self.d)))

    @cached_property
    def typed_rows(self) -> np.ndarray:
        """The read-only (n+d) x d x B array of typed rows: entry (r, t) is
        Cauchy row r on the symbols of message-matrix row t (0-based), zero
        elsewhere.  Rows 0..n-1 are the nodes' generator rows; rows n.. hold
        the outer code's check rows, a type-t row at t-1.
        """
        k, d = self.k, self.d
        t, b, j = zip(*((t, b, j) for t in range(d) for b, j in type_positions(k, d, t)))
        dtype = self.cauchy_stack.field.dtype
        rows = np.zeros((self.n + d, d, self.total_symbols), dtype=dtype)
        rows[:, t, b] = np.array(self.cauchy_stack.data, dtype=dtype)[:, j]
        rows.flags.writeable = False
        return rows

    def check_node(self, node: int):
        """Refuse anything but a node index in 1..n (an int, not a bool)."""
        if type(node) is not int or not 1 <= node <= self.n:
            raise ValueError(f"node index {node} out of range 1..{self.n}")


def params_new(n: int, k: int, d: int, m: int) -> CodeParams:
    """CodeParams(n, k, d, m), which validates itself."""
    return CodeParams(n, k, d, m)


# -- message-matrix layout ---------------------------------------------------
# Both helpers are 0-based and cached per (k, d); the public API
# converts at the boundary.


@lru_cache(maxsize=None)
def message_cells(k: int, d: int) -> tuple:
    """Cell (i, j), i <= j, occupied by each codeword symbol in turn."""
    return tuple((i, j) for i in range(k) for j in range(i, d))


@lru_cache(maxsize=None)
def type_positions(k: int, d: int, t: int) -> tuple:
    """(symbol, column) pairs appearing in row t of the message matrix.

    Row t of the message matrix (equivalently column t, by symmetry) is
    the support shared by every node's t-th stored symbol; t is 0-based
    here.  Rows t < k touch d symbols, the rest touch k.  Cell (i, j)
    lies in row t when t is i or j, at column i + j - t.
    """
    return tuple((b, i + j - t) for b, (i, j) in enumerate(message_cells(k, d)) if t in (i, j))


class VirtualRows(NamedTuple):
    """Rows of a read: row r is the symbol of message-matrix column
    types[r] (0-based) that a node with coefficient row coefficients[r]
    would store."""

    types: np.ndarray
    coefficients: np.ndarray  # one d-long row per read row, field dtype


class InnerCode:
    """The product-matrix MBR code of one parameter set, over GF(2^m).

    Its encoding matrix is rows 0..n-1 of ``params.cauchy_stack``, so
    every square submatrix is nonsingular.  Immutable after construction.
    """

    def __init__(self, params: CodeParams):
        n, d = params.n, params.d
        self.params = params
        self.encoding_matrix = submatrix(params.cauchy_stack, range(n), range(d))
        self.field = self.encoding_matrix.field
        # Node e's d stored symbols are generator rows (e-1)*d .. e*d-1, its
        # typed rows, applied to the codeword.
        self.generator_stack = params.typed_rows[:n].reshape(n * d, -1)
        # Codeword symbol (i, j), i <= j, is a unit row e_i's type-j symbol.
        cells = np.array(message_cells(params.k, d)).reshape(-1, 2)
        self.codeword_rows = VirtualRows(cells[:, 1], np.eye(d, dtype=self.field.dtype)[cells[:, 0]])

    # -- generator matrices ----------------------------------------------

    def generator_matrix(self, node: int) -> Matrix:
        """d x B matrix sending a codeword to the symbols node stores, on
        fresh plain-list rows.

        Row t holds node's encoding row on the symbols of message-matrix
        row t.  The entries come from the Cauchy stack, whose points were
        validated when it was built, so they are not checked again.
        """
        self.params.check_node(node)
        return Matrix.derived(self.field, self.params.typed_rows[node - 1].tolist())


# -- encode, reconstruct and repair -------------------------------------------
# Each map works on numpy arrays holding one column per chunk; a single
# chunk is one column.  The store module streams whole files through them.


def encode_bulk(code: InnerCode, codeword_cols):
    """Encode every chunk for every node: {node: d x N array}.

    All n*d generator rows go through one kernel call, so each codeword
    symbol is expanded once for every node it feeds; the per-node arrays
    are views of that one result.
    """
    d = code.params.d
    out = code.field.mat_mul_cols(code.generator_stack, codeword_cols)
    return {e: out[(e - 1) * d : e * d] for e in range(1, code.params.n + 1)}


def _take_shares(code: InnerCode, pairs, count: int, failed: int | None = None):
    """The intake of the module docstring: (nodes, block) from ``count`` pairs."""
    p, nodes = code.params, []
    for node, share in pairs:
        if len(nodes) == count:
            raise InsufficientNodesError(f"need exactly {count} shares, got more")
        p.check_node(node)
        if node == failed or node in nodes:
            raise ValueError(f"node {node} cannot appear {'twice' if node in nodes else 'among its helpers'}")
        if not nodes:
            block = np.empty((p.d, count, share.shape[-1]), code.field.dtype)
        if share.shape != (p.d, block.shape[2]):
            shape = f"{len(share)} rows, expected {p.d}, and chunk count {share.shape[-1]}, expected {block.shape[2]}"
            raise ValueError(f"share for node {node} has {shape}")
        block[:, len(nodes)] = share
        nodes.append(node)
        del share  # before the next pair is drawn
    if len(nodes) < count:
        raise InsufficientNodesError(f"need {count} shares, got {len(nodes)}")
    return nodes, block


def _inverse(code: InnerCode, nodes: list) -> np.ndarray:
    """The inverse of the nodes' encoding rows on their first len(nodes)
    columns: a read set's Psi1^-1, d helpers' Psi_H^-1."""
    square = submatrix(code.encoding_matrix, [e - 1 for e in nodes], range(len(nodes)))
    return np.array(invert(square).data, code.field.dtype)


def reconstruct_bulk(code: InnerCode, shares, rows: VirtualRows | None = None):
    """The read map of the module docstring: the symbols ``rows`` names, by
    default the codeword, of every chunk, from the first k (node, d x N
    share) pairs drawn from ``shares`` by the intake, in that order (a
    transposed view is fine).  Row t of the d x k x N block is then Y[:, t]
    for t < k, which a type-t row reads with phi1 Psi1^-1 (and T[t]' at
    ``block[k:, t]`` with phi1 Psi1^-1 Psi2 + phi2), and T[:, t-k] for
    t >= k, which it reads with phi1.  The weights come from the field's
    log/exp tables, not the kernel.
    """
    k, d = code.params.k, code.params.d
    nodes, block = _take_shares(code, islice(shares, k), k)
    types, phi = code.codeword_rows if rows is None else rows
    f = code.field
    psi1_inv = _inverse(code, nodes)
    psi2 = np.array(submatrix(code.encoding_matrix, [e - 1 for e in nodes], range(k, d)).data, f.dtype)
    rhs = block[k:].transpose(1, 0, 2)  # Y[:, k:] as a view; reshaping copies it for one call
    rhs[:] = f.mat_mul_cols(psi1_inv, rhs.reshape(k, -1)).reshape(k, d - k, block.shape[2])  # T over Y[:, k:]

    read = np.zeros((len(types), d, k), f.dtype)
    low, high = types < k, types >= k
    g1 = _product(f, phi[low, :k], psi1_inv)
    read[low, types[low]] = g1
    read[low, k:, types[low]] = _product(f, g1, psi2) ^ phi[low, k:]
    read[high, types[high]] = phi[high, :k]
    return f.mat_mul_cols(read.reshape(len(read), -1), block.reshape(d * k, -1))


def _product(field: Field, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The small matrix product a b, gathered from the field's log/exp tables."""
    terms = field.exp_array[field.log_array[a][:, :, None] + field.log_array[b]]
    return np.bitwise_xor.reduce(terms, axis=1)


def repair_bulk(code: InnerCode, failed: int, helper_shares):
    """Vectorized exact repair; returns (repaired d x N array, symbols downloaded).

    ``helper_shares`` yields the d helpers' (node, d x N share) pairs, which
    the intake copies to the block, helper i at ``block[:, i]``, so a lazy
    caller, as ``cluster_repair`` is, holds one share at a time.  Helper i
    uploads psi_f s_i per chunk, its share dotted with the failed node's
    encoding row psi_f: one single-row kernel map on the block as d x (d N),
    which takes the fan-in path where its row has enough nonzeros for the
    degree and the block enough columns.  The repaired share is the
    helpers' encoding rows inverted on those d symbols per chunk alone.
    """
    p = code.params
    p.check_node(failed)
    helpers, block = _take_shares(code, helper_shares, p.d, failed)
    f = code.field
    target_row = np.array(code.encoding_matrix.data[failed - 1 : failed], f.dtype)
    uploads = f.mat_mul_cols(target_row, block.reshape(p.d, -1)).reshape(p.d, -1)  # row i: helper i
    repaired = f.mat_mul_cols(_inverse(code, helpers), uploads)
    return repaired, uploads.size  # one symbol per helper per chunk
