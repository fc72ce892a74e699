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
"""

from dataclasses import dataclass
from functools import lru_cache

from .errors import InsufficientNodesError, ParameterError
from .gf2m import Field
from .linalg import Matrix, invert, mat_vec, submatrix


@dataclass(frozen=True)
class CodeParams:
    """Validated (n, k, d, m) with the usual derived quantities."""

    n: int
    k: int
    d: int
    m: int

    @property
    def node_symbols(self) -> int:
        """Symbols stored per node (the MBR point pins this to d)."""
        return self.d

    @property
    def helper_symbols(self) -> int:
        """Symbols each helper uploads during a repair."""
        return 1

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

    @property
    def min_field_order(self) -> int:
        return self.n + 2 * self.d


def params_new(n: int, k: int, d: int, m: int) -> CodeParams:
    for name, v in (("n", n), ("k", k), ("d", d), ("m", m)):
        if not isinstance(v, int):
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
    return CodeParams(n, k, d, m)


# -- message-matrix layout ---------------------------------------------------
# All three helpers are 0-based and cached per (k, d); the public API
# converts at the boundary.


@lru_cache(maxsize=None)
def message_cells(k: int, d: int) -> tuple:
    """Cell (i, j), i <= j, occupied by each codeword symbol in turn."""
    cells = []
    for i in range(k):
        for j in range(i, d):
            cells.append((i, j))
    return tuple(cells)


@lru_cache(maxsize=None)
def cell_index(k: int, d: int):
    """Map (i, j) -> 0-based symbol index, None on the structural zeros."""
    idx = {}
    for b, (i, j) in enumerate(message_cells(k, d)):
        idx[(i, j)] = b
        idx[(j, i)] = b
    return idx


@lru_cache(maxsize=None)
def type_positions(k: int, d: int, t: int) -> tuple:
    """(symbol, column) pairs appearing in row t of the message matrix.

    Row t of the message matrix (equivalently column t, by symmetry) is
    the support shared by every node's t-th stored symbol; t is 0-based
    here.  Rows t < k touch d symbols, the rest touch k.
    """
    idx = cell_index(k, d)
    out = []
    for j in range(d):
        b = idx.get((t, j) if t <= j else (j, t))
        if b is not None:
            out.append((b, j))
    return tuple(out)


class InnerCode:
    """A product-matrix MBR code bound to one encoding matrix.

    The encoding matrix must have every square submatrix nonsingular
    (a Cauchy matrix does); the secure codec supplies the canonical one.
    Immutable after construction.
    """

    def __init__(self, params: CodeParams, field: Field, encoding_matrix: Matrix):
        if field.m != params.m:
            raise ParameterError(f"field degree {field.m} does not match params m={params.m}")
        if (encoding_matrix.rows, encoding_matrix.cols) != (params.n, params.d):
            raise ParameterError(
                f"encoding matrix must be {params.n}x{params.d}, "
                f"got {encoding_matrix.rows}x{encoding_matrix.cols}"
            )
        self.params = params
        self.field = field
        self.encoding_matrix = encoding_matrix

    # -- codeword <-> message matrix ----------------------------------

    def fill_message_matrix(self, codeword: list[int]) -> Matrix:
        p = self.params
        if len(codeword) != p.total_symbols:
            raise ValueError(f"codeword must have {p.total_symbols} symbols, got {len(codeword)}")
        m = [[0] * p.d for _ in range(p.d)]
        for b, (i, j) in enumerate(message_cells(p.k, p.d)):
            m[i][j] = codeword[b]
            m[j][i] = codeword[b]
        return Matrix(self.field, m)

    def extract_codeword(self, message_matrix: Matrix) -> list[int]:
        p = self.params
        return [message_matrix.get(i, j) for (i, j) in message_cells(p.k, p.d)]

    # -- encoding -------------------------------------------------------

    def encode_node(self, codeword: list[int], node: int) -> list[int]:
        """The d symbols node stores: its encoding row times the message matrix."""
        self._check_node(node)
        msg = self.fill_message_matrix(codeword)
        # msg is symmetric, so msg * row^T equals row * msg transposed.
        return mat_vec(msg, self.encoding_matrix.row(node - 1))

    def generator_matrix(self, node: int) -> Matrix:
        """d x B matrix sending a codeword to the symbols node stores."""
        self._check_node(node)
        p = self.params
        enc_row = self.encoding_matrix.row(node - 1)
        rows = []
        for t in range(p.d):
            row = [0] * p.total_symbols
            for b, j in type_positions(p.k, p.d, t):
                row[b] = enc_row[j]
            rows.append(row)
        return Matrix(self.field, rows)

    # -- reconstruction ---------------------------------------------------

    def reconstruct(self, shares: dict[int, list[int]]) -> list[int]:
        """Recover the codeword from any k node shares.

        Two-phase solve: the first k columns of the received block give
        the off-diagonal part after one inversion of the k x k selector,
        and a second pass with the same inverse yields the symmetric core.
        """
        p = self.params
        if len(shares) < p.k:
            raise InsufficientNodesError(f"need at least k={p.k} shares, got {len(shares)}")
        for node, share in shares.items():
            self._check_node(node)
            if len(share) != p.d:
                raise ValueError(f"share for node {node} has {len(share)} symbols, expected {p.d}")
        nodes = sorted(shares)[: p.k]
        received = Matrix(self.field, [shares[node] for node in nodes])
        core, wing = self._solve_message_blocks(nodes, received)
        idx = cell_index(p.k, p.d)
        out = [0] * p.total_symbols
        for (i, j), b in idx.items():
            if i <= j:
                out[b] = core.get(i, j) if j < p.k else wing.get(i, j - p.k)
        return out

    def _solve_message_blocks(self, nodes: list[int], received: Matrix):
        """Split the k x d received block into the two message blocks."""
        from .linalg import mat_mul, transpose

        p = self.params
        f = self.field
        node_rows = [n - 1 for n in nodes]
        selector = submatrix(self.encoding_matrix, node_rows, range(p.k))
        sel_inv = invert(selector)
        left = submatrix(received, range(p.k), range(p.k))
        if p.d == p.k:  # no off-diagonal wing at all
            return mat_mul(sel_inv, left), None
        mixer = submatrix(self.encoding_matrix, node_rows, range(p.k, p.d))
        right = submatrix(received, range(p.k), range(p.k, p.d))
        wing = mat_mul(sel_inv, right)  # k x (d-k)
        mixed = mat_mul(mixer, transpose(wing))  # k x k
        core_rhs = Matrix(
            f,
            [[left.get(i, j) ^ mixed.get(i, j) for j in range(p.k)] for i in range(p.k)],
        )
        core = mat_mul(sel_inv, core_rhs)  # k x k, symmetric for valid input
        return core, wing

    # -- repair -----------------------------------------------------------

    def helper_symbol(self, helper: int, failed: int, helper_share: list[int]) -> int:
        """The single symbol a helper uploads: its share dotted with the
        failed node's encoding row."""
        self._check_node(helper)
        self._check_node(failed)
        if helper == failed:
            raise ValueError("a node cannot help repair itself")
        p = self.params
        if len(helper_share) != p.d:
            raise ValueError(f"helper share has {len(helper_share)} symbols, expected {p.d}")
        f = self.field
        target_row = self.encoding_matrix.row(failed - 1)
        acc = 0
        for c in range(p.d):
            if helper_share[c] and target_row[c]:
                acc ^= f.mul(helper_share[c], target_row[c])
        return acc

    def repair(self, failed: int, helper_symbols: dict[int, int]) -> list[int]:
        """Rebuild the failed node's share, bit-identical, from d helper symbols."""
        p = self.params
        self._check_node(failed)
        if failed in helper_symbols:
            raise ValueError(f"failed node {failed} cannot appear among its helpers")
        if len(helper_symbols) != p.d:
            raise InsufficientNodesError(
                f"repair needs exactly d={p.d} helpers, got {len(helper_symbols)}"
            )
        helpers = sorted(helper_symbols)
        for h in helpers:
            self._check_node(h)
        stack = submatrix(self.encoding_matrix, [h - 1 for h in helpers], range(p.d))
        return mat_vec(invert(stack), [helper_symbols[h] for h in helpers])

    def _check_node(self, node: int):
        if not isinstance(node, int) or not 1 <= node <= self.params.n:
            raise ValueError(f"node index {node} out of range 1..{self.params.n}")


# -- bulk (vectorized) variants ----------------------------------------------
# Same algebra as the scalar methods, applied to numpy arrays holding one
# column per chunk; the store module streams whole files through these.


def encode_bulk(code: InnerCode, codeword_cols):
    """Encode every chunk for every node: {node: d x N array}."""
    return {
        e: code.field.mat_mul_cols(code.generator_matrix(e).data, codeword_cols)
        for e in range(1, code.params.n + 1)
    }


def reconstruct_bulk(code: InnerCode, share_cols: dict):
    """Vectorized reconstruction; share_cols maps node -> d x N array."""
    import numpy as np

    p = code.params
    if len(share_cols) < p.k:
        raise InsufficientNodesError(f"need at least k={p.k} shares, got {len(share_cols)}")
    nodes = sorted(share_cols)[: p.k]
    n_chunks = share_cols[nodes[0]].shape[1]
    f = code.field
    node_rows = [n - 1 for n in nodes]
    selector = submatrix(code.encoding_matrix, node_rows, range(p.k))
    sel_inv = invert(selector)

    received = np.stack([share_cols[n] for n in nodes])  # (k, d, N)
    left = received[:, : p.k, :]
    if p.d > p.k:  # d == k leaves no off-diagonal wing at all
        mixer = submatrix(code.encoding_matrix, node_rows, range(p.k, p.d))
        right = received[:, p.k :, :]
        wing = f.mat_mul_cols(sel_inv.data, right.reshape(p.k, -1)).reshape(p.k, p.d - p.k, n_chunks)
        wing_t = wing.transpose(1, 0, 2)
        mixed = f.mat_mul_cols(mixer.data, wing_t.reshape(p.d - p.k, -1)).reshape(p.k, p.k, n_chunks)
        left = left ^ mixed
    core = f.mat_mul_cols(sel_inv.data, left.reshape(p.k, -1)).reshape(p.k, p.k, n_chunks)

    out = np.zeros((p.total_symbols, n_chunks), dtype=received.dtype)
    for b, (i, j) in enumerate(message_cells(p.k, p.d)):
        out[b] = core[i, j] if j < p.k else wing[i, j - p.k]
    return out


def repair_bulk(code: InnerCode, failed: int, helper_share_cols: dict):
    """Vectorized exact repair; returns (repaired d x N array, symbols downloaded)."""
    import numpy as np

    p = code.params
    if failed in helper_share_cols:
        raise ValueError(f"failed node {failed} cannot appear among its helpers")
    if len(helper_share_cols) != p.d:
        raise InsufficientNodesError(
            f"repair needs exactly d={p.d} helpers, got {len(helper_share_cols)}"
        )
    helpers = sorted(helper_share_cols)
    f = code.field
    target_row = code.encoding_matrix.row(failed - 1)
    uploads = []
    for h in helpers:
        share = helper_share_cols[h]
        acc = np.zeros(share.shape[1], dtype=share.dtype)
        for c in range(p.d):
            if target_row[c]:
                acc ^= f.mul_vec(target_row[c], share[c])
        uploads.append(acc)
    stack = submatrix(code.encoding_matrix, [h - 1 for h in helpers], range(p.d))
    repaired = f.mat_mul_cols(invert(stack).data, np.stack(uploads))
    downloaded = len(helpers) * uploads[0].shape[0]
    return repaired, downloaded
