"""Weakly secure distributed storage over simulated nodes.

A minimum-bandwidth regenerating inner code spreads a file across n
nodes with exact single-node repair; a coset-coding outer layer spends
two symbols of capacity so that no single eavesdropped node learns
anything about any sufficiently small group of message symbols.  The
audit module proves those claims for concrete parameters by rank
computation and exhaustive enumeration.
"""

from .audit import (
    DecodeCertificate,
    LeakageReport,
    audit_report,
    certify_completion,
    certify_extended_parity,
    exhaustive_mi_oracle,
    leakage,
    replay_certificate,
    verify_weak_secrecy,
)
from .errors import (
    CapExceededError,
    InsufficientNodesError,
    IntegrityError,
    ParameterError,
    ShareFormatError,
    SingularMatrixError,
    WeavesafeError,
)
from .gf2m import Field
from .linalg import Matrix, all_square_submatrices_nonsingular, cauchy, rank
from .pm_mbr import CodeParams, InnerCode, params_new
from .store import (
    Manifest,
    RepairStats,
    cluster_eavesdrop,
    cluster_fail,
    cluster_reconstruct,
    cluster_repair,
    cluster_store,
)
from .weaksec import (
    OuterCode,
    SecureCodec,
    index_sets,
    make_codec,
    perfect_capacity,
    type_cardinalities,
)

__version__ = "0.1.0"

__all__ = [
    "CapExceededError",
    "CodeParams",
    "DecodeCertificate",
    "Field",
    "InnerCode",
    "InsufficientNodesError",
    "IntegrityError",
    "LeakageReport",
    "Manifest",
    "Matrix",
    "OuterCode",
    "ParameterError",
    "RepairStats",
    "SecureCodec",
    "ShareFormatError",
    "SingularMatrixError",
    "WeavesafeError",
    "all_square_submatrices_nonsingular",
    "audit_report",
    "cauchy",
    "certify_extended_parity",
    "certify_completion",
    "cluster_eavesdrop",
    "cluster_fail",
    "cluster_reconstruct",
    "cluster_repair",
    "cluster_store",
    "exhaustive_mi_oracle",
    "index_sets",
    "leakage",
    "make_codec",
    "params_new",
    "perfect_capacity",
    "rank",
    "replay_certificate",
    "type_cardinalities",
    "verify_weak_secrecy",
    "__version__",
]
