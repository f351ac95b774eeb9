"""majdet: majorization orders and determinantal inequalities for positive
definite matrices, with seeded counterexample fuzzing and exact rational
certification."""

from .blocks import Partition, diag_blocks, direct_sum, principal_submatrix, validate_partition
from .catalog import (
    EVALUATOR_IDS,
    INEQUALITY_IDS,
    THEOREM_IDS,
    InequalityVerdict,
    Instance,
    evaluate_general,
    identity_abs_square,
    run_check,
)
from .exact import det_exact
from .fuzzing import FuzzReport, GenConfig, GenStyle, TrialRecord, fuzz, gen_pd, replay
from .linalg import (
    cholesky,
    eig_pencil,
    eigh_sym,
    eigvals_sym,
    hyperbolic_power,
)
from .orders import (
    OrderKind,
    OrderReport,
    check_order,
    geometric_mean,
    power_mean,
    sort_desc,
)

__version__ = "0.1.0"

__all__ = [
    "Partition", "diag_blocks", "direct_sum", "principal_submatrix", "validate_partition",
    "EVALUATOR_IDS", "INEQUALITY_IDS", "THEOREM_IDS",
    "InequalityVerdict", "Instance",
    "evaluate_general", "identity_abs_square", "run_check",
    "det_exact",
    "FuzzReport", "GenConfig", "GenStyle", "TrialRecord", "fuzz", "gen_pd", "replay",
    "cholesky", "eig_pencil", "eigh_sym", "eigvals_sym", "hyperbolic_power",
    "OrderKind", "OrderReport", "check_order", "geometric_mean", "power_mean", "sort_desc",
    "__version__",
]
