"""Randomized multi-level sketched preconditioning for large linear systems.

The library solves regularized positive-definite systems (A + lambda*I)x = b and
general normal-equation systems (A^T A + lambda*I)x = c by building a Nystrom
preconditioner from a sparse random sketch and applying its inverse *inexactly*
through nested levels of sketching, driven by an inexactness-tolerant
preconditioned Lanczos iteration.  On top of the two solvers sit kernel ridge
regression, sketch-and-precondition least squares, a ridge black-box contract
for spectral-sum estimation, and a benchmark / instance-generation CLI.
"""

from .core import (
    MatrixHandle,
    SpectrumSummary,
    as_vector,
    dense_factor_solve,
    matvec,
    power_method_norm,
)
from .errors import (
    BreakdownError,
    DimensionMismatch,
    DomainError,
    InconsistentEstimate,
    MspError,
    SingularMatrixError,
    SketchRankCollapse,
)
from .sketch import (
    OseSketch,
    SparseEmbedding,
    make_ose,
    make_sparse_embedding,
    sketch_apply_left,
    sketch_apply_right,
)
from .nystrom import (
    NystromPreconditioner,
    apply_minv_via_formula,
    build_nystrom_psd,
    estimate_lambda0,
)
from .lanczos import (
    LanczosWorkspace,
    TridiagonalMatrix,
    preconditioned_lanczos,
    tridiag_solve_e1,
)
from .report import SolveReport
from .psd import PsdSolveConfig, solve_m1_psd, solve_psd
from .general import (
    GeneralMspState,
    GeneralSolveConfig,
    build_general,
    solve_m1_general,
    solve_m2,
    solve_normal,
)
from .apps import (
    KernelSpec,
    RidgeBlackBox,
    kernel_matrix,
    ridge_blackbox_solve,
    solve_krr,
    solve_least_squares,
)
from .instances import InstanceSpec, gen_instance
from .bench import BenchmarkReport, run_compare

__version__ = "0.1.0"

__all__ = [
    "MatrixHandle",
    "SpectrumSummary",
    "as_vector",
    "matvec",
    "power_method_norm",
    "dense_factor_solve",
    "MspError",
    "DimensionMismatch",
    "DomainError",
    "SingularMatrixError",
    "SketchRankCollapse",
    "BreakdownError",
    "InconsistentEstimate",
    "SparseEmbedding",
    "OseSketch",
    "make_sparse_embedding",
    "sketch_apply_left",
    "sketch_apply_right",
    "make_ose",
    "NystromPreconditioner",
    "build_nystrom_psd",
    "estimate_lambda0",
    "apply_minv_via_formula",
    "TridiagonalMatrix",
    "LanczosWorkspace",
    "preconditioned_lanczos",
    "tridiag_solve_e1",
    "SolveReport",
    "PsdSolveConfig",
    "solve_psd",
    "solve_m1_psd",
    "GeneralMspState",
    "GeneralSolveConfig",
    "build_general",
    "solve_normal",
    "solve_m1_general",
    "solve_m2",
    "KernelSpec",
    "RidgeBlackBox",
    "kernel_matrix",
    "solve_krr",
    "solve_least_squares",
    "ridge_blackbox_solve",
    "InstanceSpec",
    "gen_instance",
    "BenchmarkReport",
    "run_compare",
]
