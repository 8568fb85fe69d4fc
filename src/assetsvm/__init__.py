"""Gaussian-kernel SVM training via low-dimensional kernel approximations.

Training runs a projected stochastic-subgradient method over a short
feature representation of the kernel (landmark factorization or random
cosine features); prediction costs depend only on that representation's
dimension, never on a support-vector count.
"""

from .data import (
    DataFormatError,
    Dataset,
    SparseRows,
    SparseVector,
    format_libsvm,
    load_libsvm,
    parse_libsvm,
    split,
)
from .kernels import (
    DegenerateKernelError,
    FeatureMap,
    FourierMap,
    GaussianKernel,
    Landmarks,
    NystromMap,
    build_fourier,
    build_nystrom,
    eval_counts,
    reset_eval_counts,
)
from .linalg import ConvergenceError, EigenDecomposition, sym_eig
from .model import (
    Model,
    ModelFormatError,
    NystromRecovery,
    decide,
    decide_all,
    decide_block,
    load_model,
    predict_label,
    recover_alpha,
    save_model,
    score_file,
)
from .oracle import ExactSolution, feature_objective, gram_matrix, kernel_objective, solve_exact
from .solver import (
    FeasibleRegion,
    GradientStats,
    SolverParams,
    TrivialRegressionError,
    asset_train,
    default_intercept_bound,
    estimate_dg,
    feasible_region,
)

__version__ = "0.1.0"
