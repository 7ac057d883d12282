"""Optimal assignment kernel on tuples, with PSD diagnostics and a refutation driver."""

from .assignment_kernel import (
    TupleObject,
    assignment_kernel,
    gram_matrix,
    load_tuple_dataset,
    parse_tuple_dataset,
    profit_matrix,
)
from .base_kernel import (
    BaseValidation,
    Point,
    RBFKernel,
    TableKernel,
    constant_one,
    eval_base,
    parse_base_kernel,
    validate_base,
)
from .counterexample import (
    CounterexampleReport,
    MinKernelVerdict,
    SquareConfig,
    SweepRow,
    build_square_config,
    expected_gram_closed_form,
    gamma_sweep,
    run_counterexample,
    sweep_to_csv,
    verify_min_kernel_psd,
)
from .errors import ConsistencyError, InputError, NumericError, OakernError
from .hungarian import (
    Assignment,
    brute_force_assignment,
    max_assignment_value,
    solve_max_assignment,
)
from .matrices import DistanceMatrix, GramMatrix, load_matrix
from .spectral import (
    DEFAULT_TOL,
    PsdVerdict,
    Spectrum,
    distances_from_gram,
    jacobi_eigen,
    psd_check,
    psd_project_clip,
    quadratic_form,
)

__version__ = "0.1.0"
