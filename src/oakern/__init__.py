"""Optimal assignment kernel on tuples, with PSD diagnostics and a refutation driver."""

from .assignment_kernel import TupleObject, gram_matrix
from .base_kernel import RBFKernel, TableKernel, constant_one
from .counterexample import run_counterexample, verify_min_kernel_psd
from .errors import ConsistencyError, InputError, NumericError, OakernError
from .hungarian import brute_force_assignment, max_assignment_value, solve_max_assignment
from .spectral import (
    distances_from_gram,
    jacobi_eigen,
    psd_check,
    psd_project_clip,
    quadratic_form,
)

__version__ = "0.1.0"
