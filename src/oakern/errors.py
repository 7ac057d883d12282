"""Exception taxonomy shared by all modules: four classes, a base and three kinds.

The CLI maps the three kinds onto exit codes 1, 2 and 3, so every raise
site should pick the class that matches how a caller must react, not
where the code lives.
"""


class OakernError(Exception):
    """Base class for all package errors."""


class InputError(OakernError, ValueError):
    """Malformed or out-of-domain input: a bad file, matrix, label or parameter."""


class NumericError(OakernError, RuntimeError):
    """A numerical routine failed to converge, or a result is outside float64 range."""


class ConsistencyError(OakernError, RuntimeError):
    """Two routes to the same quantity disagree beyond tolerance (bug signal)."""
