"""Exception types shared across the package."""


class MvpheError(Exception):
    """Base class for all package errors."""


class ParameterError(MvpheError, ValueError):
    """A value violates a scheme parameter constraint (bad modulus, mismatched
    dimensions, unsatisfiable parameter combination, ...)."""


class SingularMatrixError(MvpheError, ValueError):
    """``linalg.solve_mod_q``, and so ``linalg.inverse_mod_q``, found a
    column with no pivot, recorded as ``column``.  ``keys._reduction_map``
    re-raises it from both its solves (against E1 and F1p) as
    ConstructionError and ``serialize.load_secret_key`` as FormatError;
    no other caller catches it."""

    def __init__(self, column: int):
        self.column = column
        super().__init__(f"matrix is singular (no pivot in column {column})")


class ConstructionError(MvpheError, RuntimeError):
    """A key-construction step failed in a way that signals an invalid input
    object rather than bad luck: inconsistent linear system, a reduction that
    stalls, a failed post-check."""


class GenerationFailure(MvpheError, RuntimeError):
    """Rejection sampling in key generation exceeded its retry cap."""


class DepthError(MvpheError, RuntimeError):
    """A homomorphic product's noise hint would reach the decryption limit."""


class FormatError(MvpheError, ValueError):
    """Malformed serialized file or circuit text."""
