"""Exception types shared across the package."""


class ParameterError(ValueError):
    """Invalid argument: bad sizes, out-of-range indices, mismatched objects."""


class CoercivityError(ParameterError):
    """Robin coefficient is not bounded below by a positive constant."""


class NumericalError(RuntimeError):
    """A check found no usable number (a matrix not positive definite, a non-finite
    result); cli.main exits 2 on it, as on LinAlgError and FloatingPointError."""
