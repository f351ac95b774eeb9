"""Exception types shared across the package."""


class MajdetError(Exception):
    """Base class for all majdet errors."""


def first_error(run, each, members):
    """run(), a stacked call over members (blocks, exponents, trials). If
    it raises a MajdetError, each(m) for m in members(), in order, and then
    run's error again: the first member that fails alone raises the error
    it raises alone, and run's error stands only if none does. members is
    a callable so that a call that succeeds lists none of them."""
    try:
        return run()
    except MajdetError:
        for m in members():
            each(m)
        raise


class NotSymmetric(MajdetError):
    """Matrix fails the symmetry tolerance."""


class NonFinite(MajdetError):
    """Matrix has a NaN or infinite entry."""


class BadEntry(MajdetError):
    """Matrix entry read from JSON is not a number (a string, a boolean, null)."""


class NotPositiveDefinite(MajdetError):
    """Cholesky factorization hit a non-positive (or near-zero) pivot."""


class NoConvergence(MajdetError):
    """LAPACK's symmetric eigensolver or SVD did not converge (its numpy gufunc
    filled the matrix's output with NaN)."""


class NotBlockDiagonal(MajdetError):
    """A block-D id's D has a nonzero entry off its partition's diagonal blocks."""


class DimensionMismatch(MajdetError):
    """Operands have incompatible dimensions."""


class SingularMatrix(MajdetError):
    """Exact elimination found the matrix singular where invertibility is required."""


class EmptyVector(MajdetError):
    """Vector operation received an empty input."""


class LengthMismatch(MajdetError):
    """Vector operands have different lengths."""


class NonPositiveEntry(MajdetError):
    """Positive entries required (log-domain or power-mean arithmetic)."""


class ZeroOrder(MajdetError):
    """Power mean of order zero; use the geometric mean instead."""


class BadPartition(MajdetError):
    """Block sizes are not positive or do not sum to the ambient dimension."""


class BadConfig(MajdetError):
    """Generator configuration outside its documented bounds."""


class MissingField(MajdetError):
    """Instance lacks a field its inequality reads."""


class IndexOutOfRange(MajdetError):
    """Principal-submatrix index set is invalid."""


class BadExponent(MajdetError):
    """Exponent outside the range this check is stated for."""


class UnknownInequality(MajdetError):
    """Inequality id not in the catalog."""


class ResampleExhausted(MajdetError):
    """Random generator failed to meet the conditioning cap within the retry budget."""


class BadMatrixFile(MajdetError):
    """Matrix file does not conform to the JSON schema."""
