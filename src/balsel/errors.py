"""Exception types raised by the balsel package."""


class BalselError(Exception):
    """Base class for all balsel errors."""


class DimensionError(BalselError, ValueError):
    """Input dimensions are empty or inconsistent, or entries are not finite."""


class SingularMatrixError(BalselError, ValueError):
    """A matrix that must be invertible is singular to working precision."""


class UnstableSystemError(BalselError, ValueError):
    """An operation that requires a stable system received an unstable one."""


class IllPosedError(BalselError, ValueError):
    """A matrix equation has (numerically) no unique solution."""


class RankError(BalselError, ValueError):
    """Rank of an input is too low for the requested operation."""


class FeasibilityError(BalselError, ValueError):
    """A constrained selection has no feasible solution."""


class SynthesisError(BalselError, RuntimeError):
    """Controller synthesis failed (no stabilizing Riccati solution)."""


class NumericError(BalselError, RuntimeError):
    """An internal numerical contract was violated (non-convergence etc.)."""


class EnumerationCapError(BalselError, ValueError):
    """An exhaustive enumeration would exceed the configured cap."""


class FormatError(BalselError, ValueError):
    """A text file (matrix / model / config) could not be parsed."""


class BuildError(BalselError, RuntimeError):
    """A C source of the package could not be compiled (no compiler, or it failed)."""
