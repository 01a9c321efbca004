"""Exception hierarchy.

Two broad families matter for the CLI exit codes: input/contract problems
(``ValidationError``, exit code 2) and numerical guard trips that abort an
otherwise well-posed computation (``NumericalGuardError``, exit code 3).
"""


class SelbergError(Exception):
    """Base class for all package errors."""


class ValidationError(SelbergError, ValueError):
    """Bad input: wrong rank, malformed file, violated precondition."""


class NumericalGuardError(SelbergError):
    """A numerical sanity check failed; results would be unreliable."""


class NonRegularElementError(NumericalGuardError):
    """Weyl-character denominator vanished; the rotation is not regular."""


class EvennessError(NumericalGuardError):
    """Odd-power residuals of an orbital polynomial exceeded tolerance."""


class ParabolicElementError(NumericalGuardError):
    """Unit-modulus non-diagonalizable element: the group is not cocompact."""


class EnumerationExplosionError(NumericalGuardError):
    """Word-ball enumeration exceeded the configured element cap."""


class AmbiguousClassError(NumericalGuardError):
    """A flagged-ambiguity conjugacy class was used without explicit opt-in."""


class IllConditionedFitError(NumericalGuardError):
    """Least-squares design matrix too ill-conditioned to trust."""

    def __init__(self, message, condition_number=float("inf")):
        super().__init__(message)
        self.condition_number = condition_number
