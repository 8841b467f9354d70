"""Shared exception types."""


class InvalidParameter(ValueError):
    """A parameter is outside the range an operation is defined for."""


class NoDefiningRelator(ValueError):
    """No relator of the presentation defines the generator to eliminate."""


class NotGenerating(ValueError):
    """The generator images fail to generate the abelian target."""


class NotInKernel(ValueError):
    """A word claimed to lie in the kernel has a nonzero image."""


class BudgetExceeded(RuntimeError):
    """A backtracking search surpassed its node limit."""


class VerificationFailure(RuntimeError):
    """An internally constructed object failed its own consistency check."""


class NotSingular(ValueError):
    """The point is not a singular point of the curve."""


class RankDeficiencySuspect(RuntimeError):
    """Finite-field ranks disagree across primes; characteristic interference."""


SplittingFailure = VerificationFailure  # the quartic split other than expected
