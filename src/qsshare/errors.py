"""Exception types shared across the toolkit."""


class QssError(Exception):
    """Base class for every error raised by this package."""


class ZeroInverseError(QssError):
    """Multiplicative inverse of zero requested."""


class NoSolutionError(QssError):
    """Linear system has no solution over the field."""


class DimensionMismatchError(QssError):
    """Operands live on registers of different size or field."""


class ValidationError(QssError):
    """A code specification violates one of its structural invariants."""


class NotSelfOrthogonalError(ValidationError):
    """A generating set is not self-orthogonal under the symplectic form."""


class NotCorrectableError(QssError):
    """The requested share set cannot reconstruct the secret."""


class NotInDualError(QssError):
    """Vector is not in the symplectic dual of the stabilizer space."""


class NotInSelfDualError(QssError):
    """Vector is not in the self-dual extension of the stabilizer space."""


class NotInStabilizerError(QssError):
    """Vector is not in the span of the generator set."""


class DecompositionMismatchError(QssError):
    """Claimed additive decomposition of a vector does not hold."""


class TooLargeError(QssError):
    """Operation exceeds a configured size guard."""


class IndexOutOfRangeError(QssError):
    """Qudit index outside the register."""


class PreparationFailedError(QssError):
    """The generators have no common +1 eigenvector: the message names the
    generator that does not fix the prepared state and its residual norm."""


class CircuitParseError(QssError):
    """Malformed circuit document."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class SpecParseError(QssError):
    """Malformed code-specification document."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no
