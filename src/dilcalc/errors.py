"""Exception taxonomy shared across the kernel."""


class DilcalcError(Exception):
    """Base class for all kernel errors."""


class ParseError(DilcalcError):
    def __init__(self, message, position=None, expected=None):
        super().__init__(message)
        self.position = position
        self.expected = tuple(expected) if expected else ()


class OutOfNotation(DilcalcError):
    """A value left the supported notation fragment (below epsilon_0)."""


class UnsupportedLimit(DilcalcError):
    """A limit sequence does not match any supported step family."""


class MalformedElement(DilcalcError):
    pass


class NotConnected(DilcalcError):
    pass


class NoUniqueIndex(DilcalcError):
    """Uniqueness of the most important index failed; implementation bug."""


class NotTypeOmega(DilcalcError):
    """Separation demanded on an expression that is not of the top type."""


class UnsupportedDecomposition(DilcalcError):
    pass


class UnsupportedOtp(DilcalcError):
    """No symbolic order-type rule applies."""


class BudgetExceeded(DilcalcError):
    pass


class DepthExceeded(DilcalcError):
    pass


class GuardViolation(DilcalcError):
    """Recorded recursion ranks failed to decrease; implementation bug."""


FRAGMENT_ERRORS = (
    OutOfNotation,
    UnsupportedLimit,
    NotTypeOmega,
    UnsupportedDecomposition,
    UnsupportedOtp,
)
