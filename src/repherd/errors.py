"""Exception types shared across the package."""


class RepherdError(Exception):
    """Base class for all domain errors raised by this package."""


class ParseError(RepherdError):
    pass


class UsageError(RepherdError):
    """A bad command-line argument."""


class DimensionMismatch(RepherdError):
    pass


class MalformedRelation(RepherdError):
    pass


class NotAdmissible(RepherdError):
    pass


class PathTooLong(RepherdError):
    pass


class InvalidRepresentation(RepherdError):
    pass


class NonSplitEndomorphismRing(RepherdError):
    pass


class FieldTooSmall(RepherdError):
    pass


class NonSplit(RepherdError):
    pass


class ZProjective(RepherdError):
    pass


class VerificationFailed(RepherdError):
    """Internal consistency check failed; must never occur on shipped fixtures."""


class RoutesDisagree(VerificationFailed):
    """The kernel test and gl.dim End(A + DA) give different verdicts."""


class IncompleteCatalog(RepherdError):
    pass


class BudgetExceeded(RepherdError):
    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class GateFailed(RepherdError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NotTilting(RepherdError):
    pass
