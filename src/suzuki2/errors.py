"""Exception types shared across the toolkit."""


class ToolkitError(Exception):
    """Base class for all structured toolkit errors."""


# field arithmetic
class PolynomialNotIrreducible(ToolkitError):
    pass


class BadDegree(ToolkitError):
    pass


class DivisionByZero(ToolkitError):
    pass


class BadSubfield(ToolkitError):
    pass


# linear algebra
class SingularMatrix(ToolkitError):
    pass


class FieldMismatch(ToolkitError):
    pass


class BadShape(ToolkitError):
    pass


# group engine
class GroupTooLarge(ToolkitError):
    pass


class NotAGroup(ToolkitError):
    pass


class Unsupported(ToolkitError):
    pass


# constructions
class BadTheta(ToolkitError):
    pass


class BadEpsilon(ToolkitError):
    pass


# automorphisms
class NotAHomomorphism(ToolkitError):
    pass


class NotBijective(ToolkitError):
    pass


class TooLargeForBruteForce(ToolkitError):
    pass


# module engine
class NotInvariant(ToolkitError):
    pass


class Undecided(ToolkitError):
    """An UNKNOWN verdict was coerced to a boolean; compare by identity."""


# catalog
class NotSymplectic(ToolkitError):
    pass


class BadFormat(ToolkitError):
    pass


class NotFound(ToolkitError):
    """A budgeted search ended without a witness; not an assertion failure."""
