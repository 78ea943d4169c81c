"""Exception types shared across the library.

Everything derives from QtaError so callers (and the CLI) can catch the
library's failures in one clause while letting genuine bugs propagate.
"""


class QtaError(Exception):
    """Base class for all library errors."""


class ArityError(QtaError):
    """A multilinear map has the wrong number of arguments for an operation."""


class DimensionError(QtaError):
    """Linear data whose dimensions do not match the ambient spaces."""


class BlockError(QtaError):
    """A cochain does not live in the required block of the total space."""


class DegreeError(QtaError):
    """A graded element has the wrong degree for an operation."""


class SingularMap(QtaError):
    """A linear map that was required to be invertible is singular."""


class IngredientError(QtaError):
    """A builder ingredient failed its validity check."""


class InvalidQTA(QtaError):
    """The structure equations of a quasi-twilled algebra do not hold."""


class NotDeformationMap(QtaError):
    """An operation required a vanishing deformation residual."""


class NotMaurerCartan(QtaError):
    """Twisting requested at an element that fails the Maurer-Cartan equation."""


class UnknownKind(QtaError):
    """No builder provenance (or no known formula) for the requested kind."""


class UnknownExample(QtaError):
    """Requested catalog example does not exist."""


class ParseError(QtaError):
    """Input document is not well-formed JSON."""


class SchemaError(QtaError):
    """Input document is valid JSON but violates the document schema."""
