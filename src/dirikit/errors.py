"""Exception types shared across the toolkit."""


class DirikitError(Exception):
    """Base class for all toolkit errors."""


class DuplicateVertex(DirikitError):
    """A vertex identifier occurs more than once."""


class NonPositiveMeasure(DirikitError):
    """A vertex measure is zero, negative or not finite."""


class SelfLoop(DirikitError):
    """An edge connects a vertex to itself."""


class UnknownVertex(DirikitError):
    """A vertex identifier does not belong to the space."""


class NegativeWeight(DirikitError):
    """An edge or killing weight is negative or not finite."""


class DuplicateEdge(DirikitError):
    """The same unordered vertex pair is given more than once."""


class DimensionMismatch(DirikitError):
    """A vertex function does not match the space it is used on."""


class InvalidSize(DirikitError):
    """A graph-family size parameter or a sampling seed is out of range, or
    a space has more vertices than ``core.MAX_VERTICES``."""


class NegativeTime(DirikitError):
    """A semigroup time parameter is negative or not finite."""


class NegativeInput(DirikitError):
    """A function required to be nonnegative has a negative entry."""


class NotIrreducible(DirikitError):
    """An operation requiring a connected form got a disconnected one."""


class NotExcessive(DirikitError):
    """A function required to be excessive is not."""


class NotBijective(DirikitError):
    """The vertex transformation of an order isomorphism is not a bijection."""


class NonPositive(DirikitError):
    """A scaling function or a tolerance required to be positive and finite is not."""


class SpaceMismatch(DirikitError):
    """Operands live on different measure spaces."""


class NotIntertwining(DirikitError):
    """The candidate operator does not intertwine the two generators."""


class NumericOverflow(DirikitError):
    """A generator, form matrix, spectrum, tolerance bound or operator
    constant leaves the floating-point range."""


class NotRecurrent(DirikitError):
    """An operation requiring recurrent forms got a transient one."""


class InvalidMetric(DirikitError):
    """A matrix violates the pseudo-metric axioms."""


class MalformedInput(DirikitError):
    """A JSON document does not follow the documented schema."""
