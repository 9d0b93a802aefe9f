"""Exception hierarchy shared by all modules."""


class GraphError(Exception):
    """Base class for every error raised by this package."""


class CapacityExceeded(GraphError):
    """Vertex or edge count beyond the fixed word-size capacity."""


class SelfLoop(GraphError):
    """A loop edge (v, v) was supplied to a simple-graph constructor."""


class VertexOutOfRange(GraphError):
    """A vertex label falls outside 0..n-1."""


class MalformedGraph6(GraphError):
    """Input is not a valid short-form graph6 string."""


class EdgeAbsent(GraphError):
    """An operation required an edge that is not present."""


class NotConnected(GraphError):
    """Operation precondition requires a connected graph."""


class NotTwoConnected(GraphError):
    """Operation precondition requires a 2-connected graph."""


class TooLarge(GraphError):
    """Input exceeds the documented exhaustive-search cap."""


class InvalidJobCount(GraphError):
    """A worker count (argument or OBSTRUCTA_JOBS) is not an integer >= 1."""


class ShortVariant(GraphError):
    """A path of length one makes the requested configuration a short variant."""


class TooManyThetaChords(GraphError):
    """A theta admits at most one chord between its two branch vertices."""


class InvalidLengths(GraphError):
    """Path lengths violate the requested family's length pattern."""


class TooFewSpokes(GraphError):
    """A wheel hub needs at least three neighbors on the rim."""


class AmbiguousMidpoints(GraphError):
    """A special edge has more than one midpoint, so reduction is ill-defined."""


class PreconditionViolated(GraphError):
    """A dichotomy checker was called outside its stated graph class."""


class SpecSyntaxError(GraphError):
    """A family spec string could not be parsed."""
