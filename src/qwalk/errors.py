"""Exception types shared across the package."""


class QwalkError(Exception):
    """Base class for every package-specific error."""


class SpecValidationError(QwalkError):
    """An input document is malformed: a permutation set that does not
    define a valid walk, or a spec, state or sequence document of the
    wrong shape."""


class NotBijectionError(SpecValidationError):
    """An image array is not a bijection on {0, ..., n-1}."""


class SelfLoopError(SpecValidationError):
    """Some permutation fixes a vertex (the graph would have a self-loop)."""


class CoinCollisionError(SpecValidationError):
    """Two permutations send the same vertex to the same image."""


class NotSymmetricError(SpecValidationError):
    """A transition has no reverse transition (asymmetric edge sum)."""


class DisconnectedError(SpecValidationError):
    """The induced graph is not connected."""


class LengthMismatchError(QwalkError):
    """Permutations of different sizes were combined."""


class ParityError(QwalkError):
    """A construction requires an even vertex count."""


class DimensionMismatchError(QwalkError):
    """State, coin and walk dimensions do not agree."""


class IndexOutOfRangeError(QwalkError):
    """A vertex or coin index is outside its valid range."""


class CriterionConflictError(QwalkError):
    """Internal cross-check failed: the exact-k reachable sets repeated
    without covering the graph on a walk whose parity test says every
    vertex is coverable."""


class ToleranceDegenerateError(QwalkError):
    """A rank decision fell within a factor 10 of its threshold, or the
    tolerance is not a number in (0, 1); retry with a different tolerance."""


class CapExceededError(QwalkError):
    """The walk is too large for the requested closure computation."""


class NotUnitError(QwalkError):
    """A vector that must have unit norm does not, or a coin block that must
    be unitary is not."""


class UnreachableError(QwalkError):
    """A target vertex is not reachable in the given number of steps."""


class NotControllableError(QwalkError):
    """The walk cannot realize the requested transfer.

    Carries the obstruction: the two-block vertex partition.
    """

    def __init__(self, message, partition=None):
        super().__init__(message)
        self.partition = partition
