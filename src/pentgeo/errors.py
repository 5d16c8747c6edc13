"""Exception types shared across the package.

Every error raised deliberately by this package derives from PentError, so
callers can catch one base class at an API boundary.  Errors that carry a
witness (the pair, point or line that triggered them) expose it as attributes.
UsageError marks the errors that mean the request itself was malformed, as
opposed to a negative answer; pentctl maps it to its own exit code.
"""

from __future__ import annotations


class PentError(Exception):
    pass


class UsageError(PentError):
    """Malformed input, or parameters outside their domain."""


class ParameterDomain(UsageError):
    """A numeric argument is outside its documented domain."""


class NonIntegralLineCount(UsageError):
    """v*r is not divisible by k, so no line set of the right size exists."""


class PointOutOfRange(UsageError):
    """A point identifier is not in 0..v-1."""


class StepNotDividingV(UsageError):
    """A development step d must divide the point count v."""


class PentSyntaxError(UsageError):
    """Malformed base-block file.  line_no is 1-based."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class ArityMismatch(PentSyntaxError):
    """A block does not have exactly k entries."""


class Inadmissible(UsageError):
    """Parameters fail a necessary admissibility congruence."""


class NotPrimePower(UsageError):
    pass


class FieldTooLarge(UsageError):
    pass


class TooManySquares(UsageError):
    """More mutually orthogonal Latin squares requested than the field gives."""


class NoConstructionAvailable(PentError):
    """No recipe implemented here produces the requested design."""


class PairMissing(PentError):
    def __init__(self, pair):
        super().__init__(f"pair {pair} covered by no block")
        self.pair = pair


class PairDoubled(PentError):
    def __init__(self, pair, block1, block2):
        super().__init__(f"pair {pair} covered by both {block1} and {block2}")
        self.pair = pair
        self.block1 = block1
        self.block2 = block2


class GroupPairCovered(PentError):
    def __init__(self, pair, block):
        super().__init__(f"within-group pair {pair} covered by {block}")
        self.pair = pair
        self.block = block


class ClimbFailed(PentError):
    """Hill climbing exhausted its budget on every restart."""


class NotValidGeometry(PentError):
    pass


class SplitMismatch(PentError):
    """Opposite/non-opposite line counts disagree with the girth-5 identities."""


class ForbiddenOverlap(PentError):
    def __init__(self, pair, value):
        super().__init__(f"points {pair} have {value} common deficiency neighbours")
        self.pair = pair
        self.value = value


class DegreeBoundViolated(PentError):
    pass


class PartitionFailed(PentError):
    pass


class PlanInvalid(UsageError):
    pass


class IngredientInvalid(PentError):
    pass


class ResultFailedVerification(PentError):
    pass


class NotBlockSize3(UsageError):
    pass


class NoIngredient(PentError):
    pass


class BadSeedGraph(PentError):
    pass


class CompletionUnsupported(PentError):
    """The construction left pairs uncovered and no completion method applies."""


class PreconditionFailed(UsageError):
    pass
