"""Semantic exception hierarchy for the locdep package."""


class LocdepError(Exception):
    """Base class for all locdep errors."""


class DegenerateVariance(LocdepError):
    """Var(S) is zero (or not positive) where a positive variance is required."""


class DegenerateKernel(LocdepError):
    """The kernel's first-order projection variance is (numerically) zero."""


class InvalidSize(LocdepError):
    """A size parameter is out of range (e.g. n < 1)."""


class BlockTooSmall(LocdepError):
    """A data block has fewer points than the kernel degree."""


class EmptyIndexSet(LocdepError):
    """No admissible index tuple satisfies the gap constraints."""


class GraphTooLarge(LocdepError):
    """The injection index set exceeds the configured cap."""


class EnumerationCapExceeded(LocdepError):
    """Exact enumeration would visit more outcomes than the configured cap."""


class ComplexityCapExceeded(LocdepError):
    """A nested-sum evaluation would visit more terms than the operation budget."""


class InvalidTestFunction(LocdepError):
    """A test function violates its sup-norm or derivative-norm constraint."""


class NonFiniteBound(LocdepError):
    """A bound shape overflows, divides by zero, or is not finite."""


class NonFiniteMoments(LocdepError):
    """A moment table holds a non-finite norm or Var(S)."""


class ExcessRejections(LocdepError):
    """Too many replications were rejected (self-normalizer V = 0)."""


class DegeneratePoints(LocdepError):
    """A rate fit was requested on too few or degenerate grid points."""


class GridMismatch(LocdepError):
    """Summaries and bound reports do not share a common grid."""


class ConfigError(LocdepError):
    """An experiment configuration document is malformed.

    Carries ``field`` (a JSON-path-like locator) so the CLI can print
    actionable diagnostics and exit with status 2.
    """

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")
