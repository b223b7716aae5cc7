"""Exception types shared across the package.

Every error that callers are expected to branch on gets its own class; plain
ValueError/IndexError are reserved for garden-variety misuse (bad labels,
out-of-range point indices).
"""


class CliquedimError(Exception):
    """Base class for domain errors."""


class InvalidParamsError(CliquedimError, ValueError):
    """Malformed generator/config parameters."""


class ContradictoryDatasetError(CliquedimError, ValueError):
    """A dataset was constructed with both (x,0) and (x,1) for some point x."""

    def __init__(self, point: int):
        self.point = point
        super().__init__(f"dataset contains both labels for point {point}")


class EmptyClassError(CliquedimError, ValueError):
    """An operation that needs at least one hypothesis got the empty class."""


class ResourceLimitError(CliquedimError):
    """A configured cap was hit.  `dimension` names the limiting resource;
    `best` optionally carries the best certified lower bound found so far."""

    def __init__(self, dimension: str, detail: str, best=None):
        self.dimension = dimension
        self.best = best
        super().__init__(f"resource limit ({dimension}): {detail}")


class DegenerateCliqueError(CliquedimError, ValueError):
    """Balanced-point search needs a clique with at least two members."""


class NotShatteredError(CliquedimError):
    """A mistake-tree branch is not realizable by the class."""


class NotCompleteError(CliquedimError):
    """A mistake tree is not complete at the required depth."""


class InfeasibleModelError(CliquedimError):
    """The packing LP was infeasible or unbounded; since the zero solution is
    always feasible and every variable is covered by a constraint, this
    signals an internal construction bug, not a user error."""


class InvariantError(CliquedimError):
    """A result failed an internal consistency check (strong duality, set
    coverage, balanced-point accounting and the like).  Raised explicitly so
    the checks survive `python -O`; it signals a bug, not bad input."""


class ZeroColoringError(CliquedimError, ValueError):
    """A fractional coloring with zero total weight cannot be normalized."""


class NoSeparationError(CliquedimError):
    """Boosting setup requires omega*_m < 2^m at the chosen m."""


class LengthMismatchError(CliquedimError, ValueError):
    """Expert-game inputs whose lengths disagree with the config."""


class NotRealizableDistributionError(CliquedimError, ValueError):
    """No hypothesis of the class has zero loss on the given distribution."""
