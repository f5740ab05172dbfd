"""Exception types shared across the package."""


class InvalidDimensionError(ValueError):
    """Matrix size n is out of the supported range (n >= 2)."""


class DegenerateStructureError(ValueError):
    """Beltrami data sits on the degenerate locus |mu_2| = 1."""


class DomainMismatchError(ValueError):
    """Fields defined on incompatible charts or with wrong degrees."""


class TransversalityError(RuntimeError):
    """Pointwise transversality of the two fields failed; carries the grid point."""

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point


class DecompositionError(RuntimeError):
    """Splitting of a 1-form fiber into the four canonical blocks failed."""


class NonConvergenceError(RuntimeError):
    """Iterative solve stagnated; carries the residual history."""

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = list(history) if history is not None else []


class PositivityError(RuntimeError):
    """A field left the positive cone; carries the parameter value."""

    def __init__(self, message, where=None):
        super().__init__(message)
        self.where = where
