"""Exception types shared across the package."""


class DgboError(Exception):
    """Base class for all package errors."""


class ContractError(DgboError):
    """An argument violates an interface contract (length/grid mismatch, bad range)."""


class ConvergenceError(DgboError):
    """An iterative solver failed to converge within its budget."""

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = history if history is not None else []


class SeedError(DgboError):
    """An iteration was started from (or drifted to) an unusable seed."""


class ResolutionError(DgboError):
    """The requested quantity is not resolvable on the given grid; enlarge L or N."""


class CapacityError(DgboError):
    """A dense code path was requested beyond its size limit."""


class DecompositionError(DgboError):
    """Modulation parameter solve failed (left the soliton tube)."""


class ClosenessError(DecompositionError):
    """Input field is too far from the soliton family for modulation: it left the tube."""


class ConfigError(DgboError):
    """Invalid experiment configuration."""
