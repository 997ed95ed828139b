"""Exception hierarchy for graphflow."""


class GraphflowError(Exception):
    """Base class for all graphflow errors."""


class NonSymmetricWeights(GraphflowError):
    """Edge weight matrix is not symmetric."""


class NegativeEdgeWeight(GraphflowError):
    """Edge weight matrix has a negative or non-finite entry."""


class NonPositiveWeight(GraphflowError):
    """A vertex weight is zero, negative or not finite."""


class DuplicatePoint(GraphflowError):
    """Two vertices share the same coordinates."""


class SizeMismatch(GraphflowError):
    """Array size does not match the graph."""


class NotApplicable(GraphflowError):
    """Operation is undefined for this input (e.g. recession with finite thresholds)."""


class NonConvergent(GraphflowError):
    """Numerical limit did not converge."""


class NotUpwindAdmissible(GraphflowError):
    """Mobility violates m(0, s) = 0."""


class NotConcave(GraphflowError):
    """Mobility failed the sampled concavity check."""


class NotPositive(GraphflowError):
    """Mobility is not strictly positive on the sampled interior."""


class ThresholdExceeded(GraphflowError):
    """Densities lie outside the mobility thresholds."""


class StepSizeUnderflow(GraphflowError):
    """Adaptive integrator reduced dt below the hard floor."""

    def __init__(self, message, state=None, time=None):
        super().__init__(message)
        self.state = state
        self.time = time


class InfiniteAction(GraphflowError):
    """A pairing was requested for a flux of infinite action."""


class NotConverged(GraphflowError):
    """Convex solver stopped without meeting its certificate targets."""

    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = certificate


class InfeasibleEndpoints(GraphflowError):
    """Endpoint states do not carry equal mass."""


class MassMismatch(GraphflowError):
    """Measures that must share total mass do not."""


class SchemaError(GraphflowError):
    """Configuration fails structural validation."""

    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.path = path


class SemanticError(GraphflowError):
    """Configuration is structurally valid but semantically inconsistent."""
