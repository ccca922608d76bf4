"""Exception hierarchy.

Two families so callers (and the CLI) can distinguish bad inputs from
numerical failures: ``PreconditionFailed`` maps to exit code 2,
``SolverFailure`` to exit code 3.
"""


class PreconditionFailed(Exception):
    """An operation's precondition does not hold for the given inputs."""


class NotSymmetric(PreconditionFailed):
    """Matrix expected to be symmetric is not, beyond tolerance."""


class NotHurwitz(PreconditionFailed):
    """Matrix expected to be Hurwitz has spectral abscissa >= 0."""


class DimensionMismatch(PreconditionFailed):
    """Operands have inconsistent shapes."""


class NotOrthonormal(PreconditionFailed):
    """Columns expected to be orthonormal are not, beyond tolerance."""


class K0NotStabilizing(PreconditionFailed):
    """Supplied initial gain does not stabilize the plant."""


class ExcitationDeficient(PreconditionFailed):
    """Recorded data is not rich enough for a unique regression solution.

    Remedies: more windows, larger excitation amplitude, or more
    sinusoidal components.
    """


class SolverFailure(Exception):
    """An iterative solver failed to produce an acceptable result."""


class SolverDiverged(SolverFailure):
    """Residual did not reach the required bound."""


class MaxIterExceeded(SolverFailure):
    """Iteration limit hit before convergence."""


class RegressionSingular(SolverFailure):
    """Least-squares system is numerically singular (condition > 1e10)."""


class NotStabilizing(SolverFailure):
    """Computed gain failed the closed-loop stability post-check."""


class NonFinite(SolverFailure):
    """Simulated state blew up (norm above 1e12) or produced NaN/inf.
    ``clusters`` holds the indices along a stacked rollout's cluster axis
    whose states did so (``(0,)`` for a single plant)."""

    def __init__(self, message="", clusters=()):
        super().__init__(message)
        self.clusters = tuple(clusters)


class GenerationFailed(SolverFailure):
    """Random generation retries exhausted."""


class BudgetExceeded(SolverFailure):
    """A memory or wall-clock budget cannot be met: the predicted memory
    exceeds the host's, or the deadline passed (or is provably unreachable)
    before completion."""


class ClusterFailure(SolverFailure):
    """A per-cluster solve failed; carries the cluster index and any
    stats from clusters that did complete."""

    def __init__(self, cluster_index, cause, partial_stats=None):
        self.cluster_index = cluster_index
        self.cause = cause
        self.partial_stats = partial_stats or []
        super().__init__(f"cluster {cluster_index}: {cause!r}")
