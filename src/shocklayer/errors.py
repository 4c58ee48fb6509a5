"""Exception types shared across the package.

The CLI maps these onto exit codes: configuration and domain problems are
exit 2, numerical failures are exit 3. Failed structural checks are not
exceptions, they are reported verdicts (exit 4 is decided by the CLI from
the report content).
"""

from __future__ import annotations


class ShockLayerError(Exception):
    """Base class for all package errors."""


class DomainError(ShockLayerError, ValueError):
    """Input outside the physical or configured admissible domain."""


class ConfigError(ShockLayerError, ValueError):
    """Run configuration failed validation."""


class SingularityError(ShockLayerError):
    """An evaluation was requested too close to the sonic set zeta = 0."""


class StepFailureError(ShockLayerError):
    """Adaptive integrator could not take an acceptable step."""


class NoConvergenceError(ShockLayerError):
    """An iterative solver exhausted its iteration budget."""


class NoConnectionError(ShockLayerError):
    """Shooting failed to connect the two end states within budget.

    ``attempts`` lists the shots made, one {sign, eps, termination,
    mismatch, n_steps} dict each; it is empty when no shot was made.
    """

    def __init__(self, message: str, attempts: list[dict] | None = None):
        super().__init__(message)
        self.attempts = list(attempts or [])


class NoDecayingDirectionError(ShockLayerError):
    """The linearization offers no decaying direction to perturb along."""


class NonMonotoneError(ShockLayerError):
    """Profile comparison needs a strictly monotone matching variable."""
