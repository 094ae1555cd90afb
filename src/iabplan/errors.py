"""Exception types shared across the toolkit."""


class IabPlanError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(IabPlanError):
    """Invalid configuration value or file."""


class IngestionError(IabPlanError):
    """Malformed external input (gain CSV, topology JSON)."""


class ConnectivityError(IabPlanError):
    """Requested connectivity pattern cannot be built (e.g. stranded sites)."""


class InfeasibleProblemError(IabPlanError):
    """The assembled rate problem has no servable UE or no interior point."""


class ConvergenceError(IabPlanError):
    """Solver stopped without a certified answer: an iteration cap, a failed
    line search, or a final point that fails its KKT check.  Carries the last
    iterate and its certificate, whose `kkt` report says what fails."""

    def __init__(self, message, best_x=None, certificate=None):
        super().__init__(message)
        self.best_x = best_x
        self.certificate = certificate


class OracleError(IabPlanError):
    """Brute-force oracle cannot handle the given instance."""


class DecompositionError(IabPlanError):
    """Flow-to-path peeling left residual flow beyond tolerance."""


class MetricsError(IabPlanError):
    """Invalid input to a metrics computation (e.g. empty report list)."""
