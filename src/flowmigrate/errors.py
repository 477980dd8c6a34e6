"""Exception hierarchy shared across the simulator."""


class FlowMigrateError(Exception):
    """Base class for all package errors."""


class ConfigError(FlowMigrateError):
    """Scenario/DAG configuration is malformed or violates an invariant."""


class InsufficientSlotsError(ConfigError):
    """A schedule needs more slots than the declared VMs provide."""


class DuplicateRootError(FlowMigrateError):
    """A root event id was registered twice with the acker."""


class UnknownRootError(FlowMigrateError):
    """Anchor/ack referenced a root id the acker is not tracking."""


class CommitWithoutPrepareError(FlowMigrateError):
    """A checkpoint commit arrived with no prepared record to promote."""


class WaveConflictError(FlowMigrateError):
    """A checkpoint wave of the same kind is already in flight."""


class InvariantViolation(FlowMigrateError):
    """The engine detected a broken internal invariant; the run is invalid."""


class MetricsError(FlowMigrateError):
    """A metric could not be computed from the timeline."""
