"""The two kinds of failure: a ConfigError rejects a config at load (CLI
exit 2), and an InvariantViolation means a bug (CLI exit 3)."""


class FlowMigrateError(Exception):
    """Base class for all package errors."""


class ConfigError(FlowMigrateError):
    """Scenario/DAG configuration is malformed or violates an invariant."""


class InvariantViolation(FlowMigrateError):
    """The engine detected a broken internal invariant; the run is invalid."""
