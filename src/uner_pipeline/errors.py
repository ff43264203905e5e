"""Exception hierarchy shared across the pipeline.

The CLI maps these onto exit codes: usage/configuration problems exit 1,
data errors exit 2, network exhaustion exits 3.
"""


class PipelineError(Exception):
    """Base class for all pipeline errors."""


class UsageError(PipelineError):
    """Bad invocation: unknown flags, invalid combinations, missing arguments."""


class ConfigurationError(UsageError):
    """A run was configured without a resource it needs (file, table, map)."""


class DataError(PipelineError):
    """Input data violates a format contract (dump line, TSV table, CoNLL file)."""


class LabelParseError(DataError):
    """A label string violates the UNER grammar."""


class AlignmentError(DataError):
    """Golden and system CoNLL streams diverge structurally."""


class QueryError(PipelineError):
    """A SPARQL request failed after all retries."""


class NetworkExhaustedError(PipelineError):
    """Every attempted query failed; the endpoint is effectively unreachable."""
