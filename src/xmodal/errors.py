"""Exception types shared across the toolkit."""


class ShapeError(ValueError):
    """Array shapes do not conform for the requested operation."""


class ConfigError(ValueError):
    """A hyperparameter or configuration value is outside its valid range."""


class ContractError(RuntimeError):
    """An operation was invoked outside its documented contract."""


class IngestError(ValueError):
    """Base class for corpus ingestion failures."""


class FileFormatError(IngestError):
    """A corpus file has a bad magic number, is truncated, or is unparseable."""


class DimensionMismatchError(IngestError):
    """Row counts or feature dimensions disagree between corpus files."""


class MissingAttributeError(IngestError):
    """A label references a class with no attribute vector."""


class NonFiniteError(IngestError):
    """NaN or Inf where a finite value is required: ingested data, embeddings or a training loss."""


class CheckpointError(RuntimeError):
    """A checkpoint file is unreadable or version-incompatible."""
