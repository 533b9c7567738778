"""Exception hierarchy shared by all ppcstore modules."""


class StoreError(Exception):
    """Base class for every error raised by this package."""


class CorpusError(StoreError):
    """Problem in a corpus record stream; carries the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class CorpusParseError(CorpusError):
    """Malformed JSON line."""


class CorpusSchemaError(CorpusError):
    """Record is valid JSON but violates the corpus schema."""


class CorpusDecodeError(CorpusError):
    """Content field is not valid base64."""


class InvalidNameError(StoreError):
    """Filename or content id not usable as key material (e.g. embedded NUL)."""


class MalformedKeyError(StoreError):
    """Encoded key bytes do not decode to a valid key."""


class ConfigError(StoreError):
    """Invalid store or codec configuration."""


class CodecConfigError(ConfigError):
    """Unsupported compression algorithm/level combination."""


class IntegrityError(StoreError):
    """Stored data failed a checksum or decompression check."""


class FormatError(StoreError):
    """Table or log file is structurally invalid (magic, truncation, layout)."""


class SortViolationError(StoreError):
    """Table build input was not strictly increasing by key."""


class CapacityError(StoreError):
    """Write rejected: projected compressed size would exceed the capacity budget."""


class RecoveryError(StoreError):
    """Store directory could not be recovered (corrupt manifest)."""


class WorkloadSpecError(StoreError):
    """Workload specification violates its preconditions."""


class ReportFieldError(StoreError):
    """A report row lacks a field the objectives need, or a report CSV cell
    does not parse as its column's type."""


class TierError(StoreError):
    """Backend transport failure (distinct from a clean miss)."""
