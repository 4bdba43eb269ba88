"""Exception types shared across the package, and a text reader raising them."""


class ApexError(Exception):
    """Base class for all package-specific errors."""


class ShapeError(ApexError):
    """Tensor shapes do not satisfy an operation's contract."""


class NumericDomainError(ApexError):
    """Input lies outside an operation's mathematical domain (e.g. log of 0)."""


class DegenerateInputError(ApexError):
    """Exactly-zero vector where a direction is required."""


class NonFiniteError(ApexError, ValueError):
    """A NaN or infinity where every value must be finite."""


class TrainingDivergedError(ApexError):
    """Non-finite gradient or loss encountered during optimization."""


class AsymmetricSpectrumError(ApexError):
    """Spectrum violates Hermitian symmetry beyond tolerance."""


class ConfigError(ApexError):
    """Invalid or inconsistent configuration values."""


class InputNotFoundError(ApexError, FileNotFoundError):
    """A required input file (a config, benchmark or checkpoint) does not exist."""


class CorruptInputError(ApexError, ValueError):
    """An input file exists but is malformed: a bad or cut-short tensor file,
    or a checkpoint manifest that lacks a key."""


def read_text(path, encoding: str, error: type) -> str:
    """The text of ``path``; bytes that do not decode raise ``error`` naming the file."""
    try:
        with open(path, encoding=encoding) as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not {encoding} text ({exc.reason} at byte {exc.start})") from None
