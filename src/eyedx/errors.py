"""Exception types shared across the package.

The CLI maps these onto exit codes, so raising the right type matters more
than the message text: UsageError means a bad command line, DataError bad
input, NumericError that the computation itself went wrong (NaN loss, shape
mismatch mid-training).
"""


class EyedxError(Exception):
    """Base class for package errors."""


class UsageError(EyedxError):
    """Flags that cannot go together, or a value no run could use."""


class DataError(EyedxError):
    """Malformed or unusable input data, config, or file format."""


class NumericError(EyedxError):
    """Numeric failure during training or inference."""
