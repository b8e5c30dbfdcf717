"""Exception hierarchy shared by all modules.

The CLI maps these onto stable exit codes: ConfigError -> 2,
NumericError -> 3, DataFormatError and OSError -> 4.
"""


class PiDualError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(PiDualError):
    """Array dimensions do not compose."""


class ContractError(PiDualError):
    """A precondition was violated (stale tape, empty split, degenerate input)."""


class NumericError(PiDualError):
    """Non-finite values or an ill-conditioned linear system."""


class ConfigError(PiDualError):
    """Invalid or inconsistent configuration."""


class DataFormatError(PiDualError):
    """Malformed dataset file; message carries the offending row or column."""


class SetupError(PiDualError):
    """A linear risk setup is inconsistent, or so are the setups one Monte-Carlo call shares."""


class EvaluationError(PiDualError):
    """The evaluation process died, or raised an error that could not be sent back."""
