"""Exception hierarchy shared by all modules.

``cli.main`` maps these onto stable exit codes, each with a one-line message:

- ConfigError -> 2 (``config error: ...``);
- SetupError -> 2 (``setup error: ...``). Only library callers of
  ``linear_risk.monte_carlo_risks`` can raise it now: the config loader checks
  ``[risk]``, so every setup the ``risk`` command builds has the same rows;
- NumericError, ShapeError and ContractError -> 3 (``numeric failure: ...``);
- DataFormatError and OSError -> 4 (``i/o failure: ...``).

EvaluationError has no code of its own: ``train`` raises it inside a trial,
which records it as that trial's failure.
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
    """The setups one Monte-Carlo call shares have different numbers of rows."""


class EvaluationError(PiDualError):
    """The evaluation process died, or raised an error that could not be sent back."""
