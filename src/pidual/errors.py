"""Exception hierarchy shared by all modules.

``cli.main`` maps these onto stable exit codes, each with a one-line message:

- ConfigError -> 2 (``config error: ...``);
- NumericError, ShapeError and ContractError -> 3 (``numeric failure: ...``).
  A ContractError is a library caller's broken precondition, such as
  ``linear_risk.monte_carlo_risks`` on setups of different row counts, which
  the ``risk`` command's config checks rule out;
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


class EvaluationError(PiDualError):
    """The evaluation process died, or raised an error that could not be sent back."""
