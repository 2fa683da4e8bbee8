"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Raised for malformed configuration documents or invariant violations.

    The message carries the offending key path (e.g. ``eta_list[2]``) when one
    exists.  The CLI maps this to exit code 1.
    """


class ModeViolationError(RuntimeError):
    """Raised when the measured flux velocity has the wrong sign for the
    declared kernel orientation, which signals a mispaired velocity model."""


class NumericalBlowupError(RuntimeError):
    """Raised when a solver produces NaN or Inf.  Carries the failing step."""

    def __init__(self, message: str, step: int):
        super().__init__(message)
        self.step = step

    def __reduce__(self):
        # Exception pickles as cls(*args), which would drop ``step``
        return type(self), (*self.args, self.step), self.__dict__
