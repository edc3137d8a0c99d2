"""Exception types shared across the package."""


class ConfigError(ValueError):
    """A configuration object is internally inconsistent or out of range."""


class InputError(ValueError):
    """An argument violates an operation's preconditions (shape, range, label)."""


class StateError(RuntimeError):
    """An operation was called on state that cannot support it (e.g. empty memory)."""


class StreamFormatError(ValueError):
    """A data file could not be ingested; the message carries the offending row."""


class DivergenceError(ArithmeticError):
    """A learner's training loss or prediction scores stopped being finite;
    `position` is the stream position of the instance that produced them."""

    def __init__(self, position: int):
        super().__init__(f"training loss or scores not finite at stream position {position}")
        self.position = position
