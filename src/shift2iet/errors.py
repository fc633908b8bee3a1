"""Error type shared by the whole package."""


class InputError(ValueError):
    """Raised when an argument violates a documented precondition.

    The CLI maps this to exit code 2; everything else that goes wrong is a bug.
    """


class CountingLengthError(InputError):
    """A counting length below the longest word it has to count; `least` is
    the shortest one that counts them all."""

    def __init__(self, message: str, least: int):
        super().__init__(message)
        self.least = least
