"""Exception types shared across the package."""

from contextlib import contextmanager


class FrameLabError(Exception):
    """Base class for all framelab errors."""


class GridMismatchError(FrameLabError):
    """Operands are sampled on different grids."""


class HypothesisError(FrameLabError):
    """A check was invoked on a system that violates the check's hypothesis."""


class ReconstructionError(FrameLabError):
    """Iterative reconstruction failed to reach the requested tolerance."""

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class NotInSpanError(ReconstructionError):
    """The target function has a component outside the system's span."""


class ConfigError(FrameLabError):
    """Invalid run configuration: schema violation, bad path, or bad inputs."""


class ExprError(FrameLabError):
    """Multiplier expression failed to parse or evaluate.

    ``offset`` is the byte offset into the source where the problem was
    detected, when known.
    """

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (at offset {offset})"
        super().__init__(message)
        self.offset = offset


@contextmanager
def input_file(path, what: str):
    """Turn a malformed input file into a ConfigError that names the file.

    Parse and validation failures inside the block (``KeyError``,
    ``TypeError``, ``ValueError``, which covers bad JSON) become
    "``path``: bad ``what`` (...)".
    """
    try:
        yield
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: bad {what} ({type(exc).__name__}: {exc})") from exc
