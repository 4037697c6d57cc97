"""Exception hierarchy shared across the package, and the one way its
input files are opened."""

import contextlib


class GridSecError(Exception):
    """Base class for all domain errors raised by gridsec."""


class CaseFormatError(GridSecError):
    """Syntactic problem in a case file; carries the offending line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class CaseValidationError(GridSecError):
    """A parsed case violates a structural invariant."""


class IslandingError(GridSecError):
    """A branch outage disconnects part of the network."""

    def __init__(self, message, buses=()):
        super().__init__(message)
        self.buses = frozenset(buses)


class SettingError(GridSecError, ValueError):
    """A solver, PV-curve or screen setting is out of range or empty."""


class InfeasibleError(GridSecError):
    """A power-flow-based procedure cannot start from its base point."""


class OptimizerError(GridSecError):
    """Bad optimizer configuration or a non-finite gradient."""


class DatasetError(GridSecError):
    """Operating-condition generation or dataset handling failed."""


class ExperimentError(GridSecError):
    """Bad experiment configuration or missing experiment inputs."""


class InputEncodingError(GridSecError):
    """An input file is not UTF-8 text."""


@contextlib.contextmanager
def open_text(path):
    """``open(path, encoding="utf-8")`` for reading, where undecodable bytes
    raise ``InputEncodingError`` naming the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise InputEncodingError(f"{path}: not UTF-8 text ({exc})") from None
