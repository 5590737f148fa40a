"""Exception types shared across the package, and the checks that raise them."""

import math
import numbers
import operator

import numpy as np


class AdathreshError(Exception):
    """Base class for all errors raised by this package."""


class InputContractError(AdathreshError, ValueError):
    """An argument or input file violates a documented precondition."""


class DimensionMismatchError(InputContractError):
    """Vector length differs from the expected dimension."""


class ZeroVectorError(InputContractError):
    """A zero-norm vector was supplied where a direction is required."""


class EmptyGalleryError(InputContractError):
    """The operation needs a non-empty gallery."""


class GalleryFormatError(InputContractError):
    """A persisted gallery file is malformed or internally inconsistent."""


class DegenerateDataError(AdathreshError):
    """Similarity data too degenerate to support adaptation.

    Raised for zero-variance sample sets, statistically identical auto and
    cross distributions, or sample sets too small to fit a Gaussian.
    """


def utf8_error(path) -> GalleryFormatError:
    """The format error for a text file that is not valid UTF-8, naming the
    first line that holds a bad byte. No byte of a multi-byte UTF-8 sequence
    is a newline, so the file decodes as a whole exactly when each line
    decodes alone: the file is checked one line at a time."""
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, 1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as exc:
                return GalleryFormatError(f"{path}:{lineno}: not valid UTF-8: {exc.reason}")
    return GalleryFormatError(f"{path}: not valid UTF-8")


def real_number(value, name: str) -> float:
    """``value`` as a Python float: a real number (so no ``numpy.bool_``), not a bool nor NaN."""
    # a Python float, the usual value, skips the abstract-class check
    if type(value) is not float:
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise InputContractError(f"{name} must be a real number, got {type(value).__name__}")
        try:
            value = float(value)
        except OverflowError:  # an int too large for a float is an infinity of its sign
            value = math.inf if value > 0 else -math.inf
    if math.isnan(value):
        raise InputContractError(f"{name} must not be NaN")
    return value


def whole_number(value, name: str) -> int:
    """``value`` as a Python int: what ``operator.index`` takes (so no float), not a bool."""
    if isinstance(value, (bool, np.bool_)):
        raise InputContractError(f"{name} must be an integer, not a bool")
    try:
        return operator.index(value)
    except TypeError as exc:
        raise InputContractError(
            f"{name} must be an integer, got {type(value).__name__}"
        ) from exc
