"""Exception types shared across the package."""


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
