"""Exception hierarchy shared by all phaserng modules.

Every error raised on purpose derives from :class:`PhaseRngError`, so callers
can distinguish our failures from genuine bugs.  The subclasses mirror the
failure categories of the public API: bad parameters, degenerate data,
malformed files, missing pipeline inputs, and entropy bookkeeping.  Each
public class carries its CLI exit code as ``exit_code`` (subclasses inherit
it), the only place the codes are declared.  :func:`check_scalar` is the
one guard every module applies to its scalar physical and geometry
arguments (:func:`check_fields` stores what it returns on a dataclass),
:func:`check_flags` the one guard of every switch, and
:func:`check_choice` the one guard of every option set.
"""

import math
import numbers


class PhaseRngError(Exception):
    """Base class for all errors raised by phaserng."""


class ParameterError(PhaseRngError, ValueError):
    """An argument is out of range, non-finite, or otherwise invalid."""

    exit_code = 2


class DegenerateDataError(ParameterError):
    """Input data has no usable structure (constant channel, zero variance)."""


class FormatError(PhaseRngError, ValueError):
    """A file does not conform to its declared format.

    The message names the offending byte offset or line number whenever the
    parser knows it.
    """

    exit_code = 3


class DependencyError(PhaseRngError, RuntimeError):
    """A pipeline stage was requested before its inputs exist."""

    exit_code = 4


class InsufficientEntropyError(PhaseRngError, ValueError):
    """Extractor sizing produced a non-positive output length."""

    exit_code = 5


class InsufficientInputError(PhaseRngError, ValueError):
    """The extractor input is shorter than a single block."""

    exit_code = 5


class SequenceLengthError(PhaseRngError, ValueError):
    """A statistical test received fewer bits than its published minimum."""

    exit_code = 2


def check_scalar(name: str, value, *, zero_ok: bool = False,
                 bounds: tuple[int, int | None] | None = None):
    """``value`` checked and converted, or ParameterError naming ``name``.

    With ``bounds=(lo, hi)`` the value must be a whole number in [lo, hi]
    (no upper limit when ``hi`` is None), returned as an int.  Otherwise it
    must be finite and > 0 (>= 0 with ``zero_ok``), and is returned as a
    float.
    """
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        number = math.nan
    if bounds is not None:
        lo, hi = bounds
        whole = (int(value) if isinstance(value, numbers.Integral)
                 else int(number) if number.is_integer() else None)
        if whole is None or whole < lo or (hi is not None and whole > hi):
            span = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
            raise ParameterError(f"{name} must be an integer {span}, got {value}")
        return whole
    if not (math.isfinite(number) and (number >= 0.0 if zero_ok else number > 0.0)):
        kind = "non-negative" if zero_ok else "positive"
        raise ParameterError(f"{name} must be {kind} and finite, got {value}")
    return number


def check_fields(obj, *names: str, **kwargs) -> None:
    """Set each named field of the frozen dataclass ``obj`` to what
    :func:`check_scalar` returns for it, so equal values render alike."""
    for name in names:
        object.__setattr__(obj, name, check_scalar(name, getattr(obj, name), **kwargs))


def check_flags(obj, *names: str) -> None:
    """Set each named field of the frozen dataclass ``obj`` to a real bool,
    so equal switches render alike; anything but a bool or the integer 0
    or 1 is a ParameterError."""
    for name in names:
        value = getattr(obj, name)
        if not (isinstance(value, numbers.Integral) and value in (0, 1)):
            raise ParameterError(f"{name} must be a bool or 0/1, got {value!r}")
        object.__setattr__(obj, name, bool(value))


def check_choice(name: str, value, choices: tuple[str, ...]):
    """``value`` if it is one of ``choices``, else ParameterError naming ``name``."""
    if value not in choices:
        raise ParameterError(f"unknown {name} {value!r}")
    return value
