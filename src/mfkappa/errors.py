"""Exception hierarchy for mfkappa."""


class MfkError(Exception):
    """Base class for all mfkappa errors; `mfk` exits with exit_code."""

    exit_code = 1


class EmptySignal(MfkError):
    """Signal contains no events."""


class BadWindow(MfkError):
    """Degenerate or inverted time window."""


class BadBoxCount(MfkError):
    """Box count below the minimum of 2."""

    exit_code = 2


class TooFewSamples(MfkError):
    """Sample too small for the auto-sizing rule."""


class SizingViolation(MfkError):
    """Sample/box/bin sizing inequality violated and not overridden."""

    exit_code = 3


class SpecError(MfkError):
    """Invalid generator specification or analysis parameter."""

    exit_code = 2


class TooFewPoints(MfkError):
    """Not enough spectrum points for the requested analysis."""


class NeedsSweep(MfkError):
    """Trend comparison requires at least two feature sets."""


class DepthTooLarge(MfkError):
    """Cascade depth would underflow interval lengths."""


class FormatError(MfkError):
    """Malformed input file."""
