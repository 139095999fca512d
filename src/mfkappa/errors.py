"""Exception hierarchy for mfkappa.

Each class sets the exit code of `mfk` once, and its subclasses share it:
MfkError 1 (input that cannot be read, FormatError included), SpecError 2
(a bad generator spec, flag or box count, BadBoxCount included) and
SizingViolation 3. A class exists only where a caller tells it apart.
"""


class MfkError(Exception):
    """Base class for all mfkappa errors; `mfk` exits with exit_code."""

    exit_code = 1


class FormatError(MfkError):
    """Malformed input file."""


class SpecError(MfkError):
    """Invalid generator specification or analysis parameter."""

    exit_code = 2


class BadBoxCount(SpecError):
    """Box count below 2, or past the largest array length."""


class SizingViolation(MfkError):
    """Sample/box/bin sizing inequality violated and not overridden."""

    exit_code = 3
