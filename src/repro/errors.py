"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single base class. Subsystems raise the most
specific subclass that applies.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class NetlistError(ReproError):
    """Structural problem in a hardware netlist (bad wiring, cycles)."""


class SimulationError(ReproError):
    """A netlist could not be simulated (e.g. combinational loop)."""


class RegexSyntaxError(ReproError):
    """A token regular expression could not be parsed."""

    def __init__(self, message: str, pattern: str, position: int) -> None:
        super().__init__(f"{message} (pattern {pattern!r}, position {position})")
        self.pattern = pattern
        self.position = position


class GrammarError(ReproError):
    """A grammar definition is malformed or inconsistent."""


class GrammarSyntaxError(GrammarError):
    """A Yacc-style grammar file could not be parsed."""

    def __init__(self, message: str, line: int | None = None) -> None:
        location = f" (line {line})" if line is not None else ""
        super().__init__(f"{message}{location}")
        self.line = line


class DTDSyntaxError(GrammarError):
    """A Document Type Definition could not be parsed."""


class GenerationError(ReproError):
    """The hardware generator could not build a tagger for a grammar."""


class UnsupportedPatternError(GenerationError):
    """A token pattern uses a construct the hardware templates lack."""


class EncoderError(GenerationError):
    """Token index assignment failed (e.g. too many conflicting tokens)."""


class DeviceError(ReproError):
    """An FPGA device model was misused (unknown device, over capacity)."""


class ParseError(ReproError):
    """A software reference parser rejected its input."""

    def __init__(self, message: str, position: int | None = None) -> None:
        location = f" (at byte {position})" if position is not None else ""
        super().__init__(f"{message}{location}")
        self.position = position


class ArtifactError(ReproError):
    """A blob is corrupt, truncated, or built for another interpreter."""


class BackendError(ReproError):
    """A back-end processor (router, filter) was misconfigured."""
