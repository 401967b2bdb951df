"""Exception types shared across the package."""


class SubtilingError(Exception):
    """Base class for all package-specific errors."""


class InvalidWord(SubtilingError):
    """A word contains a letter outside the declared alphabet."""


class LengthCapExceeded(SubtilingError):
    """An iteration would produce a word longer than the configured cap."""


class NoSeedFound(SubtilingError):
    """No legal two-letter word has a left letter on a cycle of the
    last-letter map and a right letter on a cycle of the first-letter
    map, so no power of the substitution has a legal two-sided fixed
    point."""


class FactorizationFailed(SubtilingError):
    """A rational bisection midpoint, no real root, or a non-monic input."""


class DegreeCapExceeded(SubtilingError):
    """The number of factors modulo a prime exceeds DEGREE_CAP."""


class EigenvectorDefect(SubtilingError):
    """The dominant eigenspace is not one-dimensional over the base field."""


class FactRejected(SubtilingError):
    """A report's setup fact fails its check in
    `SuspensionSystem.from_facts`; the message starts with the fact's
    name."""

    def __init__(self, fact: str, message: str):
        super().__init__(f"{fact}: {message}")


class WindowNotCovered(SubtilingError):
    """A requested window sticks out of the available patch support."""


class EmptyWindow(SubtilingError):
    """A window holds no same-color return vector to sample from."""


class InvalidBound(SubtilingError):
    """A bound is not an integer in its allowed range."""


class NotASubmodule(SubtilingError):
    """Quotient requested for a lattice that is not contained in the other."""


class SpecSyntaxError(SubtilingError):
    """Substitution spec text failed to parse."""

    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


class UnknownCorpusEntry(SubtilingError):
    """Requested built-in substitution id does not exist."""
