"""Exception hierarchy. The CLI maps these to exit code 1 and prints the
class name on stderr, so error names are part of the scripting contract."""


class Bsea2Error(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidPolynomial(Bsea2Error):
    """Feedback polynomial violates a structural requirement."""


class PeriodBoundExceeded(Bsea2Error):
    """check_period refused a degree above the exhaustive-check bound."""


class WrongKeyLength(Bsea2Error):
    """Secret key bit length does not match the instance spec."""


class DegenerateKey(Bsea2Error):
    """Some register fill extracted from the key is all-zero."""


class EmptyCorpus(Bsea2Error):
    """Plaintext corpus contained no bytes."""


class UnbiasedModel(Bsea2Error):
    """p' = 0.5 carries no signal; sample-length estimate undefined."""


class Unattackable(Bsea2Error):
    """No usable mask sequence covers every register."""

    def __init__(self, uncovered):
        self.uncovered = tuple(sorted(uncovered))
        names = ", ".join(f"R{r}" for r in self.uncovered)
        super().__init__(f"no usable mask covers register(s) {names}")


class StageTooLarge(Bsea2Error):
    """Stage exponent exceeds the configured joint-state budget."""


class MissingKnownRegister(Bsea2Error):
    """Stage mask consumes a register that was not recovered earlier."""


class EmptyBeam(Bsea2Error):
    """No attack candidate survived key validation."""


class UnreadableInput(Bsea2Error):
    """An input file could not be opened or read."""


class InvalidSpec(Bsea2Error):
    """A spec file was read but does not describe an instance."""


class WrongLength(Bsea2Error):
    """Bit stream has the wrong length for the requested statistical test."""
