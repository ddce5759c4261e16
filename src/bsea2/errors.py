"""Exception hierarchy. The CLI maps these to exit code 1 and prints the
class name on stderr, so error names are part of the scripting contract."""


class Bsea2Error(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidPolynomial(Bsea2Error):
    """Feedback polynomial violates a structural requirement."""


class WrongKeyLength(Bsea2Error):
    """Secret key bit length does not match the instance spec."""


class InvalidKey(Bsea2Error):
    """Key text holds a character that is not a hex digit, or sets a pad
    bit above the key's length."""


class DegenerateKey(Bsea2Error):
    """Some register fill extracted from the key is all-zero."""


class EmptyCorpus(Bsea2Error):
    """Plaintext corpus contained no bytes."""


class UnknownKeyClass(Bsea2Error):
    """keygen was asked for a key class the spec does not have: a label
    partition does not list, or "any" on a spec with no attackable K'."""


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


class BeamTooLarge(Bsea2Error):
    """The beam would outgrow the candidate limit at some stage; a lower
    retention k keeps it smaller."""


class EmptyBeam(Bsea2Error):
    """No attack candidate survived key validation; ``transcript`` is the
    failed run's transcript."""

    def __init__(self, message: str, transcript: dict):
        super().__init__(message)
        self.transcript = transcript


class UnreadableInput(Bsea2Error):
    """An input file could not be opened or read."""


class UnwritableOutput(Bsea2Error):
    """An output file could not be created or written."""


class InvalidSpec(Bsea2Error):
    """A spec file was read but does not describe an instance."""


class InvalidSidecar(Bsea2Error):
    """A sample's .meta.json was read but gives no usable bit count."""


class WrongLength(Bsea2Error):
    """Bit stream has the wrong length for the requested statistical test."""


class InvalidBits(Bsea2Error):
    """A bit stream holds a value other than 0 or 1."""
