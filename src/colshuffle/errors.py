"""Exception types shared across the package."""


class ColshuffleError(Exception):
    """Base class for all library errors."""


class ParseError(ColshuffleError):
    """Malformed textual input.

    Carries ``position`` (character offset into the offending string, or
    None when the error is not tied to a single offset).
    """

    def __init__(self, message, position=None):
        super().__init__(message if position is None
                         else f"{message} (at position {position})")
        self.position = position


class SymbolOverlap(ColshuffleError):
    """Shuffle operands share a symbol."""


class NotCoherent(ColshuffleError):
    """Labelled configurations disagree on a shared colour or share symbols."""


class OrderMismatch(ColshuffleError):
    """Series operands have different truncation orders."""


class ZeroSubstitution(ColshuffleError):
    """Attempted to substitute X = 0 into a Laurent object."""


class ColourOutOfRange(ColshuffleError):
    """A colour exceeds the declared colour cutoff."""


class UnknownFamily(ColshuffleError):
    """Unrecognised catalog family identifier."""


class BadParameters(ColshuffleError):
    """Parameters or bounds out of range: catalog family parameters,
    direct-formula blocks, verification-suite bounds, series orders."""


class DeltaMismatch(ColshuffleError):
    """Matrix block dimensions d_i - e_i are not all equal."""


class UnknownSuite(ColshuffleError):
    """Unrecognised verification suite name."""
