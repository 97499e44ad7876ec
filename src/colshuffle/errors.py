"""Exception types shared across the package, and the resource contract:
the one work cap and the two checks that refuse a bound with
``BadParameters``."""

# Every exponential path (shuffles, the compat sweep, the exhaustive
# suites, series expansion, the Hadamard kernel's packed ints) refuses work
# counted past this many units before it starts.
MAX_SHUFFLE_WORDS = 1_000_000


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


class UnknownFamily(ColshuffleError):
    """Unrecognised catalog family identifier."""


class BadParameters(ColshuffleError):
    """Parameters or bounds out of range: catalog family parameters,
    direct-formula blocks, verification-suite bounds, series orders."""


class DeltaMismatch(ColshuffleError):
    """Matrix block dimensions d_i - e_i are not all equal."""


class UnknownSuite(ColshuffleError):
    """Unrecognised verification suite name."""


def check_at_least(minimum: int, **bounds: int) -> None:
    """Raise ``BadParameters`` naming the first bound below ``minimum``."""
    for name, value in bounds.items():
        if value < minimum:
            raise BadParameters(f"{name} must be >= {minimum}, got {value}")


def check_cap(count: int, what: str, cap: int) -> None:
    """Raise ``BadParameters`` if ``count`` is over ``cap``.  ``what`` is a
    template whose ``{}`` stands for the count; it is formatted only on
    refusal."""
    if count > cap:
        raise BadParameters(f"{what.format(count)}, over the cap of {cap}")
