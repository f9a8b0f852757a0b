"""Exception types shared across the package."""


class FpkError(Exception):
    """Base class for all fpklab errors."""


class UnsupportedDimensionError(FpkError):
    """Spatial dimension outside {1, 2, 3}."""


class GridTooCoarseError(FpkError):
    """Fewer than 4 cells per axis."""


class ShapeError(FpkError):
    """Array shape does not match the grid it claims to live on."""


class NonFiniteFieldError(FpkError):
    """A field value is NaN or infinite."""


#: longest expression source an ExpressionError quotes whole; a longer one
#: is quoted as a window this wide around the offset, with ellipses
SOURCE_WINDOW = 60

#: longest repr of a bad scenario value an error quotes whole; narrower than
#: SOURCE_WINDOW, as the value follows the name of its key on the line
VALUE_WINDOW = 30

#: the longest message a one-line error prints after its "error: "
MESSAGE_WIDTH = 113


def quote_source(source: str, position: int = 0, width: int = SOURCE_WINDOW) -> str:
    """repr(source), or for a source longer than ``width`` the repr of
    a ``width``-wide window around position, with ellipses and the length."""
    if len(source) <= width:
        return repr(source)
    start = min(max(position - width // 2, 0), len(source) - width)
    end = start + width
    head = "..." if start > 0 else ""
    tail = "..." if end < len(source) else ""
    return f"{head}{source[start:end]!r}{tail} ({len(source)} characters)"


def quote_value(value, width: int = VALUE_WINDOW) -> str:
    """repr(value), or if that is longer than ``width``, quote_source's
    window of the value (a string) or of its repr, so an error stays one short line."""
    text = repr(value)
    if len(text) <= width:
        return text
    return quote_source(value if isinstance(value, str) else text, width=width)


class ExpressionError(FpkError):
    """Problem in a coefficient expression; carries the source offset."""

    def __init__(self, message: str, source: str, position: int):
        self.source = source
        self.position = position
        super().__init__(f"{message} at offset {position} in {quote_source(source, position)}")


class UnknownIdentifierError(ExpressionError):
    """Identifier that is neither a variable, the constant pi, nor a known function."""


class PositivityError(FpkError):
    """A coefficient or density sample is not strictly positive."""

    def __init__(self, name: str, cell, value: float):
        self.name = name
        self.cell = tuple(int(i) for i in cell)
        self.value = value
        super().__init__(f"{name} must be strictly positive; got {value!r} at cell {self.cell}")


class EquilibriumBracketError(FpkError):
    """Bisection for the equilibrium normalization shift failed (internal consistency)."""


class NonPositiveDensityError(FpkError):
    """Density has a nonpositive cell, so log f is undefined."""


class StiffnessError(FpkError):
    """Ten consecutive step rejections; carries a diagnostic dump."""

    def __init__(self, message: str, dump: dict):
        self.dump = dump
        super().__init__(f"{message}; diagnostics: {dump}")


class MassConservationError(FpkError):
    """Accepted step violated the mass invariant (internal consistency)."""


class WrongRegimeError(FpkError):
    """Coefficients do not match the requested analysis regime."""


class ThresholdError(FpkError):
    """Initial value at or above the saturation threshold; decay bound undefined."""


class UndefinedRatioError(FpkError):
    """Zero denominator in an empirical functional-inequality ratio."""


class TooShortSeriesError(FpkError):
    """Not enough records for the requested time-series operation."""


class ScenarioError(FpkError):
    """Invalid scenario or sweep configuration."""
