"""Exception hierarchy shared by all modules.

Every error carries a stable ``code`` string (used by the CLI) and an
``exit_code`` for process-level reporting.
"""


class GridAlgebraError(Exception):
    code = "error"
    exit_code = 70


class DomainMismatch(GridAlgebraError):
    code = "domain-mismatch"


class ZeroPolynomial(GridAlgebraError):
    code = "zero-polynomial"


class ShapeTooLarge(GridAlgebraError):
    code = "shape-too-large"


class EmptyValidRegion(GridAlgebraError):
    code = "empty-valid-region"


class NotLowComplexity(GridAlgebraError):
    code = "not-low-complexity"


class NotALinePolynomial(GridAlgebraError):
    code = "not-a-line-polynomial"


class NotAnnihilated(GridAlgebraError):
    code = "not-annihilated"


class WindowSmallerThanShape(GridAlgebraError):
    code = "window-smaller-than-shape"


class InvalidAlphabet(GridAlgebraError):
    code = "invalid-alphabet"


class InputFormatError(GridAlgebraError):
    code = "input-format"
    exit_code = 65


class InputTooLarge(GridAlgebraError):
    code = "input-too-large"
    exit_code = 65

    @classmethod
    def check(cls, count: int, limit: int, unit: str) -> None:
        """Refuse count units past limit, before they are built."""
        if count > limit:
            raise cls(f"{count} {unit} exceed the limit of {limit}")


class UsageError(GridAlgebraError):
    code = "usage"
    exit_code = 64
