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
        """Refuse count units past limit, before they are built. A count past
        128 bits, which str() may refuse to write, is given by its size."""
        if count > limit:
            bits = (count - 1).bit_length()  # 2^(bits - 1) < count <= 2^bits
            size = count if bits <= 128 else f"more than 2^{bits - 1}"
            raise cls(f"{size} {unit} exceed the limit of {limit}")


class UsageError(GridAlgebraError):
    code = "usage"
    exit_code = 64
