"""Shared exception types."""


class SingularPointError(ValueError):
    """Raised where a closed form is singular (zero parameter vector, zero angle,
    non-finite entries, ...), where its value overflows the floats, or where
    a Hessian's rounding breaks its symmetry or its spectrum comes out complex.

    Callers that need a value at such points fall back to the Monte-Carlo
    oracle or to the cancelled limit forms.
    """


class BlowUpError(RuntimeError):
    """Raised when an ODE trajectory or an SGD run leaves the finite floats.

    ``time`` carries the first flow time (for SGD, the step) at which a
    non-finite state, or a non-finite logged SGD error, was seen.
    """

    def __init__(self, message: str, time: float):
        super().__init__(message)
        self.time = time
