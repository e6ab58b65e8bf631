"""Exception hierarchy shared by all modules.

The CLI maps these onto process exit codes: invalid arguments exit 2,
resource limits exit 3, numerical failures exit 4.
"""


class TensorTrafficError(Exception):
    """Base class for all package errors."""


class InvalidArgumentError(TensorTrafficError, ValueError):
    """A caller-supplied argument violates a documented precondition."""


class ResourceLimitError(TensorTrafficError, RuntimeError):
    """A request exceeds a hard combinatorial or memory guard."""


class NumericalFailureError(TensorTrafficError, RuntimeError):
    """An exact identity failed beyond its tolerance."""


class IllConditionedError(NumericalFailureError):
    """Numerical evaluation cannot reach the required precision."""
