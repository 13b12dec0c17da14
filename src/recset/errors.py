"""Exception types shared across the library."""


class RecsetError(Exception):
    """Base class for all recset errors."""


class ValidationError(RecsetError, ValueError):
    """Malformed input: bad base, digit out of range, broken automaton document."""


class PreconditionError(RecsetError, ValueError):
    """An operation was called outside its contract (dependent bases, n >= m, ...)."""


class FiniteSetError(PreconditionError):
    """An operation that needs an infinite set was given a finite one."""


class InsufficientDataError(PreconditionError):
    """A scan found too few elements to report anything."""


class SearchCapExceededError(RecsetError):
    """A bounded search hit its safety cap before finding an answer.

    The two bounds are `lengths.DEFAULT_SUBSET_CAP` depths of a component's
    length recurrence and `numeration.MAX_CERTIFICATE_BITS` bits of a Kronecker
    certificate's powers.  The message says how far the search got; `cap` holds
    the bound, so callers can tell "not within it" from "does not exist".
    """

    def __init__(self, message: str, cap: int):
        super().__init__(message)
        self.cap = cap
