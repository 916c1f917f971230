"""Exception types shared across the library and the CLI exit-code mapping."""


class BurgessError(Exception):
    """Base class; the CLI maps these to exit code 2 (invalid input)."""


class CompositeModulus(BurgessError, ValueError):
    """The modulus is below 3 or failed the trial-division primality
    certificate."""


class TableLimitExceeded(BurgessError):
    """A q-sized table above the configured cap, or a cap at its ceiling."""


class TrivialCharacter(BurgessError):
    """Operation requires a nontrivial character (index m != 0)."""


class WindowTooLarge(BurgessError):
    """Window length V exceeds the period q."""


class LimitTooLarge(BurgessError):
    """Sieve table limit outside the supported range."""


class GuardViolated(BurgessError):
    """A configured guard (e.g. z^C <= U) does not hold."""


class InstanceTooLarge(BurgessError):
    """Instance above a guard: brute-force size or int64 residue products."""


class DegenerateParams(BurgessError):
    """Derived averaging parameters have U < 2, so z is undefined."""


class UnknownVariant(BurgessError):
    """Bound variant name not in the registry."""
