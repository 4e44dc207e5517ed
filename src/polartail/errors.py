"""Exception hierarchy shared across the package.

Everything raised on purpose derives from PolarTailError so callers can
catch library faults without swallowing programming errors.
"""


class PolarTailError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(PolarTailError, ValueError):
    """A parameter is missing, out of range, or inconsistent.

    The message always names the offending field or argument.
    """


class UnknownFamilyError(ParameterError):
    """A family tag does not name any builtin family."""


class ConfigError(PolarTailError, ValueError):
    """A configuration file or mapping cannot be interpreted."""


class BracketError(PolarTailError):
    """A root bracket is infeasible at the requested threshold."""


class MonotonicityError(PolarTailError):
    """A function required to be monotone fails the grid check."""


class NonConvergence(PolarTailError):
    """An iterative numeric procedure stalled above its tolerance."""


class BudgetExceeded(PolarTailError):
    """A sampling run hit its proposal budget before finishing."""


class CaseMismatch(PolarTailError):
    """A requested corollary case contradicts the model's declared regime."""
