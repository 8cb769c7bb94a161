"""Exception types shared across modules."""


class ConfigurationError(ValueError):
    """An experiment or CLI configuration violates a precondition."""


class CapacityError(RuntimeError):
    """Over a capacity limit: the array budget, int32 CSR indices, n <= 8 tree enumeration."""


class InfeasibleError(ValueError):
    """No path satisfies the requested hop budget."""
