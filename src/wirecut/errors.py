"""Exception types shared across the toolkit."""

__all__ = ["WirecutError", "InfeasibleBudgetError", "ResourceLimitError"]


class WirecutError(Exception):
    """Base class for domain errors raised by this package."""


class InfeasibleBudgetError(WirecutError):
    """Side budget too small: every wire needs at least three sides."""


class ResourceLimitError(WirecutError):
    """A problem exceeds a built-in size guard.

    The oracle refuses scans beyond its sample limit. The allocation optimizer
    refuses budgets that could give one wire more than 20,000 sides, which
    bounds the per-count tables a process keeps, exact areas included:
    about 11 MB filled up to that limit.
    """
