"""Exception types shared across the package."""


class TagRefineError(Exception):
    """Base class for all errors raised by this package."""


class LoadError(TagRefineError):
    """A knowledge or input file could not be parsed.

    Carries the offending path and, when known, the 1-based line number.
    """

    def __init__(self, path, message, line=None):
        self.path = str(path)
        self.line = line
        where = f"{self.path}:{line}" if line is not None else self.path
        super().__init__(f"{where}: {message}")


class ConfigError(TagRefineError):
    """Invalid configuration value (bad budget, threshold, ranges...)."""


class ContractViolation(TagRefineError):
    """A caller broke a documented precondition."""
