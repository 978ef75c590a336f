"""Exception types shared across the package."""

from __future__ import annotations

__all__ = ["ParseError", "ValidationError"]


class ParseError(ValueError):
    """A file could not be parsed; carries the 1-based line number when known.

    The message reads ``[<path>: ][line <n>: ]<message>``; ``reason`` holds
    ``<message>`` alone, and ``path`` the path, or None if none is named.
    """

    def __init__(self, message: str, line: int | None = None, *, path: str | None = None):
        self.line, self.path, self.reason = line, path, message
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(f"{path}: {message}" if path is not None else message)


class ValidationError(ValueError):
    """Raised when an operation requires a valid document/corpus but got violations."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        head = "; ".join(self.violations[:3])
        more = f" (+{len(self.violations) - 3} more)" if len(self.violations) > 3 else ""
        super().__init__(f"{len(self.violations)} validation violation(s): {head}{more}")
