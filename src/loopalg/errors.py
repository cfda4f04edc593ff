"""The error for a failed internal invariant."""


class InvariantError(RuntimeError):
    """A check on loopalg's own results failed: a defect of the program,
    not of its input.  Raised where an ``assert`` would be stripped by
    ``python -O``."""
