"""The error raised when a search cap is reached (the answer is undecided)."""


class CoverageError(RuntimeError):
    """A cap was reached: the radius ladder, the unit boxes or their int64
    range, the unit group index search, the refinements of a root enclosure
    or of the generator logs, or the bisections that separate a sign at a
    root ran out."""
