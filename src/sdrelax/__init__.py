"""Numerical energetics of second-order structured deformations on box grids.

The package top level holds only ``__version__`` and ``EstimationError``, so
that importing it loads no numpy; the classes live in their modules
(``sdrelax.fields`` and so on).  ``EstimationError`` lives here so that the
CLI can catch it without loading ``cellformulas``, which re-exports it.
"""

__version__ = "0.1.0"


class EstimationError(RuntimeError):
    """No admissible competitor was generated for a cell problem."""
