"""Numerical energetics of second-order structured deformations on box grids.

The package top level holds only ``__version__``, so that importing it loads
no numpy; the classes live in their modules (``sdrelax.fields`` and so on).
"""

__version__ = "0.1.0"
