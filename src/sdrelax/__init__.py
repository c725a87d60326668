"""Numerical energetics of second-order structured deformations on box grids."""

__version__ = "0.1.0"

from .fields import (  # noqa: F401
    BoxDomain,
    FacetTable,
    PiecewiseAffineField,
    SecondOrderField,
    unit_cube,
)
