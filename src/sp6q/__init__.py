"""Exact computations for the rank-3 symplectic Lie algebra sp6(C):
the q-analog of Kostant's partition function, Weyl alternation sets,
and weight q-multiplicities."""

__version__ = "0.1.0"

from .qpoly import QPoly
from .root_system import AlphaVector, WeightFW
from .weyl import WeylElement

__all__ = [
    "__version__",
    "QPoly",
    "AlphaVector",
    "WeightFW",
    "WeylElement",
]
