"""Exact workbench for the W(2,3,4,5) algebra inside the level-k affine sl2
vertex algebra: PBW states and normal ordering, the vertex-operator mode
calculus, the commutant generators and their product table, null fields,
quotient polynomial images, singular vectors at levels 2..6, Groebner
certificates, and module top-level eigenvalues.
"""

from .scalars import Rat, RatFunc, domain, specialize
from .walgebra import Session

__version__ = "0.1.0"

__all__ = [
    "Rat",
    "RatFunc",
    "domain",
    "specialize",
    "Session",
    "__version__",
]
