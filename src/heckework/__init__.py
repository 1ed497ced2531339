"""Exact-arithmetic workbench for Hecke algebras, cells, involution modules
and equivariant K-rings at desk scale: dihedral groups, rank 3, and rank 4
through An and --matrix."""

from .laurent import LaurentPoly, RationalFn
from .coxeter import CoxeterSystem, CoxeterElement, InfiniteGroupError

__all__ = [
    "LaurentPoly",
    "RationalFn",
    "CoxeterSystem",
    "CoxeterElement",
    "InfiniteGroupError",
]
