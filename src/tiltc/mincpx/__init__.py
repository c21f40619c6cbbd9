"""Brute-force homological oracle over exact rationals.

Realizes a highest-weight block as quiver representations, computes minimal
complexes of tilting objects (one sweep of add(T)-approximations and
pushouts up a projective resolution, then Gaussian elimination on the block
matrix of each differential, one module map between the sums of tilting
summands), and verifies the closed multiplicity formulas against them.  Everything here is independent of the
Hecke-algebra recursions: agreement between the two routes is the point.
"""

from .block import (
    SUITE_NAMES,
    BlockData,
    TiltingCategory,
    cmin_module,
    load_block,
    parse_block_text,
    verify_block,
)
from .complexes import FormalComplex, minimize
from .quiver import (
    AlgebraPresentation,
    ModuleRep,
    ext_dims,
    hom_basis,
    minimal_projective_resolution,
)

__all__ = [
    "AlgebraPresentation",
    "BlockData",
    "FormalComplex",
    "ModuleRep",
    "SUITE_NAMES",
    "TiltingCategory",
    "cmin_module",
    "ext_dims",
    "hom_basis",
    "load_block",
    "minimal_projective_resolution",
    "minimize",
    "parse_block_text",
    "verify_block",
]
