"""Exact spectral sequences of multicomplexes, two ways.

The witness route computes every page inside single columns from the
explicit cycle/boundary/differential formulas; the filtered route
computes the same pages from the column filtration of the total complex.
`mcss.filtered.compare` checks that the two agree, cell by cell.
"""

from .builders import RandomSpec, WallParams, hurtubise, random_mcx, staircase, wall
from .filtered import FilteredPages, HomologyGroup, compare, homology
from .linalg import (
    InclusionError,
    Mat,
    MembershipError,
    QuotientPresentation,
    SubmodulePresentation,
    image,
    kernel,
    snf,
    solve,
    subquotient,
)
from .mcxio import MCXParseError, emit, parse
from .multicomplex import Multicomplex, RelationError, rebase
from .pages import Page, PageDifferential, PageEntry, SpectralPages, WellDefinednessError
from .rings import GF, QQ, ZZ, Ring
from .total import TotalComplex, totalize

__version__ = "0.1.0"
