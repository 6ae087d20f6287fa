"""Exact algebraic toolkit for low-complexity colorings of the grid.

Sparse Laurent-polynomial arithmetic over Z, Q and prime fields; pattern
complexity and annihilation checks on finite configuration data;
annihilator construction from low-complexity pattern sets; line-polynomial
decomposition and periodicity classification; a budgeted certificate-
producing emptiness decision for low-complexity SFTs; and the antenna /
cluster co-tiler application layers.
"""

__version__ = "0.1.0"

from .algebra import (
    Domain,
    GF,
    LaurentPoly,
    QQ,
    ZZ,
    line_direction_candidates,
    line_direction_of,
    normalize_direction,
    split_direction,
    univariate_resultant,
)
from .annihilator import (
    AnnihilatorResult,
    find_annihilator,
    find_binomial_product_annihilator,
    verify,
)
from .applications import (
    AntennaProblem,
    ClusterTile,
    antenna_classify,
    antenna_polynomial,
    antenna_verify,
    cotiler_sft,
    exact_cover_on_torus,
)
from .configuration import (
    AnnihilationCheck,
    Lattice,
    Patch,
    Pattern,
    Shape,
    TorusConfig,
    apply_poly,
    complexity,
    detect_periods,
    extract_patterns,
    is_annihilated,
    period_from_line_annihilator,
    period_lattice_index,
    rectangle_complexity_profile,
)
from .linestructure import (
    EliminationReport,
    LineDecomposition,
    PeriodicityVerdict,
    classify,
    eliminate_and_classify_fp,
    line_factor_decomposition,
)
from .sft import (
    Budget,
    Decision,
    SftSpec,
    decide,
    find_periodic_point,
    is_discrete_convex,
    reconfirm_empty,
    verify_witness,
    window_fillable,
)
