"""Exact tools for 3x3 (and 2x2) integer matrices and their continued fractions.

The package decides whether an integer matrix with irreducible characteristic
polynomial can be conjugated, inside SL(k,Z), into the commutant of a
companion-style (Frobenius) matrix.  The decision runs through exact
commutant lattices, norm-form unit equations with searchable witnesses and
modular refutation certificates, and, independently, through lattice sails
(Klein polyhedra) whose torus quotients give conjugation invariants.

Everything numeric is exact: integers, fractions, and certified sign
decisions from isolating intervals.  Floating point appears only as a
prefilter whose every conclusion is re-checked exactly.
"""

__version__ = "0.1.0"

from .intmat import (
    IntMat,
    CharCubic,
    CharQuad,
    char_cubic,
    char_quad,
    adjugate,
    is_irreducible,
    is_hyperbolic,
    matrix_norm,
    parse_matrix,
    format_matrix,
)
from .census import CensusReport, census, census_records, matrices_in_class
from .commutant import (
    CommutantBasis,
    CommutantError,
    basis_from_pair,
    commutant_basis,
    commutant_lattice,
    express_in_powers,
    power_basis_index,
)
from .forms import (
    BinaryCubicForm,
    BinaryQF,
    ProductForm,
    TernaryCubicForm,
    product_form,
    q2,
    q3,
)
from .solver import (
    Caps,
    Certificate,
    Solvability,
    decide_product,
    decide_quadratic,
    modular_obstruction,
    pell_decide,
    search_box,
)
from .frobenius import (
    REFERENCE_PARAMS,
    FrobeniusParams,
    FrobeniusVerdict,
    classification_report,
    decide_thm2,
    decide_thm3,
    frobenius_matrix,
    hunt,
    oracle_2x2,
    theorem1_sweep,
)
from .sail import (
    CoverageError,
    DirichletGroup,
    EigenCone,
    Face,
    SailComplex,
    TorusInvariant,
    compute_sail,
    dirichlet_generators,
    eigen_cone,
    invariant_distinguish,
    sail_svg,
    torus_invariant_for,
    torus_invariants,
)
from .acceptance import (
    ClaimResult,
    determinism_check,
    format_report,
    run_claims,
)

__all__ = [
    "IntMat", "CharCubic", "CharQuad", "char_cubic", "char_quad", "adjugate",
    "is_irreducible", "is_hyperbolic", "matrix_norm", "parse_matrix", "format_matrix",
    "CensusReport", "census", "census_records", "matrices_in_class",
    "CommutantBasis", "CommutantError", "basis_from_pair", "commutant_basis",
    "commutant_lattice", "express_in_powers", "power_basis_index",
    "BinaryCubicForm", "BinaryQF", "ProductForm",
    "TernaryCubicForm", "product_form", "q2", "q3",
    "Caps", "Certificate", "Solvability", "decide_product", "decide_quadratic",
    "modular_obstruction", "pell_decide", "search_box",
    "REFERENCE_PARAMS", "FrobeniusParams", "FrobeniusVerdict",
    "classification_report", "decide_thm2", "decide_thm3", "frobenius_matrix",
    "hunt", "oracle_2x2", "theorem1_sweep",
    "CoverageError", "DirichletGroup", "EigenCone", "Face", "SailComplex",
    "TorusInvariant", "compute_sail", "dirichlet_generators", "eigen_cone",
    "invariant_distinguish", "sail_svg", "torus_invariant_for", "torus_invariants",
    "ClaimResult", "determinism_check", "format_report", "run_claims",
]
