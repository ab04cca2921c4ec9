"""Spectral element solver for Poisson-reaction problems on unfitted
triangular meshes with shifted-boundary treatment of Dirichlet, Neumann,
and Robin conditions."""

from .assembly import (
    AssembledSystem, BoundaryProblem, DirichletBC, NeumannBC, RobinBC, assemble,
)
from .embedding import (
    SurrogateDomain, build_surrogate, build_surrogates, classify_elements,
    conformal_surrogate,
)
from .experiments import ExperimentSpec, ap_cascade, random_embedding_assessment
from .geometry import Circle, Difference, Rectangle
from .meshing import (
    TriMesh, generate_structured_disk, generate_structured_square,
)
from .mms import ManufacturedSolution, l1_error
from .refelem import (
    ReferenceElement, build_reference_element, lebesgue_constant,
    vandermonde_shift_study_1d,
)
from .solve import SolveReport, condition_number, solve_direct

__version__ = "1.0.0"

__all__ = [
    "AssembledSystem", "BoundaryProblem", "Circle", "Difference", "DirichletBC",
    "ExperimentSpec", "ManufacturedSolution", "NeumannBC", "Rectangle",
    "ReferenceElement", "RobinBC", "SolveReport", "SurrogateDomain", "TriMesh",
    "ap_cascade", "assemble", "build_reference_element", "build_surrogate",
    "build_surrogates", "classify_elements", "condition_number", "conformal_surrogate",
    "generate_structured_disk", "generate_structured_square", "l1_error",
    "lebesgue_constant", "random_embedding_assessment", "solve_direct",
    "vandermonde_shift_study_1d",
]
