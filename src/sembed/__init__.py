"""Spectral element solver for Poisson-reaction problems on unfitted
triangular meshes with shifted-boundary treatment of Dirichlet, Neumann,
and Robin conditions."""

from importlib import import_module

__version__ = "1.0.0"

_EXPORTS = {
    "ReferenceElement": "refelem",
    "build_reference_element": "refelem",
    "lebesgue_constant": "refelem",
    "vandermonde_shift_study_1d": "refelem",
    "TriMesh": "meshing",
    "read_gmsh": "meshing",
    "write_gmsh": "meshing",
    "generate_structured_square": "meshing",
    "generate_structured_disk": "meshing",
    "Circle": "geometry",
    "Rectangle": "geometry",
    "Difference": "geometry",
    "classify_elements": "embedding",
    "build_surrogate": "embedding",
    "conformal_surrogate": "embedding",
    "SurrogateDomain": "embedding",
    "BoundaryProblem": "assembly",
    "DirichletBC": "assembly",
    "NeumannBC": "assembly",
    "RobinBC": "assembly",
    "AssembledSystem": "assembly",
    "assemble": "assembly",
    "solve_direct": "solve",
    "condition_number": "solve",
    "SolveReport": "solve",
    "ExperimentSpec": "experiments",
    "random_embedding_assessment": "experiments",
    "ap_cascade": "experiments",
    "ManufacturedSolution": "mms",
    "l1_error": "mms",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name in _EXPORTS:
        module = import_module(f".{_EXPORTS[name]}", __name__)
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
