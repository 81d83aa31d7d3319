"""koszulkit: exact Koszul calculus of quadratic quiver algebras.

The package computes, over the rationals or a prime field, the Koszul
homology and cohomology of a quadratic quiver algebra together with its cup
and cap products, higher Koszul calculus, the bimodule Koszul complex, and
the duality and degree-2 Hochschild comparison machinery for preprojective
algebras of graphs.
"""

__version__ = "0.1.0"

from .fields import GF, QQ, FieldMismatchError, field_from_tag
from .quiver import (Graph, PreprojectiveSpec, QuadraticPresentation,
                     Quiver, graph_from_json, paths_of_weight,
                     presentation_from_json, preprojective_presentation)
from .algebra import GradedAlgebra, build_graded_algebra
from .koszul import Chain, Cochain, KoszulCalculus, MODULE_A, MODULE_K
from .homology import (BimoduleHomology, CalculusSpaces, HigherSpaces,
                       higher_calculus, koszul_homology)

__all__ = [
    "GF", "QQ", "FieldMismatchError", "field_from_tag",
    "Graph", "PreprojectiveSpec", "QuadraticPresentation", "Quiver",
    "graph_from_json", "paths_of_weight", "presentation_from_json",
    "preprojective_presentation",
    "GradedAlgebra", "build_graded_algebra",
    "Chain", "Cochain", "KoszulCalculus", "MODULE_A", "MODULE_K",
    "BimoduleHomology", "CalculusSpaces", "HigherSpaces",
    "higher_calculus", "koszul_homology",
    "__version__",
]
