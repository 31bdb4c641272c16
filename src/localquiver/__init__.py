"""Exact computations with quivers and path algebras with relations.

The package computes, over the rationals or a cyclotomic field: doubled
quivers and preprojective relations, superpotential calculus, truncated
noncommutative rewriting (associated-graded ideals, gradability, minimal
relation counts), Hom/Ext linear algebra and local quivers of semisimple
modules, representation-scheme ideals and tangent spaces, deformation
expansions of relation systems, and structural recognition of preprojective
and superpotential relation shapes.  A small session language drives all of
it from the command line.
"""

from .quiver import (Arrow, DimVector, Quiver, cb_arrow_count,
                     dim_rep_preproj, gl_dim, rep_space_dim,
                     surface_local_quiver)
from .scalars import Field, FieldElem, QQ, parse_scalar
from .ncalg import (NCPoly, PathWord, Presentation, Superpotential,
                    cyclic_derivative, cyclic_symmetrize,
                    group_algebra_presentation, heisenberg_presentation,
                    preprojective_relations, right_strip,
                    superpotential_relations, surface_group_presentation)
from .rewrite import (GrIdealReport, RewriteSystem, complete, graded_dims,
                      gr_ideal, is_gradable, minimal_relation_counts,
                      normal_form)
from .extcalc import (LocalQuiverResult, Representation, SemisimpleModule,
                      check_representation, cocycle_dim, ext1_dim, hom_dim,
                      is_simple, load_representation, local_quiver)
from .repvariety import (CommPoly, RepIdeal, orbit_dim, path_function,
                         rep_ideal, tangent_space_dim)
from .deform import (FamilySpec, TensorSeries, expand_relation,
                     geometric_inverse, load_family, local_model_relations,
                     tangent_cone_relations, ts_multiply)
from .structure import (PreprojectiveVerdict, QuadraticPairing,
                        SuperpotentialVerdict, extract_quadratic,
                        preprojective_form, superpotential_form)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
