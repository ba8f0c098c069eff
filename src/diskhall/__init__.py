"""Exact derived Hall algebras of type-A quivers over finite fields,
with the relation families of their shifted-generator presentations."""

from .freealg import (Generator, NCPolynomial, Relation, iterated_bracket, q_bracket,
                      zab, zarc, zgen)
from .hall import HallAlgebra, HallElement
from .presentation import (RelationSet, alpha_map, beta_map, cyclic_family,
                           minimal_disk_relations, naive_presentation, pbw_normal_form,
                           pbw_relations, phi_map, psi_map, quiver_relations,
                           s_relations, shared_algebra, verify_relation_set)
from .repq import DerivedCategory, DerivedObject, FiniteField
from .scalar import ONE, Q, V, QuadraticScalar, RationalFunctionV, evaluate_at
from .surface import (FoliationData, GluingSpec, GradedChord, MarkedDisk,
                      SurfaceConfig, angle, boundary_skein, crossing, glue,
                      load_config, self_skein, skein_commutator, span, standard_form)

__version__ = "0.1.0"
