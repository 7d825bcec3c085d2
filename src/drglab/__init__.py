"""Exact-arithmetic toolkit for distance-regular graphs: family constructors,
equitable-partition checkers, parameter formulas and bounds, and the
classification decision procedures for diameter >= 5.
"""

from .arrays import FeasibilityReport, IntersectionArray, basic_feasibility
from .bounds import (F_bound, G_bound, claw_f, homogeneity_bounds, mu_bound,
                     phi, srg_bounds)
from .cab import (Cab2Prediction, CabLevelParams, CabReport, LocalSrgData,
                  c2_bound, cab2_closed_form, cab_formula_params,
                  cab_partition_check, predict_cab2, quotient_matrix,
                  quotient_spectrum)
from .classical import (ClassicalParams, TightReport, a1_zero_criterion,
                        beta_bound_check, classical_array,
                        classical_eigenvalues, classify_classical,
                        classify_tight, fundamental_bound, gaussian_binomial,
                        recognize_classical)
from .eigen import EigenvalueList, b_parameter, eigenvalues, intersection_matrix
from .errors import (DomainError, DrgError, InputError, InternalError,
                     PreconditionError, ResourceError, ScopeError,
                     SingularityError, UndecidableComparison)
from .families import FamilySpec, antipodal_quotient, build_family
from .graph import (Graph, VertexPartition, c2_regularity_report,
                    check_distance_regular, clique_union_structure,
                    distance_partition, equitable_quotient, graph_spectrum,
                    induced_subgraph, local_graph, max_coclique, mu_graph,
                    triple_intersection_number)
from .homogeneous import (ClassificationOutcome, ClassifierBundle,
                          HomogeneityReport, cab_equivalence_check,
                          check_i_homogeneous, classify_main,
                          local_spectral_checks, near_polygon_analysis,
                          recognize_named_family, small_diameter_lookup)
from .scalars import ExactScalar, Interval, Surd, exact_cmp, exact_eq
from .srg import (SrgEigen, SrgParams, check_bounds, recognize_srg_family,
                  sims_classify, srg_eigenvalues, srg_from_graph)

__version__ = "0.1.0"
