"""Finite inverse monoids as extended metric spaces.

Partial-bijection arithmetic, Cayley and Schützenberger metrics,
presheaves of unit-edge graphs over the idempotent semilattice, right
actions on them, and constructive quasi-isometry pipelines between orbit
metrics, word metrics, and Rips graphs.
"""

from .action import (
    EtaleAction,
    cayley_self_action,
    check_theta_isometry,
    coboundedness_constant,
    properness_witness,
    validate_action,
)
from .cayley import (
    CayleyMetricTable,
    cayley_metric,
    symmetrize,
    word_distances,
)
from .errors import (
    CapacityError,
    InvgeomError,
    ParseError,
    PreconditionError,
    SizeMismatchError,
    TheoremViolationError,
    ValidationError,
)
from .extmetric import INFINITE, ExtendedMetric, all_pairs_bfs
from .families import (
    BuiltExample,
    ExampleSpec,
    build_example,
    list_examples,
    partial_bijection_count,
    semilattice_times_group,
    symmetric_inverse_monoid,
)
from .geometry import (
    GenerationCertificate,
    GeneratorExtraction,
    MetricPredicateReport,
    QiReport,
    QuasiGenerationCertificate,
    RipsGraph,
    extract_generators,
    orbit_inequalities,
    orbit_map_qi,
    qi_constants,
    quasi_generators_from_metric,
    rips_embedding_bounds,
    rips_graph,
    validate_metric_predicates,
)
from .monoid import (
    InverseMonoid,
    build_from_tables,
    from_table,
    generate_monoid,
    generating_set,
    mulclose,
    natural_leq_matrix,
    trivial_monoid,
)
from .partial_bijection import UNDEFINED, PartialBijection, compose, invert
from .presheaf import (
    MetricPresheaf,
    Semilattice,
    cayley_presheaf,
    validate_presheaf,
)
from .report import CheckResult, Violation
