"""Finite inverse monoids as extended metric spaces.

Partial-bijection arithmetic, Cayley and Schützenberger metrics,
presheaves of unit-edge graphs over the idempotent semilattice, right
actions on them, and constructive quasi-isometry pipelines between orbit
metrics, word metrics, and Rips graphs.

The names below are imported from their modules on first use (PEP 562),
so a caller pays only for the layers it reads: building a monoid loads
the algebra layer alone.
"""

import importlib

_EXPORTS = {
    "action": (
        "EtaleAction",
        "cayley_self_action",
        "check_theta_isometry",
        "coboundedness_constant",
        "properness_witness",
        "validate_action",
    ),
    "cayley": ("CayleyMetricTable", "cayley_metric", "symmetrize", "word_distances"),
    "errors": (
        "CapacityError",
        "InvgeomError",
        "ParseError",
        "PreconditionError",
        "SizeMismatchError",
        "TheoremViolationError",
        "ValidationError",
    ),
    "extmetric": ("INFINITE", "ExtendedMetric", "all_pairs_bfs"),
    "families": (
        "BuiltExample",
        "ExampleSpec",
        "build_example",
        "list_examples",
        "partial_bijection_count",
        "semilattice_times_group",
        "symmetric_inverse_monoid",
    ),
    "geometry": (
        "GenerationCertificate",
        "GeneratorExtraction",
        "MetricPredicateReport",
        "QiReport",
        "QuasiGenerationCertificate",
        "RipsGraph",
        "extract_generators",
        "orbit_inequalities",
        "orbit_map_qi",
        "qi_constants",
        "quasi_generators_from_metric",
        "rips_embedding_bounds",
        "rips_graph",
        "validate_metric_predicates",
    ),
    "monoid": (
        "InverseMonoid",
        "build_from_tables",
        "from_table",
        "generate_monoid",
        "generating_set",
        "mulclose",
        "natural_leq_matrix",
        "trivial_monoid",
    ),
    "partial_bijection": ("UNDEFINED", "PartialBijection", "compose", "invert"),
    "presheaf": ("MetricPresheaf", "Semilattice", "cayley_presheaf", "validate_presheaf"),
    "report": ("CheckResult", "Violation"),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__():
    return sorted({*globals(), *_MODULE_OF})
