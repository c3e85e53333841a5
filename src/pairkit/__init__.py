"""pairkit: exact pair-theoretic invariant computations for unipotent group
actions on affine varieties, in characteristic 0 and p.

Importing the package loads no submodule: each exported name is imported
from its module on first access (PEP 562), so `from pairkit import X` loads
only what X needs, and a CLI call only the modules its verb runs.
"""

# defining module -> the names exported from it
_EXPORTS = {
    "actions": ("CoAction", "GmCoAction", "gm_weight_components", "is_semi_invariant",
                "validate_action"),
    "cli": ("mukai_predicate",),
    "errors": ("AlgebraError", "InternalCheckError", "PairkitError", "ParseError",
               "UnsupportedMethodError", "ValidationError"),
    "fields": ("QQ", "FieldSpec"),
    "gbasis": ("GroebnerBasis", "Ideal", "eliminate", "groebner", "ideal_dimension",
               "normal_form", "saturate"),
    "groups": ("Endomorphism", "GroupLaw", "compose_endomorphisms", "is_surjective",
               "kernel_ideal", "validate_endomorphism", "validate_group_law"),
    "invariants": ("InvariantBasis", "NagataSpec", "cross_section_ideal",
                   "dixmier_generators", "factor_through_kernel", "nagata_build",
                   "nagata_oracle_invariants", "relations_presentation",
                   "verify_generators"),
    "linalg": ("ExactMatrix", "jacobian_rank"),
    "orders": ("GREVLEX", "LEX", "BlockOrder"),
    "pairs": ("AlphaPair", "build_fppf_cover", "check_alpha_pair",
              "check_pair_identity", "is_affine_stable", "kernel_acts_trivially",
              "pair_from_problem", "pedestal_ideal_from_pairs", "transcendence_degree"),
    "poly": ("Polynomial", "PolyRing", "RationalFunction"),
    "problem": ("ProblemFile", "parse_polynomial", "parse_problem", "parse_rational",
                "render", "render_problem"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
