"""Finite-scale interpolation-set constructions and certificates.

Importing the package loads none of its modules: each public name below
is read from the module that defines it on first use (PEP 562), so
``import interpsets.cli`` and each CLI command load only what they run.
"""

import importlib

__version__ = "0.1.0"

_PUBLIC = {
    "certificate": ("Certificate",),
    "construct": (
        "ConstructionRefused",
        "ConstructionTrace",
        "DomainError",
        "InterpolationProblem",
        "MixingExtension",
        "density_coloring_witness",
        "extend_zero",
        "parse_member",
        "mixing_extend",
        "random_problem",
        "strictly_ergodic_construct",
        "sturmian_interpolate",
        "syndetic_partition_witness",
        "totally_minimal_construct",
        "verify_trace",
    ),
    "counting": (
        "CountResult",
        "GrowthProfile",
        "brute_force_count",
        "count_low_weight",
        "entropy_H",
        "growth_rate_profile",
        "sandwich_bounds",
    ),
    "intsets": (
        "IntegerSetModel",
        "SpecGrammarError",
        "banach_density_profile",
        "continued_fraction_value",
        "gap_sequence",
        "gap_syndeticity_table",
        "parse_set_spec",
        "piecewise_syndetic_certificate",
        "replay_certificate",
        "syndetic_certificate",
        "thick_certificate",
        "window",
    ),
    "recurrence": (
        "FSetModel",
        "build_F",
        "digit_enumerate",
        "ip_closure",
        "verify_shift_ip",
        "verify_sum_free",
    ),
    "words": (
        "ComplexityProfile",
        "EntropyEstimate",
        "SymbolWord",
        "complexity_profile",
        "entropy_estimate",
        "factor_counts",
        "universal_word",
    ),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    """A public name from its module, or a module not yet imported."""
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    if name in _PUBLIC:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
