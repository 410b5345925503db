"""Finite-scale interpolation-set constructions and certificates."""

from .counting import (
    CountResult,
    GrowthProfile,
    brute_force_count,
    count_low_weight,
    entropy_H,
    growth_rate_profile,
    sandwich_bounds,
)
from .construct import (
    ConstructionRefused,
    ConstructionTrace,
    DomainError,
    InterpolationProblem,
    LevelWindowError,
    MixingExtension,
    density_coloring_witness,
    extend_zero,
    parse_member,
    mixing_extend,
    random_problem,
    strictly_ergodic_construct,
    sturmian_interpolate,
    syndetic_partition_witness,
    totally_minimal_construct,
    verify_trace,
)
from .intsets import (
    Certificate,
    EmptyWindowError,
    IntegerSetModel,
    SpecGrammarError,
    banach_density_profile,
    continued_fraction_value,
    gap_sequence,
    gap_syndeticity_table,
    parse_set_spec,
    piecewise_syndetic_certificate,
    replay_certificate,
    syndetic_certificate,
    thick_certificate,
    window,
)
from .recurrence import (
    FSetModel,
    build_F,
    digit_enumerate,
    digit_membership,
    ip_closure,
    verify_shift_ip,
    verify_sum_free,
)
from .words import (
    ComplexityProfile,
    EntropyEstimate,
    SymbolWord,
    complexity_profile,
    entropy_estimate,
    factor_counts,
    mechanical_word,
    universal_word,
)

__version__ = "0.1.0"
