"""Rate regions and Monte Carlo validation for linear coding over finite
rings applied to (functions of) Markov sources."""

from .functions import (
    FunctionSpec,
    Presentation,
    canonical_presentation,
    induced_sum_labeling,
    injectivity_obstruction_check,
    sum_process_chain,
    verify_presentation,
)
from .markov import (
    BurkeForm,
    EntropyRateBounds,
    MarkovChain,
    blockdiag_complement_entropy,
    check_burke_form,
    conditional_entropy,
    entropy,
    invariant_distribution,
    is_irreducible,
    is_lumpable,
    lump,
    quotient_entropy_rate_bounds,
    stochastic_complement,
)
from .rates import (
    ComparisonReport,
    ComputingReport,
    CoverConstraint,
    InjectionReport,
    RateReport,
    compare_presentations,
    computing_rate,
    cover_region,
    injection_search_rate,
    single_source_rate,
)
from .rings import (
    FiniteRing,
    LeftIdeal,
    RingMatrix,
    apply_linear_map,
    enumerate_left_ideals,
    make_modular_ring,
    make_product_ring,
    make_triangular_ring,
    quotient_partition,
    random_linear_map,
    verify_ring_axioms,
)
from .simulate import (
    SimConfig,
    SimResult,
    TypicalSetDecoder,
    ml_decode,
    run_computing_sim,
    run_single_source_sim,
)
from .typicality import (
    SupremusTester,
    enumerate_confusable,
    enumerate_typical_paths,
    is_strongly_markov_typical,
    sample_path,
    supremus_verdict,
    transition_counts,
)

__version__ = "0.1.0"
