"""owpnlab: numerical laboratory for the oversampled Wiener phase-noise channel.

Capacity bounds, the posterior Fisher-information recursion behind the outer
bound, generalized-degrees-of-freedom regions, and the Monte Carlo machinery
that cross-checks every closed form.
"""

from .bounds import (
    BoundResult,
    EULER_MASCHERONI,
    entropy_chi2_lower,
    entropy_noncentral_chi2_upper,
    lower_coherent_combining,
    lower_partially_coherent,
    upper_outer,
)
from .gdof import (
    GdofValue,
    NEAR_AWGN_GAP_NATS,
    NEAR_ONC_GAP_NATS,
    Regime,
    channel_at_power,
    classify_regime,
    empirical_prelog,
    gdof_exact_if_known,
    gdof_inner_cc,
    gdof_inner_combined,
    gdof_inner_pc,
    gdof_outer,
    regime_gap_nats,
)
from .mioracle import MiEstimate, amplitude_channel_mi, histogram_mi, phase_channel_mi
from .model import (
    ChannelParams,
    DerivedConstants,
    GdofPoint,
    McEstimate,
    RateSplit,
    Units,
    convert_rate,
    derive_constants,
    per_symbol_power,
)
from .riccati import (
    crb_argument,
    immse_entropy_quadrature,
    iterate_fixed_point,
    posterior_crb_entropy_lower,
    riccati_fixed_point,
)
from .sim import (
    FMoments,
    estimate_F_moments,
    estimate_log_abs_sq,
    simulate_fading_integral,
    substream,
)

__version__ = "0.1.0"

__all__ = [
    "BoundResult",
    "ChannelParams",
    "DerivedConstants",
    "EULER_MASCHERONI",
    "FMoments",
    "GdofPoint",
    "GdofValue",
    "McEstimate",
    "MiEstimate",
    "NEAR_AWGN_GAP_NATS",
    "NEAR_ONC_GAP_NATS",
    "RateSplit",
    "Regime",
    "Units",
    "amplitude_channel_mi",
    "channel_at_power",
    "classify_regime",
    "convert_rate",
    "crb_argument",
    "derive_constants",
    "empirical_prelog",
    "entropy_chi2_lower",
    "entropy_noncentral_chi2_upper",
    "estimate_F_moments",
    "estimate_log_abs_sq",
    "gdof_exact_if_known",
    "gdof_inner_cc",
    "gdof_inner_combined",
    "gdof_inner_pc",
    "gdof_outer",
    "histogram_mi",
    "immse_entropy_quadrature",
    "iterate_fixed_point",
    "lower_coherent_combining",
    "lower_partially_coherent",
    "per_symbol_power",
    "phase_channel_mi",
    "posterior_crb_entropy_lower",
    "regime_gap_nats",
    "riccati_fixed_point",
    "simulate_fading_integral",
    "substream",
    "upper_outer",
]
