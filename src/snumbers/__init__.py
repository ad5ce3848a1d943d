"""Computable bounds for entropy, approximation and Kolmogorov numbers of
operators between finite-dimensional l_p spaces (0 < p <= inf), plus the
spectral inequalities that tie them to eigenvalues.

The package is organised by what gets computed:

  spaces     quasi-norm geometry: l_p norms, the equivalent rho-norm
             construction, ball volumes, distances to subspaces, samplers
  operators  matrix operators between l_p spaces, exact/sampled norms, and
             Bracket: a lower and an upper, each of kind exact, certified,
             estimate or shape
  entropy    covering/packing estimators, joined into one Bracket per e_k
             (certified lower, estimated upper), and the three-regime
             closed-form envelope for identities
  widths     approximation & Kolmogorov numbers: exact Hilbert values,
             identity envelopes, rank-restricted searches, axiom checks
  spectral   Weyl/Carl/Koenig inequalities, the factor-14 Hilbert entropy
             bracket, spectral-radius limits
  cli        the `snum` command-line front end with JSON/CSV reports
"""

from .spaces import (
    COMPLEX,
    REAL,
    AokiNorm,
    QuasiNormInfo,
    SpaceSpec,
    aoki_norm,
    ball_volume,
    dist_to_subspace,
    inv_exponent,
    log_ball_volume,
    lp_norm,
    quasi_constant,
    rho_exponent,
    sample_ball,
    sample_sphere,
)
from .operators import (
    Bracket,
    LinOp,
    add,
    compose,
    diagonal_operator,
    identity_operator,
    load_operator,
    numerical_rank,
    op_norm,
    operator,
    read_matrix_csv,
    realify,
    singular_values,
)
from .entropy import (
    BoundPair,
    best_certified_lower,
    entropy_brackets,
    entropy_lower_pack,
    entropy_lower_pack_sequence,
    entropy_lower_volumetric,
    entropy_upper_cover_sequence,
    hamming_pack_lower,
    image_cloud,
    max_nn_gap,
    padded_upper,
    rank_decay_bounds,
    regime_envelope,
    regime_piece,
)
from .widths import (
    NO_CLOSED_FORM,
    SNumberSeq,
    approx_id_envelope,
    approx_upper_search,
    bound_respecting_axioms,
    conjugate_exponent,
    hilbert_s_numbers,
    kolmogorov_id_envelope,
    kolmogorov_upper_search,
    real_complex_bracket,
    s_axiom_suite,
)
from .spectral import (
    CheckReport,
    EigenSeq,
    carl_check,
    eigen_sequence,
    hilbert_entropy_bracket,
    koenig_limit_check,
    spectral_radius,
    weyl_check,
)

__version__ = "0.1.0"
