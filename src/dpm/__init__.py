"""Random discrete probability measures and the mixing identities that pin them down.

The package samples Dirichlet-type random probability measures by stick
breaking and by normalized gamma jumps, tabulates their exact projection
moments, and runs Monte Carlo campaigns verifying the size-biased mixing
identities that characterize the law — including the scalar Beta special
case and the recovery of the mixing-weight moment sequence from data.
"""

__version__ = "1.0.0"

from .characterize import CharacterizationReport, characterize_from_samples
from .measures import BaseModel, DiscreteMeasure
from .moments import (
    MissingMomentError,
    MomentTable,
    SingularSystemError,
    beta_moment,
    build_moment_table,
    check_solvability,
    dirichlet_mixed_moment,
    moment_recursion_step,
    multi_indices,
    quadratic_weight_c,
    recover_moment_sequence,
    solve_b_next,
)
from .samplers import RngStream, TruncationError, sample_jump_measure, sample_stick_breaking
from .specialfn import exp_integral_e1, inverse_e1
from .stats import kolmogorov_sf, ks_test, ks_two_sample
from .verify import (
    CAMPAIGN_NAMES,
    CampaignSettings,
    TestReport,
    campaign_ok,
    run_verify,
    verify_beta_general,
    verify_beta_sizebias,
    verify_construction_equivalence,
    verify_marked_sizebias,
    verify_mecke,
    verify_sethuraman,
    verify_sizebias_invariance,
)

__all__ = [
    "__version__",
    "BaseModel",
    "DiscreteMeasure",
    "MissingMomentError",
    "MomentTable",
    "SingularSystemError",
    "beta_moment",
    "build_moment_table",
    "check_solvability",
    "dirichlet_mixed_moment",
    "moment_recursion_step",
    "multi_indices",
    "quadratic_weight_c",
    "recover_moment_sequence",
    "solve_b_next",
    "RngStream",
    "TruncationError",
    "sample_jump_measure",
    "sample_stick_breaking",
    "exp_integral_e1",
    "inverse_e1",
    "kolmogorov_sf",
    "ks_test",
    "ks_two_sample",
    "CAMPAIGN_NAMES",
    "CampaignSettings",
    "CharacterizationReport",
    "TestReport",
    "campaign_ok",
    "characterize_from_samples",
    "run_verify",
    "verify_beta_general",
    "verify_beta_sizebias",
    "verify_construction_equivalence",
    "verify_marked_sizebias",
    "verify_mecke",
    "verify_sethuraman",
    "verify_sizebias_invariance",
]
