"""Certified Carleson-type embedding inequalities on dyadic step weights.

The package certifies, numerically and with explicit constants, embedding
theorems that replace the Muckenhoupt-class Buckley inequalities with
bump-functional bounds valid for arbitrary nonnegative weights, via Bellman
function induction over the dyadic tree.
"""

from .carleson import (
    CarlesonSequence,
    CheckReport,
    HaarSplit,
    carleson_embedding_check,
    carleson_norm,
    carleson_norm_bruteforce,
    w_carleson_constant,
    weighted_carleson_embedding_check,
    weighted_haar_decompose,
)
from .config import DEFAULT_TOL, Tolerances
from .distribution import DistributionFunction, merged_pieces, mix
from .intervals import ROOT, DyadicInterval, intervals_at_level, tree
from .orlicz import (
    ConstructionError,
    GapResult,
    ORLICZ_BUDGET_LOG2,
    PsiFunction,
    YoungFunction,
    check_orlicz_lower_bound,
    gap_example,
    luxemburg_norm,
    n_psi,
    normalized_psi,
    psi_closed_form,
    psi_from_phi,
    young_function,
)
from .bellman import (
    BellmanKernel,
    BellmanProfile,
    EMBED_STEP_FACTOR,
    NPOINT_CONSTANT,
    PAIR_CONSTANT,
    PARAPRODUCT_CONSTANT,
    PDE_FINAL_FACTOR,
    PDE_STAGE1_FACTOR,
    StepGain,
    bellman_potential,
    build_profile,
    check_embed_step,
    check_main_ineq_npoint,
    check_main_ineq_pair,
    check_paraproduct_step,
    check_pde_step,
    check_t_convexity,
    scalar_bellman,
)
from .verifiers import (
    Certificate,
    FailureDemo,
    failure_demo,
    spike_d_embed_closed_form,
    spike_weight,
    verify_buckley_classic,
    verify_d_embed,
    verify_embed,
    verify_embed2,
    verify_fd_embed,
    verify_folk,
)
from .corpus import (
    AINFTY_KINDS,
    CorpusEntry,
    CorpusSpec,
    check_rhi,
    corpus_weights,
    default_corpus_specs,
    estimate_ainfty,
    gen_carleson_sequence,
    gen_test_function,
    gen_weight,
    load_corpus,
    write_corpus,
)
from .weights import DyadicWeight, StepFunction

__version__ = "0.1.0"
