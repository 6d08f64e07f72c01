"""Static analysis over CFGs, profiles and layouts (``repro lint``).

Three parts:

* :mod:`.passes` — verifier passes with stable ``RLxxx`` diagnostics,
  run by a crash-isolating :class:`~repro.staticcheck.passes.PassManager`;
* :mod:`.dataflow` — cached classic analyses (reachability, dominators,
  postdominators, natural loops) behind an ``AnalysisManager``;
* :mod:`.estimator` — a trace-free branch-cost estimator computed from
  the edge profile, cross-validated against the simulator;
* :mod:`.predict` / :mod:`.propagate` — profile-free branch prediction:
  structural heuristics vote on every conditional site and Wu–Larus
  frequency propagation turns the probabilities into synthetic edge
  counts (surfaced as :class:`repro.profiling.StaticProfile`);
* :mod:`.binary` — binary-level translation validation: CFG recovery
  from the linked instruction stream, encoding checks (RL013-RL017) and
  static bisimulation proofs for every alignment rewrite.
"""

from .binary import (
    BinaryImage,
    EquivalenceError,
    EquivalenceProof,
    ProcedureProof,
    RecoveredBlock,
    RecoveredCFG,
    RecoveredProcedure,
    RecoveryError,
    check_proof,
    proof_key,
    prove_cfgs,
    prove_layouts,
    prove_meld,
    prove_meld_layouts,
    recover,
    recover_layout,
    verify_image,
)
from ..cfg import cfg_fingerprint
from .dataflow import AnalysisManager, ProgramAnalyses
from .diagnostics import (
    CODES,
    REPORT_SCHEMA_VERSION,
    Diagnostic,
    LintReport,
    PassOutcome,
    Severity,
    worst_severity,
)
from .estimator import (
    ArchAgreement,
    ArchEstimate,
    BranchSiteEstimate,
    CostEstimate,
    cross_validate,
    estimate_costs,
)
from .legality import (
    LegalityReport,
    SiteLegality,
    analyze_procedure,
    analyze_program,
)
from .passes import (
    PASSES,
    LintContext,
    MeldContext,
    PassManager,
    StaticContext,
    VerifierPass,
    pass_count,
    pass_ids,
    run_lint,
)
from .predict import (
    DEFAULT_CONFIG,
    HEURISTICS,
    HeuristicConfig,
    HeuristicVote,
    PredictionReport,
    SitePrediction,
    combine_votes,
    predict_procedure,
    predict_program,
)
from .propagate import (
    CP_MAX,
    FrequencyMap,
    edge_probabilities,
    propagate_procedure,
    propagate_program,
)

__all__ = [
    "AnalysisManager",
    "ArchAgreement",
    "ArchEstimate",
    "BinaryImage",
    "BranchSiteEstimate",
    "CODES",
    "CP_MAX",
    "CostEstimate",
    "DEFAULT_CONFIG",
    "Diagnostic",
    "EquivalenceError",
    "EquivalenceProof",
    "FrequencyMap",
    "HEURISTICS",
    "HeuristicConfig",
    "HeuristicVote",
    "LegalityReport",
    "LintContext",
    "LintReport",
    "MeldContext",
    "PASSES",
    "PassManager",
    "PassOutcome",
    "PredictionReport",
    "ProcedureProof",
    "ProgramAnalyses",
    "RecoveredBlock",
    "RecoveredCFG",
    "RecoveredProcedure",
    "RecoveryError",
    "REPORT_SCHEMA_VERSION",
    "Severity",
    "SiteLegality",
    "SitePrediction",
    "StaticContext",
    "VerifierPass",
    "analyze_procedure",
    "analyze_program",
    "cfg_fingerprint",
    "check_proof",
    "combine_votes",
    "cross_validate",
    "edge_probabilities",
    "estimate_costs",
    "pass_count",
    "pass_ids",
    "predict_procedure",
    "predict_program",
    "proof_key",
    "propagate_procedure",
    "propagate_program",
    "prove_cfgs",
    "prove_layouts",
    "prove_meld",
    "prove_meld_layouts",
    "recover",
    "recover_layout",
    "run_lint",
    "verify_image",
    "worst_severity",
]
