"""Run/evaluate wiring shared by CLI and tests.

Distribution diagnostics (per-class variance, class-mean shift, 2-D
projection) are computed on unit-normalized embeddings; the proxy A-distance
probes the raw embeddings, which the domain discriminator sees. With an
affine extractor over isotropic class-conditional inputs, the raw per-class
covariance is sigma^2 W W^T for every class, so raw-trace variance measures
only the global weight scale, a mode the cosine-space losses are blind to by
construction. The framework's feature geometry lives on the unit sphere
(features and prototypes are L2-normalized wherever prototypes act), and the
normalized diagnostics measure exactly the compactness and alignment the
mechanism manipulates. Mean shift is the distance between unit-normalized
class means (pure directional shift, uncontaminated by per-instance spread).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import adapt, mathcore, metrics
from .adapt import AdaptationState, TrainerConfig, generate_pseudo_labels
from .synthbench import LabeledBatch


def baseline_config(config: TrainerConfig) -> TrainerConfig:
    """Self-training + adversarial only: prototype terms switched off."""
    return replace(config, enable_pce=False, regularizer="none")


@dataclass(frozen=True)
class EvalResult:
    """A metrics report plus the per-instance arrays behind the plots."""

    report: metrics.MetricsReport
    linear_scores: np.ndarray      # max linear probability per target instance
    prototype_cosines: np.ndarray  # max cosine against target prototypes
    projection: np.ndarray         # (n, 2) PCA projection of target embeddings
    projection_labels: np.ndarray  # hidden labels aligned with the projection (-1 unknown)


def rank_consistency_scores(state: AdaptationState, unit: np.ndarray,
                            probabilities: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-instance (max linear probability, max prototype cosine) pairs.

    ``unit`` (the unit rows of the student's embeddings) and ``probabilities`` are one
    forward pass over the clean target features. Cosines use the target-domain prototypes
    over their initialized classes; both axes are confidence-style scores.
    """
    linear_scores = probabilities.max(axis=1)
    protos = state.tgt_protos
    if protos is None or not protos.initialized_classes():
        return linear_scores, np.full(len(unit), np.nan)
    matrix = np.stack([protos.get(k) for k in protos.initialized_classes()])
    return linear_scores, (unit @ matrix.T).max(axis=1)


def evaluate_state(state: AdaptationState, config: TrainerConfig, source: LabeledBatch,
                   target_features, target_hidden_labels=None) -> EvalResult:
    """Full diagnostic pass over clean features with the current student/teacher.

    Distribution diagnostics run on unit-normalized embeddings (see the
    module docstring), the proxy A-distance on the raw ones; mean shift uses
    normalized class means. The per-class target tables and the TP ratio are
    built from the rows whose hidden label is known (not -1); absent hidden
    labels are all unknown, which leaves the label-free diagnostics only. Too few rows or
    embedding dims for the diagnostics raise :class:`InsufficientSamples` before any runs.
    """
    metrics.check_evaluable(len(source), len(target_features), state.student.feature_dim)
    src_emb, _, src_norms = adapt.domain_pass(state.student, source.features, "source")
    tgt_emb, tgt_probs, tgt_norms = adapt.domain_pass(state.student, target_features, "target")
    mathcore.nonzero(src_norms, "the student maps a source row to a zero embedding")
    mathcore.nonzero(tgt_norms, "the student maps a target row to a zero embedding")
    # the A-distance probes the embeddings the discriminator actually sees; it
    # runs while they are the only full-size arrays alive
    proxy = metrics.proxy_a_distance(src_emb, tgt_emb)
    # nothing reads the raw embeddings after this: unit rows, in place
    src_unit = np.divide(src_emb, src_norms[:, None], out=src_emb)
    tgt_unit = np.divide(tgt_emb, tgt_norms[:, None], out=tgt_emb)

    # both coefficients are nan when the target prototypes are missing (nan cosines)
    linear_scores, proto_cos = rank_consistency_scores(state, tgt_unit, tgt_probs)
    pseudo = generate_pseudo_labels(state.teacher, target_features, config.pseudo_threshold)

    hidden = np.full(len(tgt_unit), -1, dtype=np.int64)
    if target_hidden_labels is not None:
        hidden = np.asarray(target_hidden_labels, dtype=np.int64)
    known = hidden >= 0
    checked = known[pseudo.indices]
    tgt_known, hidden_known = tgt_unit, hidden
    if not known.all():  # a copy of the known rows only where some label is unknown
        tgt_known, hidden_known = tgt_unit[known], hidden[known]

    report = metrics.MetricsReport(
        source_variance=metrics.intra_class_variance(src_unit, source.labels),
        target_variance=metrics.intra_class_variance(tgt_known, hidden_known),
        mean_shift=metrics.mean_shift(src_unit, source.labels, tgt_known, hidden_known,
                                      normalize_means=True),
        proxy_a_distance=proxy,
        spearman=metrics.spearman_rho(linear_scores, proto_cos),
        kendall=metrics.kendall_tau(linear_scores, proto_cos),
        tp_ratio=metrics.tp_ratio(pseudo.labels[checked], pseudo.indices[checked], hidden),
        pseudo_count=len(pseudo),
    )
    return EvalResult(report=report, linear_scores=linear_scores,
                      prototype_cosines=proto_cos, projection=metrics.pca_project_2d(tgt_unit),
                      projection_labels=hidden)
