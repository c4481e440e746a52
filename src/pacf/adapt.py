"""Mean-teacher adaptation loop over feature vectors.

The model is deliberately small: an affine feature extractor standing in for
a backbone, a linear classifier on the embedding, and a logistic domain
discriminator. The teacher shares the architecture and tracks the student by
exponential moving average; its confidence-filtered predictions on the clean
(weakly augmented = identity) target stream become pseudo labels, while the
student always sees Gaussian-noised (strongly augmented) inputs.

A run has three phases:

1. supervised warm-up on the source only,
2. prototype initialization by running the warmed-up student over both
   domains and averaging confident embeddings per predicted class (the
   teacher is re-seeded as a copy of the student here),
3. the adaptation loop proper, where each step draws batches, generates
   pseudo labels, forwards the student once over the stacked source and
   target rows (warm-up: the source rows only), descends the composed
   objective, refreshes prototypes from the step's embeddings, and
   EMA-updates the teacher. The terms' summed gradients w.r.t. the stacked
   logits and embeddings are chained once through each layer.

Every random draw comes from one seeded PCG64 generator in a documented
order (source indices, target indices, source noise, target noise per
step), so identical configs and data reproduce runs bitwise.

Single-class models (class_count == 1) use a sigmoid head: probability rows
carry [p, 1 - p] and index 1 means "no class"; only argmax == 0 instances
can become pseudo labels.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from functools import cached_property

import numpy as np

from . import losses, mathcore
from .errors import (DimensionMismatch, Diverged, as_index, check_fields, entry_reader,
                     numeric_array, rule)
from .losses import Geometry, LossValue, LossWeights, class_probabilities, total_loss
from .prototypes import PrototypeSet, initialize_prototypes, update_all
from .synthbench import LabeledBatch

PARAM_KEYS = (
    "extractor_w", "extractor_b",
    "classifier_w", "classifier_b",
    "discriminator_w", "discriminator_b",
)

REGULARIZERS = ("none", "l2", "kl", "jsd")


@dataclass
class ModelParams:
    """Extractor + linear classifier + domain discriminator parameters."""

    extractor_w: np.ndarray      # (input_dim, feature_dim)
    extractor_b: np.ndarray      # (feature_dim,)
    classifier_w: np.ndarray     # (feature_dim, class_count)
    classifier_b: np.ndarray     # (class_count,)
    discriminator_w: np.ndarray  # (feature_dim,)
    discriminator_b: np.ndarray  # scalar (0-d array)

    def __post_init__(self):
        for key in PARAM_KEYS:
            setattr(self, key, np.asarray(getattr(self, key), dtype=np.float64))
        d_in, d_feat = self.extractor_w.shape
        if self.extractor_b.shape != (d_feat,):
            raise DimensionMismatch("extractor bias does not match extractor width")
        if self.classifier_w.shape[0] != d_feat or self.classifier_b.shape != (self.classifier_w.shape[1],):
            raise DimensionMismatch("classifier shapes inconsistent with extractor")
        if self.discriminator_w.shape != (d_feat,) or self.discriminator_b.shape != ():
            raise DimensionMismatch("discriminator shapes inconsistent with extractor")

    def nonfinite_keys(self) -> list[str]:
        """The parameters holding a non-finite entry."""
        return [key for key in PARAM_KEYS if not np.isfinite(getattr(self, key)).all()]

    @property
    def input_dim(self) -> int:
        return self.extractor_w.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.extractor_w.shape[1]

    @property
    def class_count(self) -> int:
        return self.classifier_w.shape[1]

    def copy(self) -> "ModelParams":
        return ModelParams(*(getattr(self, key).copy() for key in PARAM_KEYS))

    def as_dict(self) -> dict[str, np.ndarray]:
        return {key: getattr(self, key) for key in PARAM_KEYS}

    def apply_gradients(self, grads: dict[str, np.ndarray], learning_rate: float) -> "ModelParams":
        """One gradient-descent step; parameters without a gradient are carried over."""
        new = {}
        for key in PARAM_KEYS:
            value = getattr(self, key)
            if key in grads:
                value = value - learning_rate * grads[key]
            new[key] = value
        return ModelParams(**new)

    def to_json_dict(self) -> dict:
        return {key: getattr(self, key).tolist() for key in PARAM_KEYS}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ModelParams":
        params = cls(**{key: numeric_array(doc[key], key) for key in PARAM_KEYS})
        bad = params.nonfinite_keys()
        if bad:
            raise ValueError(f"{bad[0]} contains non-finite entries")
        return params


@dataclass(frozen=True)
class TrainerConfig:
    """Knobs for one adaptation run.

    The defaults are the paper's reference hyperparameters (temperature,
    thresholds, loss weights) on the desk-scale schedule of
    ``configs/default.json``. That schedule uses a wide embedding (128 dims
    for 32 input dims) and an EMA rate of 0.99. Classification gradients
    only shape the classifier-row subspace of the embedding; the prototype
    losses do their distinctive work in the many remaining nuisance
    directions, which is where the paper-scale models also have their slack.
    The faster EMA lets the teacher track the student over a
    few-thousand-step horizon.

    ``pseudo_threshold`` may exceed 1 to disable pseudo labeling entirely
    (filtering keeps an instance only when its max probability reaches the
    threshold, which no probability above 1 can). ``enable_pce``,
    ``enable_adversarial`` and ``regularizer`` are the ablation switches; a
    disabled switch zeroes the matching loss weight. The count bounds keep
    every array under numpy's size limit.
    """

    tau: float = rule(0.05, "(0, inf)")
    init_threshold: float = rule(0.8, "(0, 1]")
    pseudo_threshold: float = rule(0.8, "(0, inf)")
    weights: LossWeights = field(default_factory=LossWeights)
    regularizer: str = field(default="jsd", metadata={"choices": REGULARIZERS})
    enable_pce: bool = True
    enable_adversarial: bool = True
    ema_rate: float = rule(0.99, "[0, 1)")
    learning_rate: float = rule(0.05, "[0, inf)")
    warmup_steps: int = rule(500, "[0, inf)")
    steps: int = rule(4000, "[1, inf)")
    batch_size: int = rule(64, "[1, 1e6]")
    feature_dim: int = rule(128, "[1, 1e5]")
    augment_noise: float = rule(1.0, "[0, inf)")
    seed: int = rule(0, "[0, inf)")

    def __post_init__(self):
        check_fields(self)

    def effective_weights(self) -> LossWeights:
        """Loss weights with the ablation switches applied."""
        return self._effective_weights

    @cached_property  # a config is frozen, so its weights in effect are built once
    def _effective_weights(self) -> LossWeights:
        w = self.weights
        return LossWeights(
            lambda_unsup=w.lambda_unsup,
            lambda_dis=w.lambda_dis if self.enable_adversarial else 0.0,
            lambda_pce=w.lambda_pce if self.enable_pce else 0.0,
            lambda_mut=w.lambda_mut if self.regularizer != "none" else 0.0,
        )

    def to_json_dict(self) -> dict:
        """Flat document: every field, with the loss weights as ``lambda_*`` keys."""
        doc = asdict(self)
        doc.update(doc.pop("weights"))
        return doc

    @classmethod
    def from_json_dict(cls, doc: dict) -> "TrainerConfig":
        doc = dict(doc)
        return cls(weights=LossWeights.pop_from(doc), **doc)


@dataclass
class AdaptationState:
    student: ModelParams
    teacher: ModelParams
    src_protos: PrototypeSet | None
    tgt_protos: PrototypeSet | None
    step: int
    rng: np.random.Generator


@dataclass(frozen=True)
class PseudoLabels:
    """Confidence-filtered teacher predictions on a target batch."""

    indices: np.ndarray  # positions within the scored batch
    labels: np.ndarray
    scores: np.ndarray

    def __len__(self) -> int:
        return len(self.indices)


_NO_PSEUDO_LABELS = PseudoLabels(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
                                 np.empty(0))


@dataclass(frozen=True)
class StepRecord:
    """Unweighted per-term loss values for one step, ``loss_<t>`` for each ``t`` of
    ``losses.TERMS`` in order, plus the weighted total."""

    step: int
    loss_sup: float
    loss_unsup: float
    loss_dis: float
    loss_pce: float
    loss_mut: float
    total: float
    pseudo_count: int


def init_state(config: TrainerConfig, input_dim: int, class_count: int) -> AdaptationState:
    """Fresh state with seeded parameters; weight draws precede all training draws."""
    rng = np.random.Generator(np.random.PCG64(config.seed))
    d_feat = config.feature_dim
    student = ModelParams(
        extractor_w=rng.normal(0.0, input_dim ** -0.5, (input_dim, d_feat)),
        extractor_b=np.zeros(d_feat),
        classifier_w=rng.normal(0.0, d_feat ** -0.5, (d_feat, class_count)),
        classifier_b=np.zeros(class_count),
        discriminator_w=np.zeros(d_feat),
        discriminator_b=np.asarray(0.0),
    )
    return AdaptationState(student=student, teacher=student.copy(),
                           src_protos=None, tgt_protos=None, step=0, rng=rng)


def forward(params: ModelParams, x) -> tuple[np.ndarray, np.ndarray]:
    """Embedding and linear-classifier distribution for one vector or a batch."""
    arr = np.asarray(x, dtype=np.float64)
    single = arr.ndim == 1
    batch = np.atleast_2d(arr)
    if batch.shape[1] != params.input_dim:
        raise DimensionMismatch(
            f"input dim {batch.shape[1]} does not match extractor dim {params.input_dim}")
    emb = batch @ params.extractor_w
    emb += params.extractor_b
    probs = class_probabilities(emb @ params.classifier_w + params.classifier_b)
    if single:
        return emb[0], probs[0]
    return emb, probs


def domain_pass(student: ModelParams, features, domain: str) -> tuple[np.ndarray, ...]:
    """:func:`forward` of a whole domain and the embeddings' row norms; :class:`Diverged` names
    ``domain`` and the first data row whose norm is not finite (a zero norm is accepted)."""
    with np.errstate(over="ignore", invalid="ignore"):  # one error line, no numpy warnings
        emb, probs = forward(student, features)
        norms = mathcore.row_norms(emb)
    bad = np.flatnonzero(~np.isfinite(norms))
    if len(bad):
        raise Diverged(f"the student's {domain} embedding of data row {bad[0] + 1} is not finite")
    return emb, probs, norms


def predict(params: ModelParams, x):
    """Argmax of the linear-classifier distribution; prototypes are never consulted."""
    _, probs = forward(params, x)
    if probs.ndim == 1:
        return int(np.argmax(probs))
    return probs.argmax(axis=1)


def generate_pseudo_labels(teacher: ModelParams, target_features,
                           threshold: float) -> PseudoLabels:
    """Keep teacher predictions of a real class whose max probability reaches the threshold.

    Predictions come from the clean (un-noised) features. Ties break toward
    the lowest class index via argmax. May return an empty set. A row whose
    probabilities are not finite raises :class:`Diverged` naming it.
    """
    # an overflowing teacher ends in the one error below, not in numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        _, probs = forward(teacher, np.atleast_2d(target_features))
    confidence = probs.max(axis=1)
    bad = np.flatnonzero(~np.isfinite(confidence))
    if len(bad):
        raise Diverged(f"the teacher's class probabilities for target row {bad[0] + 1} "
                       "are not finite")
    labels = probs.argmax(axis=1)
    idx = np.flatnonzero((confidence >= threshold) & (labels < teacher.class_count))
    return PseudoLabels(indices=idx, labels=labels[idx], scores=confidence[idx])


def check_teacher(teacher: ModelParams, student: ModelParams) -> ModelParams:
    """``teacher``, once each of its parameters is found to have the student's shape."""
    for key in PARAM_KEYS:
        if getattr(teacher, key).shape != getattr(student, key).shape:
            raise DimensionMismatch(f"teacher/student shape mismatch on {key}")
    return teacher


def ema_update(teacher: ModelParams, student: ModelParams, rate: float) -> ModelParams:
    """theta_teacher <- rate * theta_teacher + (1 - rate) * theta_student."""
    if not (0.0 <= rate < 1.0):
        raise ValueError(f"ema rate must lie in [0, 1), got {rate!r}")
    check_teacher(teacher, student)
    return ModelParams(**{key: rate * getattr(teacher, key) + (1.0 - rate) * value
                          for key, value in student.as_dict().items()})


def _backward(params: ModelParams, x: np.ndarray, emb: np.ndarray,
              grad_inputs: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Parameter gradients from the gradients w.r.t. the logits and ``emb``, the embedding
    of ``x``: the classifier and the extractor are each chained once."""
    grads, grad_emb = {}, grad_inputs.get("embeddings")
    if "logits" in grad_inputs:
        grad_logits = grad_inputs["logits"]
        grads = {"classifier_w": emb.T @ grad_logits, "classifier_b": grad_logits.sum(axis=0)}
        through = grad_logits @ params.classifier_w.T
        grad_emb = through if grad_emb is None else through + grad_emb
    return {**grads, "extractor_w": x.T @ grad_emb, "extractor_b": grad_emb.sum(axis=0)}


def _cross_entropy_component(params: ModelParams, emb: np.ndarray, probs: np.ndarray,
                             rows, labels: np.ndarray) -> LossValue:
    """Mean CE of the linear classifier over ``rows``; the gradient is w.r.t. their logits."""
    value, grad_logits = losses.cross_entropy_batch(
        emb[rows] @ params.classifier_w + params.classifier_b, probs[rows], labels)
    return LossValue(value, grad_inputs={"logits": grad_logits})


def _adversarial_component(params: ModelParams, emb: np.ndarray, domain: np.ndarray) -> LossValue:
    """Mean discriminator BCE; the embedding gradient is reversed, the discriminator's not."""
    value, grad_w, grad_b, grad_emb = losses.discriminator_bce_batch(
        emb, domain, params.discriminator_w, params.discriminator_b)
    return LossValue(value, grad_params={"discriminator_w": grad_w, "discriminator_b": grad_b},
                     grad_inputs={"embeddings": grad_emb})


def _pce_component(emb: np.ndarray, rows, labels: np.ndarray, geometry: Geometry) -> LossValue:
    """Mean prototype cross entropy over ``rows``, whose prototype geometry is ``geometry``;
    the gradient is w.r.t. their embeddings."""
    value, grad_emb = losses.prototype_cross_entropy_batch(emb[rows], labels, geometry)
    return LossValue(value, grad_inputs={"embeddings": grad_emb})


def _mut_component(params: ModelParams, emb: np.ndarray, probs: np.ndarray, rows,
                   geometry: Geometry, kind: str) -> LossValue:
    """Mean regularizer coupling the linear distribution to both posteriors over ``rows``;
    its gradient reaches their logits and, through both posteriors, their embeddings."""
    value, grad_logits, grad_emb = losses.mutual_regularization_batch(
        emb[rows], probs[rows], geometry, kind, params.class_count)
    return LossValue(value, grad_inputs={"logits": grad_logits, "embeddings": grad_emb})


def _check_finite(student: ModelParams, components: dict[str, LossValue], step: int,
                  warmup: bool) -> None:
    """Raise :class:`Diverged` when a loss term or an updated parameter is not finite."""
    terms = [name for name, loss in components.items() if not math.isfinite(loss.value)]
    params = student.nonfinite_keys()
    if terms or params:
        parts = [f"{kind} {', '.join(names)}" for kind, names in
                 (("loss terms", terms), ("parameters", params)) if names]
        phase = "warm-up" if warmup else "adaptation"
        raise Diverged(f"training diverged at {phase} step {step}: non-finite "
                       + " and ".join(parts))


def _prototypes_ready(state: AdaptationState) -> bool:
    return (state.src_protos is not None and state.tgt_protos is not None
            and state.src_protos.fully_initialized and state.tgt_protos.fully_initialized)


def train_step(state: AdaptationState, source: LabeledBatch, target_features,
               config: TrainerConfig, warmup: bool = False
               ) -> tuple[AdaptationState, StepRecord]:
    """One optimization step; returns the successor state and its record.

    Draw order per step: source indices, target indices, source noise,
    target noise. Warm-up steps keep that order but train on the supervised
    term only and leave teacher and prototypes untouched.
    """
    target_features = np.asarray(target_features, dtype=np.float64)
    rng = state.rng
    src_idx = rng.integers(0, len(source), size=config.batch_size)
    tgt_idx = rng.integers(0, len(target_features), size=config.batch_size)
    src_noise = rng.standard_normal((config.batch_size, source.dim))
    tgt_noise = rng.standard_normal((config.batch_size, target_features.shape[1]))

    xs = source.features[src_idx]
    ys = source.labels[src_idx]
    xt = target_features[tgt_idx]

    pseudo = _NO_PSEUDO_LABELS
    if not warmup:
        pseudo = generate_pseudo_labels(state.teacher, xt, config.pseudo_threshold)

    # one student forward: the source rows, then (after warm-up) the target rows
    x = xs + config.augment_noise * src_noise
    if not warmup:
        x = np.vstack([x, xt + config.augment_noise * tgt_noise])
    student = state.student
    emb, probs = forward(student, x)
    n_src = config.batch_size
    kept = n_src + pseudo.indices
    emb_kept = emb[kept]
    rows = {"sup": slice(0, n_src), "unsup": kept, "pce": kept, "mut": kept}

    weights = config.effective_weights()
    components = {"sup": _cross_entropy_component(student, emb, probs, rows["sup"], ys)}
    if len(pseudo) and weights.lambda_unsup > 0.0:
        components["unsup"] = _cross_entropy_component(student, emb, probs, rows["unsup"],
                                                       pseudo.labels)
    if not warmup and weights.lambda_dis > 0.0:
        domain = np.repeat([0.0, 1.0], n_src)
        components["dis"] = _adversarial_component(student, emb, domain)
    if (len(pseudo) and _prototypes_ready(state)
            and (weights.lambda_pce > 0.0 or weights.lambda_mut > 0.0)):
        geometry = losses.prototype_geometries(emb_kept, state.src_protos, state.tgt_protos,
                                               config.tau)
        if weights.lambda_pce > 0.0:
            components["pce"] = _pce_component(emb, rows["pce"], pseudo.labels, geometry)
        if weights.lambda_mut > 0.0:
            components["mut"] = _mut_component(student, emb, probs, rows["mut"], geometry,
                                               config.regularizer)

    combined = total_loss(components, weights, rows=rows, row_count=len(emb))
    grads = {**combined.grad_params, **_backward(student, x, emb, combined.grad_inputs)}
    new_student = student.apply_gradients(grads, config.learning_rate)
    _check_finite(new_student, components, state.step + 1, warmup)

    src_protos = state.src_protos
    tgt_protos = state.tgt_protos
    if not warmup and src_protos is not None:
        src_protos = update_all(src_protos, emb[:n_src], ys)
        if len(pseudo) and tgt_protos is not None:
            tgt_protos = update_all(tgt_protos, emb_kept, pseudo.labels)

    teacher = state.teacher if warmup else ema_update(state.teacher, new_student,
                                                      config.ema_rate)
    next_state = AdaptationState(student=new_student, teacher=teacher,
                                 src_protos=src_protos, tgt_protos=tgt_protos,
                                 step=state.step + 1, rng=rng)

    record = StepRecord(step=next_state.step, total=combined.value, pseudo_count=len(pseudo),
                        **{f"loss_{name}": components[name].value if name in components else 0.0
                           for name in losses.TERMS})
    return next_state, record


def warmup_run(state: AdaptationState, source: LabeledBatch, target_features,
               config: TrainerConfig) -> tuple[AdaptationState, list[StepRecord]]:
    """Supervised warm-up on the source stream."""
    records = []
    for _ in range(config.warmup_steps):
        state, record = train_step(state, source, target_features, config, warmup=True)
        records.append(record)
    return state, records


def initialize_from_warmup(state: AdaptationState, source: LabeledBatch,
                           target_features, config: TrainerConfig) -> AdaptationState:
    """Prototype initialization from the warmed-up student, per domain.

    The student runs inference over the clean features of each domain by :func:`domain_pass`;
    per predicted class, embeddings whose confidence reaches ``init_threshold``
    are averaged and normalized. The teacher restarts as a student copy.
    """
    protos = {}
    for domain, feats in (("source", source.features), ("target", target_features)):
        emb, probs, _ = domain_pass(state.student, feats, domain)
        batch = LabeledBatch(emb, probs.argmax(axis=1), probs.max(axis=1))
        protos[domain] = initialize_prototypes(batch, config.init_threshold, domain,
                                               state.student.class_count)
    return AdaptationState(student=state.student, teacher=state.student.copy(),
                           src_protos=protos["source"], tgt_protos=protos["target"],
                           step=state.step, rng=state.rng)


def train_run(state: AdaptationState, source: LabeledBatch, target_features,
              config: TrainerConfig) -> tuple[AdaptationState, list[StepRecord]]:
    """The adaptation loop: ``config.steps`` full train steps."""
    records = []
    for _ in range(config.steps):
        state, record = train_step(state, source, target_features, config)
        records.append(record)
    return state, records


@dataclass
class RunResult:
    state: AdaptationState
    warmup_records: list[StepRecord]
    records: list[StepRecord]


def run_experiment(source: LabeledBatch, target_features, config: TrainerConfig) -> RunResult:
    """Warm-up, prototype initialization, then the adaptation loop."""
    target_features = np.asarray(target_features, dtype=np.float64)
    # warm-up never forwards the target rows, so check their width before it
    if target_features.ndim != 2 or target_features.shape[1] != source.dim:
        raise DimensionMismatch(f"target features of shape {target_features.shape} do not "
                                f"match the source dim {source.dim}")
    if len(source.labels) == 0 or source.labels.max() < 0:
        raise ValueError("cannot infer class count from an unlabeled source batch")
    if source.labels.min() < 0:  # numpy would train a label of -1 as the last class
        raise ValueError(f"source row {int(np.argmin(source.labels)) + 1} has label "
                         f"{source.labels.min()}; every source row needs a class id >= 0")
    state = init_state(config, source.dim, int(source.labels.max()) + 1)
    state, warmup_records = warmup_run(state, source, target_features, config)
    state = initialize_from_warmup(state, source, target_features, config)
    state, records = train_run(state, source, target_features, config)
    return RunResult(state=state, warmup_records=warmup_records, records=records)


def checkpoint_to_json_dict(state: AdaptationState, config: TrainerConfig,
                            config_hash: str) -> dict:
    """Checkpoint document: parameters, prototype sets, step counter, config."""
    return {
        "format": "pacf-checkpoint-v1",
        "config_hash": config_hash,
        "step": state.step,
        "trainer_config": config.to_json_dict(),
        "student": state.student.to_json_dict(),
        "teacher": state.teacher.to_json_dict(),
        "src_prototypes": state.src_protos.to_json_dict() if state.src_protos else None,
        "tgt_prototypes": state.tgt_protos.to_json_dict() if state.tgt_protos else None,
    }


def state_from_checkpoint(doc: dict, path: str = "checkpoint"
                          ) -> tuple[AdaptationState, TrainerConfig, str]:
    """Rebuild a state (with a fresh RNG) plus its trainer config and hash.

    A missing key or a malformed entry raises :class:`ParseError` naming
    ``path`` and the key; so does a teacher whose shapes differ from the
    student's, or a prototype set of another class count or dim.
    """
    entry = entry_reader(doc, path)
    config = entry("trainer_config", TrainerConfig.from_json_dict)
    student = entry("student", ModelParams.from_json_dict)

    def prototypes(doc) -> PrototypeSet:
        pset = PrototypeSet.from_json_dict(doc)
        if (pset.class_count, pset.dim) != (student.class_count, student.feature_dim):
            raise DimensionMismatch(
                f"{pset.class_count} classes of dim {pset.dim}, but the student has "
                f"{student.class_count} classes of dim {student.feature_dim}")
        return pset

    state = AdaptationState(
        student=student,
        teacher=entry("teacher", lambda doc: check_teacher(ModelParams.from_json_dict(doc),
                                                           student)),
        src_protos=entry("src_prototypes", prototypes, optional=True),
        tgt_protos=entry("tgt_prototypes", prototypes, optional=True),
        step=entry("step", as_index),
        rng=np.random.Generator(np.random.PCG64(config.seed)),
    )
    return state, config, doc.get("config_hash", "")
