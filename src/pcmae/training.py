"""Training protocols: augmentation, the pretraining loop, global/local
fine-tuning with linear or nonlinear heads, evaluation, and few-shot episode
sampling.

All loops draw every random decision (shuffles, augmentations, mask seeds,
dropout) from one seeded generator in a fixed order, so a given seed
reproduces loss curves and checkpoints bit-for-bit.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import dataio
from . import tensor as T
from .config import FinetuneProtocol, ModelConfig, TrainConfig
from .geometry import PointCloud
from .layers import (affine, cross_entropy, dropout, layer_norm, layer_norm_layout, mlp_apply,
                     mlp_layout)
from .optim import AdamWState, DivergenceError, adamw_step, cosine_lr
from .pipeline import (BACKBONE_PREFIXES, extract_global_feature,
                       extract_global_feature_t, init_pretrain_params, pretrain_forward)
from .tensor import ParamStore, Tensor

LabeledItem = tuple[PointCloud, int]


def augment(cloud: PointCloud, seed) -> PointCloud:
    """Random isotropic scale in [2/3, 3/2] plus per-axis translation in
    [-0.2, 0.2]; normals are direction-preserving under both and carried over."""
    rng = np.random.default_rng(seed)
    scale = rng.uniform(2.0 / 3.0, 3.0 / 2.0)
    shift = rng.uniform(-0.2, 0.2, size=3)
    return PointCloud(cloud.points * scale + shift, cloud.normals)


def _fit(store: ParamStore, n: int, train_cfg: TrainConfig, rng: np.random.Generator,
         batch_losses, curve: list[tuple[int, float]], log=None, epoch_done=None) -> None:
    """The run skeleton both protocols share: per epoch one permutation of the
    ``n`` items from ``rng``, minibatches of ``train_cfg.batch_size`` in that
    order, and one AdamW step at the cosine rate per minibatch, after which
    the store's gradients are dropped, so none outlives its step.

    ``batch_losses(batch)`` is a generator over a minibatch's item indices:
    it yields one loss value per item as soon as it has them, then runs
    their backward. A non-finite loss raises before that backward, and a
    non-finite gradient raises AdamW's DivergenceError; both messages name
    the epoch and the step, counted from 1 over the whole run. Each epoch's mean loss
    is appended to ``curve`` (the caller's list, so it holds the finished
    epochs when a step diverges) and logged; ``epoch_done(epoch)`` runs after
    that."""
    state = AdamWState()
    total_steps = -(-n // train_cfg.batch_size) * train_cfg.epochs
    step = 0
    store.zero_grads()
    for epoch in range(1, train_cfg.epochs + 1):
        perm = rng.permutation(n)
        losses = []
        for start in range(0, n, train_cfg.batch_size):
            step += 1
            for loss in batch_losses(perm[start:start + train_cfg.batch_size]):
                if not np.isfinite(loss):
                    raise DivergenceError(
                        f"divergence: non-finite loss at epoch {epoch}, step {step}")
                losses.append(loss)
            try:
                adamw_step(store, {name: store[name].grad for name in store.trainable_names()
                                   if store[name].grad is not None},
                           state, cosine_lr(step - 1, total_steps, train_cfg), train_cfg)
            except DivergenceError as exc:
                raise DivergenceError(f"{exc} at epoch {epoch}, step {step}") from None
            store.zero_grads()
        curve.append((epoch, float(np.mean(losses))))
        if log is not None:
            log(f"epoch {epoch}: loss {curve[-1][1]:.6f}")
        if epoch_done is not None:
            epoch_done(epoch)


# Patch points (g * k per cloud) per pretraining graph: ``pretrain_loop`` runs
# a minibatch as chunks of ``pretrain_chunk(cfg)`` clouds, one
# ``pretrain_forward`` and one backward each; the trained bytes do not depend
# on it. A graph holds GATE's per-point activations until its backward, so its
# memory grows with g * k. Measured with perfbench (2-vCPU Xeon, BLAS on one
# thread, 10 s runs, three seeds) at a fixed number of clouds per chunk B,
# with each embedding hidden layer one ``T.affine_norm_gelu`` node:
# - pretrain-tiny (g * k = 256; batch 32), B = 2 / 4 / 8: 96-111 / 115-120 /
#   102-136 train clouds/s at a peak resident set of 63.0-63.3 / 67.9-68.0 /
#   78.6-78.8 MB;
# - pretrain-paper (g * k = 2048; batch 4), B = 1 / 2, two seeds: 3.7-3.9
#   train clouds/s at both, at 687-688 / 735-737 MB.
# The benchmark bounds the peak at +10%, so 1024 points: 4 clouds at
# pretrain-tiny's shape, 1 at the default config.
PRETRAIN_CHUNK_POINTS = 1024


def pretrain_chunk(cfg: ModelConfig) -> int:
    """Clouds per pretraining graph at ``cfg`` (see ``PRETRAIN_CHUNK_POINTS``)."""
    return max(1, PRETRAIN_CHUNK_POINTS // (cfg.g * cfg.k))


def pretrain_loop(clouds: list[PointCloud], train_cfg: TrainConfig,
                  model_cfg: ModelConfig, store: ParamStore | None = None,
                  out_dir=None, log=None) -> tuple[ParamStore, list[tuple[int, float]]]:
    """Masked-reconstruction pretraining over a list of clouds.

    Each minibatch runs in chunks of ``pretrain_chunk(model_cfg)`` clouds: one
    ``pretrain_forward`` graph and one backward per chunk, with every loss
    weighted by 1 / batch size. Each cloud draws its augmentation seed and
    then its forward seed from the run's generator, in minibatch order, and
    the backward adds gradients cloud by cloud, so the trained bytes equal
    those of one graph per cloud.

    Returns the trained store (without gradients) and the per-epoch mean loss
    curve. When ``out_dir`` is given, checkpoints are written at the
    configured epochs (plus the final epoch) and the loss curve as
    ``loss_curve.csv``. A divergent step aborts the run; if no checkpoint
    epoch had finished by then, the weights after the last successful step
    are saved as ``checkpoint_diverged.ckpt``.
    """
    if not clouds:
        raise ValueError("empty dataset")
    if store is None:
        store = init_pretrain_params(model_cfg, seed=train_cfg.seed)
    rng = np.random.default_rng(train_cfg.seed)
    curve: list[tuple[int, float]] = []
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)

    def save(stem):
        if out_dir is not None:
            dataio.save_checkpoint(out_dir / f"checkpoint_{stem}.ckpt",
                                   store, model_cfg, train_cfg)

    step = pretrain_chunk(model_cfg)

    def batch_losses(batch):
        inv = 1.0 / len(batch)
        for lo in range(0, len(batch), step):
            chunk, seeds = [], []
            for idx in batch[lo:lo + step]:
                aug_seed = int(rng.integers(2**63))
                seeds.append(int(rng.integers(2**63)))
                cloud = clouds[int(idx)]
                chunk.append(augment(cloud, aug_seed) if train_cfg.augment else cloud)
            out = pretrain_forward(chunk, model_cfg, store, seeds)
            yield from out.loss.data.tolist()
            (out.loss * inv).sum().backward()

    def epoch_done(epoch):
        if epoch in train_cfg.checkpoint_epochs or epoch == train_cfg.epochs:
            save(f"epoch{epoch:04d}")

    try:
        _fit(store, len(clouds), train_cfg, rng, batch_losses, curve, log, epoch_done)
    except DivergenceError:
        # no checkpoint epoch finished: save the weights as they stand
        if not any(epoch in train_cfg.checkpoint_epochs for epoch, _ in curve):
            save("diverged")
        raise
    finally:
        if out_dir is not None:
            dataio.write_csv(out_dir / "loss_curve.csv", ("epoch", "loss"),
                             [(e, f"{v:.9g}") for e, v in curve])
    return store, curve


# ---------------------------------------------------------------------------
# classification heads
# ---------------------------------------------------------------------------

_NONLINEAR_HIDDEN = 256
_DROPOUT_RATE = 0.5


def classifier_layout(model_cfg: ModelConfig, protocol: FinetuneProtocol) -> list:
    f = model_cfg.feature_dim
    c = protocol.num_classes
    if protocol.head == "linear":
        return mlp_layout("cls", (f, c))
    return (mlp_layout("cls", (f, _NONLINEAR_HIDDEN, _NONLINEAR_HIDDEN, c))
            + layer_norm_layout("cls.ln0", _NONLINEAR_HIDDEN)
            + layer_norm_layout("cls.ln1", _NONLINEAR_HIDDEN))


def classifier_forward(features: Tensor, store: ParamStore,
                       protocol: FinetuneProtocol, training: bool = False,
                       rng: np.random.Generator | None = None) -> Tensor:
    """Logits [B, C] from pooled features [B, 2d]."""
    if protocol.head == "linear":
        return mlp_apply(features, store, "cls")
    # nonlinear: affine -> LN -> ReLU -> dropout, twice, then affine to C
    x = affine(features, store, "cls.l0")
    x = layer_norm(x, store, "cls.ln0")
    x = T.relu(x)
    x = dropout(x, _DROPOUT_RATE, rng, training)
    x = affine(x, store, "cls.l1")
    x = layer_norm(x, store, "cls.ln1")
    x = T.relu(x)
    x = dropout(x, _DROPOUT_RATE, rng, training)
    return affine(x, store, "cls.l2")


# Clouds per featurization call. Geometry and GATE run per cloud; the encoder
# then runs once on the chunk's [B, g, d] tokens, so its affines see B*g rows.
# Frozen-backbone featurization, process time per cloud, BLAS on one thread,
# 2-vCPU Xeon, median of 5 interleaved passes over 128 clouds at the
# acceptance TINY config (g=16, d=96): 7.7 ms at B=1, 6.1-6.2 at B=4 to 64,
# 6.6 at B=128. Default config (g=64, d=384), 3 passes over 32 clouds: 115 ms
# at B=1, 95 at B=8 and at B=32. 32 sits on both plateaus.
FEATURE_CHUNK = 32


def extract_features(clouds: list[PointCloud], model_cfg: ModelConfig,
                     store: ParamStore) -> np.ndarray:
    """Float32 global features [len(clouds), 2d] of ``clouds`` in order, one
    ``extract_global_feature`` call per ``FEATURE_CHUNK`` of them; each row
    equals its cloud's own call byte for byte."""
    return np.concatenate([
        extract_global_feature(clouds[lo:lo + FEATURE_CHUNK], model_cfg, store)
        for lo in range(0, len(clouds), FEATURE_CHUNK)]).astype(np.float32, copy=False)


def _fit_head(backbone: ParamStore, inputs, labels: np.ndarray, protocol: FinetuneProtocol,
              train_cfg: TrainConfig, model_cfg: ModelConfig,
              log=None) -> tuple[ParamStore, list[tuple[int, float]]]:
    """Copy ``backbone``, draw the head into the copy from the run's generator
    and train it with ``_fit``. ``inputs`` holds one entry per item: in local
    scope its feature row (a float32 matrix) under a frozen backbone, in
    global scope its cloud, whose graph each minibatch builds through the
    whole model."""
    store = copy_store(backbone)
    rng = np.random.default_rng(train_cfg.seed)
    store.draw(classifier_layout(model_cfg, protocol), rng)
    local = protocol.scope == "local"
    if local:
        for prefix in BACKBONE_PREFIXES:
            store.freeze_prefix(prefix)

    def batch_losses(batch):
        feats = (Tensor(inputs[batch]) if local
                 else extract_global_feature_t([inputs[i] for i in batch], model_cfg, store))
        logits = classifier_forward(feats, store, protocol, training=True, rng=rng)
        loss = cross_entropy(logits, labels[batch], protocol.num_classes,
                             train_cfg.label_smoothing)
        yield float(loss.data)
        loss.backward()

    history: list[tuple[int, float]] = []
    _fit(store, len(labels), train_cfg, rng, batch_losses, history, log)
    return store, history


def finetune(backbone: ParamStore, train_items: list[LabeledItem],
             protocol: FinetuneProtocol, train_cfg: TrainConfig,
             model_cfg: ModelConfig, log=None) -> tuple[ParamStore, list[tuple[int, float]]]:
    """Train a classification head on pooled global features.

    ``scope=local`` freezes every backbone tensor (verified bit-identical by
    the tests) and featurizes the items once; ``scope=global`` lets gradients
    flow through the whole model. Returns a new store containing backbone +
    head (without gradients) and the loss history.
    """
    if not train_items:
        raise ValueError("empty dataset")
    labels = np.array([label for _, label in train_items], dtype=np.int64)
    if labels.max() >= protocol.num_classes or labels.min() < 0:
        raise ValueError("label outside the configured class count")
    clouds = [cloud for cloud, _ in train_items]
    inputs = extract_features(clouds, model_cfg, backbone) if protocol.scope == "local" else clouds
    return _fit_head(backbone, inputs, labels, protocol, train_cfg, model_cfg, log)


def _accuracy(store: ParamStore, protocol: FinetuneProtocol, feats: np.ndarray,
              labels: np.ndarray) -> float:
    """Exact-match accuracy of the head's argmax predictions on feature rows."""
    logits = classifier_forward(Tensor(feats), store, protocol, training=False)
    return float((np.argmax(logits.data, axis=1) == labels).mean())


def evaluate_classifier(store: ParamStore, model_cfg: ModelConfig,
                        protocol: FinetuneProtocol, items: list[LabeledItem]) -> float:
    """Exact-match accuracy of argmax predictions."""
    if not items:
        raise ValueError("empty dataset")
    feats = extract_features([cloud for cloud, _ in items], model_cfg, store)
    return _accuracy(store, protocol, feats,
                     np.array([label for _, label in items], dtype=np.int64))


def copy_store(store: ParamStore) -> ParamStore:
    out = ParamStore()
    for name, t in store.items():
        out.add(name, t.data.copy(), trainable=t.requires_grad)
    return out


# ---------------------------------------------------------------------------
# few-shot protocol
# ---------------------------------------------------------------------------

@dataclass
class FewShotEpisode:
    """One n-way m-shot split; labels are remapped to 0..n-1 in episode order."""

    train: list[LabeledItem]
    test: list[LabeledItem]
    classes: list[int]          # original class ids, indexed by episode label


def _require_counts(**counts: int) -> None:
    """Raise ValueError naming the first count below 1."""
    for name, value in counts.items():
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")


def _episode_indices(labels: list[int], n_way: int, m_shot: int, test_per_class: int,
                     seed) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Sample n classes without replacement, then m train + ``test_per_class``
    test items per class, disjoint; deterministic per seed. Returns the train
    and test item indices, class by class in episode order, and the chosen
    class ids, so item j of a split has episode label j // (its per-class
    count)."""
    _require_counts(n_way=n_way, m_shot=m_shot, test_per_class=test_per_class)
    rng = np.random.default_rng(seed)
    by_class: dict[int, list[int]] = {}
    for i, label in enumerate(labels):
        by_class.setdefault(int(label), []).append(i)
    eligible = sorted(c for c, idxs in by_class.items()
                      if len(idxs) >= m_shot + test_per_class)
    if len(eligible) < n_way:
        raise ValueError("insufficient samples per class")
    chosen = [int(c) for c in rng.choice(np.array(eligible), size=n_way, replace=False)]
    orders = [rng.permutation(by_class[cls]) for cls in chosen]
    return (np.concatenate([order[:m_shot] for order in orders]),
            np.concatenate([order[m_shot:m_shot + test_per_class] for order in orders]), chosen)


def few_shot_episode(items: list[LabeledItem], n_way: int, m_shot: int,
                     test_per_class: int = 20, seed=0) -> FewShotEpisode:
    """The episode ``_episode_indices`` draws, as (cloud, episode label) items."""
    train, test, chosen = _episode_indices([label for _, label in items], n_way, m_shot,
                                           test_per_class, seed)
    return FewShotEpisode([(items[i][0], j // m_shot) for j, i in enumerate(train)],
                          [(items[i][0], j // test_per_class) for j, i in enumerate(test)],
                          chosen)


def run_few_shot(backbone: ParamStore, items: list[LabeledItem], n_way: int,
                 m_shot: int, train_cfg: TrainConfig, model_cfg: ModelConfig,
                 protocol_head: str = "linear", protocol_scope: str = "local",
                 episodes: int = 10, test_per_class: int = 20,
                 log=None) -> tuple[list[float], float, float]:
    """Mean +- std accuracy over seeded episodes, one fine-tuned head each.

    Every episode is drawn first, as item indices. In local scope the
    backbone is frozen, so the sorted union of the drawn items is featurized
    once and each episode reads its rows of that matrix."""
    _require_counts(n_way=n_way, m_shot=m_shot, episodes=episodes,
                    test_per_class=test_per_class)
    clouds = [cloud for cloud, _ in items]
    labels = [label for _, label in items]
    drawn = [_episode_indices(labels, n_way, m_shot, test_per_class, train_cfg.seed + ep)[:2]
             for ep in range(episodes)]
    protocol = FinetuneProtocol(scope=protocol_scope, head=protocol_head, num_classes=n_way)
    train_labels = np.repeat(np.arange(n_way), m_shot)
    test_labels = np.repeat(np.arange(n_way), test_per_class)
    local = protocol_scope == "local"
    if local:
        union = np.unique(np.concatenate([split for splits in drawn for split in splits]))
        feats = extract_features([clouds[i] for i in union], model_cfg, backbone)
    accs = []
    for ep, (train, test) in enumerate(drawn):
        if local:
            tuned, _ = _fit_head(backbone, feats[np.searchsorted(union, train)], train_labels,
                                 protocol, train_cfg, model_cfg)
            test_feats = feats[np.searchsorted(union, test)]
        else:
            tuned, _ = _fit_head(backbone, [clouds[i] for i in train], train_labels,
                                 protocol, train_cfg, model_cfg)
            test_feats = extract_features([clouds[i] for i in test], model_cfg, tuned)
        acc = _accuracy(tuned, protocol, test_feats, test_labels)
        accs.append(acc)
        if log is not None:
            log(f"episode {ep}: accuracy {acc:.4f}")
    return accs, float(np.mean(accs)), float(np.std(accs))
