"""Masked-autoencoder orchestration: random masking, the reconstruction head,
the L2 Chamfer objective, the full pretraining forward pass, and global
feature extraction for downstream classifiers.
"""
from __future__ import annotations

import dataclasses
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import kernels
from . import tensor as T
from .attention import decoder_forward, decoder_layout, encoder_forward, encoder_layout
from .config import ModelConfig
from .geometry import PatchSet, PointCloud, build_patches, estimate_normals, spfh_batch
from .layers import affine, affine_layout
from .tensor import ParamStore, Tensor
from .tokenizer import gate_forward, gate_layout


@dataclass
class MaskLayout:
    """Partition of patch indices into masked and visible subsets."""

    masked_indices: np.ndarray
    visible_indices: np.ndarray
    ratio: float


@dataclass
class ReconstructionTarget:
    patches_gt: np.ndarray     # [..., masked_count, k, 3], centered frame
    prediction: np.ndarray     # [..., masked_count, k, 3]


@dataclass
class PretrainOutput:
    """One ``pretrain_forward`` call. For a chunk of B clouds every field
    has a leading cloud axis: ``loss`` [B] holds each cloud's Chamfer loss,
    the mask's index arrays are [B, m] and [B, v], and ``patches`` stacks
    the B patch sets. A one-cloud call drops that axis."""

    loss: Tensor
    mask: MaskLayout
    prediction: ReconstructionTarget
    patches: PatchSet          # the patches the tokens were built from


def random_mask(g: int, r: float, seed) -> MaskLayout:
    """Uniformly random masked subset of size floor(r*g), sorted indices."""
    masked_count = int(r * g)
    if not (0.0 < r < 1.0) or masked_count < 1 or g - masked_count < 1:
        raise ValueError("mask ratio leaves no masked or no visible tokens")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(g)
    masked = np.sort(perm[:masked_count])
    visible = np.sort(perm[masked_count:])
    return MaskLayout(masked, visible, r)


def reconstruction_head_layout(cfg: ModelConfig) -> list:
    return affine_layout("head", cfg.d, 3 * cfg.k)


def reconstruction_head(t_d: Tensor, k: int, store: ParamStore) -> Tensor:
    """Affine d -> 3k, reshaped to [..., masked_count, k, 3] centered
    coordinates."""
    out = affine(t_d, store, "head")
    return out.reshape((*t_d.shape[:-1], k, 3))


def pretrain_layout(cfg: ModelConfig) -> list:
    """Names, shapes and inits of all learnable tensors of the pretraining
    model, in draw order."""
    return (gate_layout(cfg) + encoder_layout(cfg) + decoder_layout(cfg)
            + reconstruction_head_layout(cfg))


def init_pretrain_params(cfg: ModelConfig, seed: int = 0, dtype=np.float32) -> ParamStore:
    """All learnable tensors of the pretraining model, deterministically seeded."""
    store = ParamStore()
    store.draw(pretrain_layout(cfg), np.random.default_rng(seed), dtype)
    return store


BACKBONE_PREFIXES = ("gate.", "enc.", "dec.", "head.")


# ---------------------------------------------------------------------------
# Chamfer distance
# ---------------------------------------------------------------------------

def _as_batch(x) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 2:
        arr = arr[None]
    if arr.ndim != 3 or arr.shape[-1] != 3:
        raise ValueError("expected [N,3] or [B,N,3] point sets")
    if arr.shape[1] == 0:
        raise ValueError("empty point set")
    return arr


def chamfer_l2(pred, gt) -> float:
    """Symmetric mean of squared nearest-neighbour distances, averaged over
    the batch."""
    a = _as_batch(pred)
    b = _as_batch(gt)
    if a.shape[0] != b.shape[0]:
        raise ValueError("batch sizes differ")
    min_a, _, min_b, _ = kernels.chamfer_terms(a, b)
    per_patch = min_a.mean(axis=1) + min_b.mean(axis=1)
    return float(per_patch.mean())


def chamfer_l2_t(pred: Tensor, gt: np.ndarray) -> Tensor:
    """Differentiable Chamfer loss of predicted patches against fixed targets.

    pred: [..., P, Np, 3] tensor; gt: [..., P, Ng, 3] array. The loss is the
    mean over the P patches, one per leading index: a scalar for [P, Np, 3],
    one loss per cloud for a chunk [B, P, Np, 3]. Ties in the NN search take
    the lowest index, matching the subgradient choice.
    """
    gt = np.ascontiguousarray(gt, dtype=pred.data.dtype)
    *lead, b, n_p, _ = pred.shape
    n_g = gt.shape[-2]
    flat_pred = pred.data.reshape(-1, n_p, 3)
    flat_gt = gt.reshape(-1, n_g, 3)
    min_a, arg_a, min_b, arg_b = kernels.chamfer_terms(flat_pred, flat_gt)
    per_patch = (min_a.mean(axis=1) + min_b.mean(axis=1)).reshape(*lead, b)
    loss_val = per_patch.mean(axis=-1)

    def bw(g_out):
        grad = 2.0 * (flat_pred - np.take_along_axis(flat_gt, arg_a[:, :, None], axis=1))
        grad /= n_p
        nearest_pred = np.take_along_axis(flat_pred, arg_b[:, :, None], axis=1)
        back = 2.0 * (nearest_pred - flat_gt) / n_g
        np.add.at(grad, (np.arange(len(grad))[:, None], arg_b), back)
        scale = (np.asarray(g_out) / b).reshape(*lead, 1, 1, 1)
        pred._accumulate(grad.reshape(pred.shape) * scale, fresh=True)

    return T._result(np.asarray(loss_val, dtype=pred.data.dtype), (pred,), bw)


# ---------------------------------------------------------------------------
# full pretraining pass
# ---------------------------------------------------------------------------

def prepare_cloud(cloud: PointCloud, cfg: ModelConfig) -> PointCloud:
    """Estimate PCA normals, on every call, if the cloud does not carry any."""
    if cloud.normals is None:
        return estimate_normals(cloud, cfg.k_n)
    return cloud


def patch_descriptors(cloud: PointCloud, cfg: ModelConfig, seed) -> tuple[PatchSet, np.ndarray]:
    """Geometry front end: normals (carried, else estimated), FPS + kNN
    patches, and one SPFH descriptor row [3 * bins] per patch."""
    cloud = prepare_cloud(cloud, cfg)
    patches = build_patches(cloud, cfg.g, cfg.k, seed=seed)
    descriptors = spfh_batch(cloud, patches.center_indices, patches.neighbor_indices,
                             bins=cfg.bins, variant=cfg.pair_feature_variant)
    return patches, descriptors


def stack_geometry(clouds: Sequence[PointCloud], cfg: ModelConfig, seeds) -> tuple[PatchSet, np.ndarray]:
    """``patch_descriptors`` of each cloud at its seed, stacked on a leading
    cloud axis: a ``PatchSet`` of [B, ...] arrays and descriptors [B, g, 3 * bins]."""
    sets, descriptors = zip(*(patch_descriptors(c, cfg, s) for c, s in zip(clouds, seeds)))
    return (PatchSet(*(np.stack([getattr(p, f.name) for p in sets])
                       for f in dataclasses.fields(PatchSet))), np.stack(descriptors))


def _take(patches: PatchSet, key) -> PatchSet:
    """Index every array of a stacked ``PatchSet`` along its cloud axis."""
    return PatchSet(*(getattr(patches, f.name)[key] for f in dataclasses.fields(PatchSet)))


def pretrain_forward(clouds: PointCloud | Sequence[PointCloud], cfg: ModelConfig,
                     store: ParamStore, seed) -> PretrainOutput:
    """Masked reconstruction pass over a chunk of clouds, one forward seed
    per cloud (``seed`` is then a sequence); one cloud with one seed is the
    B = 1 case, and its outputs drop the cloud axis.

    Per cloud the seed spawns an FPS seed and a mask seed: geometry front end
    and a random mask. The B patch sets are stacked, and GATE, the encoder
    on the visible tokens, the decoder at the masked positions, the head and
    Chamfer-L2 each run once over the chunk, as one graph built in
    ``T.per_cloud()`` mode. ``random_mask`` draws the same counts for every
    cloud, so the chunk's tensors are [B, g, ...], [B, v, ...] and
    [B, m, ...]. Every cloud's loss and prediction are the bytes of its own
    call, and a backward adds each parameter's gradient cloud by cloud, as B
    one-cloud backwards in order would."""
    single = isinstance(clouds, PointCloud)
    batch, seeds = ([clouds], [seed]) if single else (list(clouds), list(seed))
    fps_seeds, mask_seeds = zip(*(np.random.SeedSequence(s).spawn(2) for s in seeds))
    patches, descriptors = stack_geometry(batch, cfg, fps_seeds)
    layouts = [random_mask(cfg.g, cfg.r, s) for s in mask_seeds]
    visible = np.stack([layout.visible_indices for layout in layouts])
    masked = np.stack([layout.masked_indices for layout in layouts])
    rows = np.arange(len(batch))[:, None]
    with T.per_cloud():
        sequence = gate_forward(patches, descriptors, store, cfg)
        centers = sequence.centers
        encoded = encoder_forward(sequence.tokens[rows, visible], centers[rows, visible],
                                  store, cfg)
        decoded = decoder_forward(encoded, centers[rows, visible], centers[rows, masked],
                                  store, cfg)
        pred = reconstruction_head(decoded, cfg.k, store)
        gt = patches.neighborhoods[rows, masked]
        loss = chamfer_l2_t(pred, gt)
    target = ReconstructionTarget(patches_gt=gt.astype(np.float64),
                                  prediction=pred.data.astype(np.float64))
    if single:
        return PretrainOutput(loss.reshape(()), layouts[0],
                              ReconstructionTarget(target.patches_gt[0], target.prediction[0]),
                              _take(patches, 0))
    return PretrainOutput(loss, MaskLayout(masked, visible, cfg.r), target, patches)


def extract_global_feature(clouds: PointCloud | Sequence[PointCloud], cfg: ModelConfig,
                           store: ParamStore) -> np.ndarray:
    """Concatenated max/mean pooling of encoder outputs over all g tokens (no
    masking): [2d] for one cloud, [B, 2d] for a sequence of B clouds (callers
    pass chunks of ``training.FEATURE_CHUNK``). Deterministic: patching uses
    a fixed seed.

    GATE runs per cloud to bound memory: frozen, with BLAS on one thread, one
    stacked GATE took 12-14% less time per cloud but raised peak RSS from 46
    to 79 MB over 32 bench-TINY clouds and from 167 to 317 MB over 8
    default-config clouds. Each row equals its cloud's own call byte for byte. No
    gradient is built, even through a trainable store, so a chunk holds no
    graph; the bytes are those of ``extract_global_feature_t``."""
    frozen = ParamStore()
    for name, t in store.items():
        frozen.add(name, t.data, trainable=False)
    return extract_global_feature_t(clouds, cfg, frozen).data.copy()


def extract_global_feature_t(clouds: PointCloud | Sequence[PointCloud], cfg: ModelConfig,
                             store: ParamStore) -> Tensor:
    """``extract_global_feature`` as a tensor, differentiable through the
    store's trainable parameters; one cloud is the B = 1 case. One graph in
    ``T.per_cloud()`` mode: a backward adds backbone gradients cloud by cloud."""
    batch = [clouds] if isinstance(clouds, PointCloud) else list(clouds)
    patches, descriptors = stack_geometry(batch, cfg, [0] * len(batch))
    with T.per_cloud():
        tokens = T.concat([gate_forward(_take(patches, slice(b, b + 1)), descriptors[b:b + 1],
                                        store, cfg).tokens for b in range(len(batch))])
        encoded = encoder_forward(tokens, patches.centers, store, cfg)
        feats = T.concat([encoded.max(axis=-2), encoded.mean(axis=-2)], axis=-1)
    return feats.reshape((feats.shape[-1],)) if isinstance(clouds, PointCloud) else feats


def reconstruction_dump(cloud: PointCloud, cfg: ModelConfig, store: ParamStore,
                        seed) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Point sets for external plotting: (input cloud, visible patch points,
    predicted masked patch points), all in the input frame."""
    out = pretrain_forward(cloud, cfg, store, seed)
    patches = out.patches
    vis = patches.neighborhoods[out.mask.visible_indices] \
        + patches.centers[out.mask.visible_indices][:, None, :]
    pred = out.prediction.prediction \
        + patches.centers[out.mask.masked_indices][:, None, :]
    return cloud.points.copy(), vis.reshape(-1, 3), pred.reshape(-1, 3)
