"""Masked-autoencoder orchestration: random masking, the reconstruction head,
the L2 Chamfer objective, the full pretraining forward pass, and global
feature extraction for downstream classifiers.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from . import tensor as T
from .attention import decoder_forward, encoder_forward, init_decoder, init_encoder
from .config import ModelConfig
from .geometry import PatchSet, PointCloud, build_patches, estimate_normals, spfh_batch
from .layers import init_affine, affine
from .tensor import ParamStore, Tensor
from .tokenizer import gate_forward, init_gate


@dataclass
class MaskLayout:
    """Partition of patch indices into masked and visible subsets."""

    masked_indices: np.ndarray
    visible_indices: np.ndarray
    ratio: float


@dataclass
class ReconstructionTarget:
    patches_gt: np.ndarray     # [masked_count, k, 3], centered frame
    prediction: np.ndarray     # [masked_count, k, 3]


@dataclass
class PretrainOutput:
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


def init_reconstruction_head(store: ParamStore, cfg: ModelConfig, rng,
                             dtype=np.float32) -> None:
    init_affine(store, "head", cfg.d, 3 * cfg.k, rng, dtype)


def reconstruction_head(t_d: Tensor, k: int, store: ParamStore) -> Tensor:
    """Affine d -> 3k, reshaped to [masked_count, k, 3] centered coordinates."""
    m_c = t_d.shape[0]
    out = affine(t_d, store, "head")
    return out.reshape((m_c, k, 3))


def init_pretrain_params(cfg: ModelConfig, seed: int = 0, dtype=np.float32) -> ParamStore:
    """All learnable tensors of the pretraining model, deterministically seeded."""
    rng = np.random.default_rng(seed)
    store = ParamStore()
    init_gate(store, cfg, rng, dtype)
    init_encoder(store, cfg, rng, dtype)
    init_decoder(store, cfg, rng, dtype)
    init_reconstruction_head(store, cfg, rng, dtype)
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

    pred: [B, Np, 3] tensor; gt: [B, Ng, 3] array. Ties in the NN search take
    the lowest index, matching the subgradient choice.
    """
    gt = np.ascontiguousarray(gt, dtype=pred.data.dtype)
    b, n_p = pred.shape[0], pred.shape[1]
    n_g = gt.shape[1]
    min_a, arg_a, min_b, arg_b = kernels.chamfer_terms(pred.data, gt)
    loss_val = (min_a.mean(axis=1) + min_b.mean(axis=1)).mean()

    def bw(g_out):
        scale = g_out if np.ndim(g_out) == 0 else g_out.reshape(())
        grad = 2.0 * (pred.data - np.take_along_axis(gt, arg_a[:, :, None], axis=1))
        grad /= n_p
        nearest_pred = np.take_along_axis(pred.data, arg_b[:, :, None], axis=1)
        back = 2.0 * (nearest_pred - gt) / n_g
        np.add.at(grad, (np.arange(b)[:, None], arg_b), back)
        pred._accumulate(grad * (scale / b), fresh=True)

    return T._result(np.asarray(loss_val, dtype=pred.data.dtype), (pred,), bw)


# ---------------------------------------------------------------------------
# full pretraining pass
# ---------------------------------------------------------------------------

def prepare_cloud(cloud: PointCloud, cfg: ModelConfig) -> PointCloud:
    """Estimate PCA normals, on every call, if the cloud does not carry any."""
    if cloud.normals is None:
        return estimate_normals(cloud, cfg.k_n)
    return cloud


def tokenize(cloud: PointCloud, cfg: ModelConfig, store: ParamStore, seed):
    """Geometry front end + GATE: returns (token sequence, patches)."""
    cloud = prepare_cloud(cloud, cfg)
    patches = build_patches(cloud, cfg.g, cfg.k, seed=seed)
    descriptors = spfh_batch(cloud, patches.center_indices, patches.neighbor_indices,
                             bins=cfg.bins, variant=cfg.pair_feature_variant)
    return gate_forward(patches, descriptors, store, cfg), patches


def pretrain_forward(cloud: PointCloud, cfg: ModelConfig, store: ParamStore,
                     seed) -> PretrainOutput:
    """Masked reconstruction pass: tokenize, mask, encode visible tokens,
    decode masked positions, predict patches, score with Chamfer-L2."""
    root = np.random.SeedSequence(seed)
    fps_seed, mask_seed = root.spawn(2)
    sequence, patches = tokenize(cloud, cfg, store, fps_seed)
    layout = random_mask(cfg.g, cfg.r, mask_seed)

    visible_tokens = T.take_rows(sequence.tokens, layout.visible_indices)
    encoded = encoder_forward(visible_tokens, sequence.centers[layout.visible_indices],
                              store, cfg)
    decoded = decoder_forward(encoded, sequence.centers[layout.visible_indices],
                              sequence.centers[layout.masked_indices], store, cfg)
    pred = reconstruction_head(decoded, cfg.k, store)
    gt = patches.neighborhoods[layout.masked_indices]
    loss = chamfer_l2_t(pred, gt)
    target = ReconstructionTarget(patches_gt=gt.astype(np.float64),
                                  prediction=pred.data.astype(np.float64))
    return PretrainOutput(loss, layout, target, patches)


def extract_global_feature(cloud: PointCloud, cfg: ModelConfig,
                           store: ParamStore) -> np.ndarray:
    """Concatenated max/mean pooling of encoder outputs over all g tokens
    (no masking); length 2d. Deterministic: patching uses a fixed seed."""
    return extract_global_feature_t(cloud, cfg, store).data.copy()


def extract_global_feature_t(cloud: PointCloud, cfg: ModelConfig,
                             store: ParamStore) -> Tensor:
    sequence, _ = tokenize(cloud, cfg, store, seed=0)
    encoded = encoder_forward(sequence.tokens, sequence.centers, store, cfg)
    return T.concat([encoded.max(axis=0), encoded.mean(axis=0)], axis=0)


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
