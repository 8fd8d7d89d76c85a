"""Built-in verification suite: geometry oracles, gradient checks, and
structural invariants, runnable without a test framework via the
``selfcheck`` CLI command.

Oracles here are deliberately naive re-implementations (exhaustive greedy
selection, full distance sorts, double loops) kept independent of the
optimized kernels they validate.
"""
from __future__ import annotations

import math
import tempfile
from pathlib import Path

import numpy as np

from . import tensor as T
from .attention import (fit_mac_polynomial, init_block, multi_head_external_attention,
                        multi_head_self_attention, encoder_forward, stack_macs)
from .config import BlockConfig, ModelConfig, TrainConfig
from .dataio import load_model_checkpoint, random_rotation, save_checkpoint
from .gradcheck import check_param_gradients, finite_difference_check
from .geometry import (PointCloud, build_patches, estimate_normals,
                       farthest_point_sample, knn, pair_features, spfh_batch)
from .layers import init_layer_norm, init_mlp, layer_norm, mlp_apply, pooled_stats
from .pipeline import (chamfer_l2, chamfer_l2_t, init_pretrain_params,
                       init_reconstruction_head, pretrain_forward, random_mask,
                       reconstruction_head)
from .tensor import ParamStore, Tensor
from .tokenizer import adaptive_saliency, gate_forward, init_gate


TINY = ModelConfig(n=64, g=4, k=8, r=0.6, k_n=8, d=24, heads=2, mlp_ratio=2,
                   enc_depth=2, dec_depth=1, s_mem=8, c_p=16, c_d=16, embed_hidden=8)


def _random_cloud(rng, n) -> PointCloud:
    return PointCloud(rng.normal(size=(n, 3)))


def randomize_params(store: ParamStore, seed, scale=0.15) -> None:
    """Overwrite every tensor with seeded noise (gains near 1), in store order."""
    # generic test point: the sigma=0.02 init is a near-stationary point with
    # vanishing deep-path gradients, useless for derivative verification
    rng = np.random.default_rng(seed)
    for name, t in store.items():
        if name.endswith(".g"):
            t.data = (1.0 + rng.normal(0.0, 0.05, t.data.shape)).astype(t.data.dtype)
        else:
            t.data = rng.normal(0.0, scale, t.data.shape).astype(t.data.dtype)


# --- oracles ----------------------------------------------------------------

def fps_oracle(points: np.ndarray, g: int, first: int) -> list[int]:
    """Exhaustive greedy reference: rescan every candidate at every step."""
    chosen = [first]
    for _ in range(g - 1):
        best_idx, best_val = -1, -1.0
        for cand in range(points.shape[0]):
            if cand in chosen:
                continue
            dmin = min(float(np.sum((points[cand] - points[s]) ** 2)) for s in chosen)
            if dmin > best_val:
                best_val, best_idx = dmin, cand
        chosen.append(best_idx)
    return chosen


def knn_oracle(points: np.ndarray, query: np.ndarray, k: int) -> list[int]:
    """Full sort on (distance, index) pairs."""
    dists = [(float(np.sum((p - query) ** 2)), i) for i, p in enumerate(points)]
    return [i for _, i in sorted(dists)[:k]]


def chamfer_oracle(a: np.ndarray, b: np.ndarray) -> float:
    """Double-loop nearest neighbour in both directions."""
    total_a = 0.0
    for p in a:
        total_a += min(float(np.sum((p - q) ** 2)) for q in b)
    total_b = 0.0
    for q in b:
        total_b += min(float(np.sum((q - p) ** 2)) for p in a)
    return total_a / len(a) + total_b / len(b)


# --- individual checks ------------------------------------------------------

def check_fps_oracle():
    rng = np.random.default_rng(0)
    for _ in range(500):
        n = int(rng.integers(2, 9))
        g = int(rng.integers(1, n + 1))
        pts = rng.normal(size=(n, 3))
        first = int(rng.integers(n))
        cloud = PointCloud(pts)
        got = farthest_point_sample(cloud, g, first_index=first)
        want = fps_oracle(pts, g, first)
        if list(got) != want:
            return False, f"mismatch on n={n} g={g}: {list(got)} vs {want}"
    return True, "500 clouds"


def check_knn_oracle():
    rng = np.random.default_rng(1)
    for _ in range(100):
        n = int(rng.integers(1, 65))
        k = int(rng.integers(1, n + 1))
        pts = rng.normal(size=(n, 3))
        query = rng.normal(size=3)
        got = list(knn(PointCloud(pts), query, k))
        want = knn_oracle(pts, query, k)
        if got != want:
            return False, f"mismatch at n={n} k={k}"
    return True, "100 queries, n from 1 to 64"


def check_chamfer_oracle():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(200):
        a = rng.normal(size=(10, 3))
        b = rng.normal(size=(10, 3))
        got = chamfer_l2(a, b)
        want = chamfer_oracle(a, b)
        worst = max(worst, abs(got - want))
        if worst >= 1e-6:
            return False, f"{got} vs {want}"
        if abs(chamfer_l2(a, b) - chamfer_l2(b, a)) > 0.0:
            return False, "asymmetric"
        if chamfer_l2(a, a) != 0.0:
            return False, "nonzero self distance"
    return True, f"200 pairs, dev {worst:.1e}, symmetric, self-distance 0"


def check_pair_feature_hand_cases():
    f1 = pair_features((0, 0, 0), (0, 0, 1), (1, 0, 0), (0, 0, 1))
    if max(abs(f1.alpha), abs(f1.phi), abs(f1.theta)) > 1e-9:
        return False, f"case 1: {f1}"
    f2 = pair_features((0, 0, 0), (0, 0, 1), (1, 0, 0), (1, 0, 0))
    if abs(f2.alpha) > 1e-9 or abs(f2.phi) > 1e-9 or abs(f2.theta - math.pi / 2) > 1e-9:
        return False, f"case 2: {f2}"
    return True, "two hand-computed cases"


def check_pair_feature_rotation():
    rng = np.random.default_rng(3)
    for _ in range(20):
        p_q = rng.normal(size=3)
        p_i = rng.normal(size=3)
        n_q = rng.normal(size=3)
        n_q /= np.linalg.norm(n_q)
        n_i = rng.normal(size=3)
        n_i /= np.linalg.norm(n_i)
        base = pair_features(p_q, n_q, p_i, n_i)
        rot = random_rotation(rng)
        feat = pair_features(rot @ p_q, rot @ n_q, rot @ p_i, rot @ n_i)
        if max(abs(base.alpha - feat.alpha), abs(base.phi - feat.phi),
               abs(base.theta - feat.theta)) > 1e-6:
            return False, "rotation changed the triple"
    return True, "20 rotations"


def check_descriptor_rotation():
    rng = np.random.default_rng(4)
    cloud = estimate_normals(_random_cloud(rng, 96), 8)
    patches = build_patches(cloud, 6, 12, first_index=0)
    base = spfh_batch(cloud, patches.center_indices, patches.neighbor_indices)
    worst = 0.0
    for _ in range(100):
        rot = random_rotation(rng)
        rotated = PointCloud(cloud.points @ rot.T, cloud.normals @ rot.T)
        feat = spfh_batch(rotated, patches.center_indices, patches.neighbor_indices)
        worst = max(worst, float(np.abs(base - feat).max()))
        if worst >= 1e-5:
            return False, f"max dev {worst:.2e}"
    return True, f"100 rotations of 6x12 patches, max dev {worst:.1e}"


def check_descriptor_histograms():
    rng = np.random.default_rng(5)
    cloud = estimate_normals(_random_cloud(rng, 128), 8)
    patches = build_patches(cloud, 8, 16, first_index=0)
    hists = spfh_batch(cloud, patches.center_indices, patches.neighbor_indices)
    if (hists < 0).any():
        return False, "negative bin"
    for block in range(3):
        sums = hists[:, block * 11:(block + 1) * 11].sum(axis=1)
        if np.abs(sums - 1.0).max() >= 1e-6:
            return False, f"sub-histogram sums off by {np.abs(sums-1).max():.2e}"
    perm = rng.permutation(16)
    permuted = spfh_batch(cloud, patches.center_indices, patches.neighbor_indices[:, perm])
    if not np.array_equal(hists, permuted):
        return False, "neighbour permutation changed the descriptor"
    return True, "sums, signs, permutation"


def check_literal_alpha_degeneracy():
    rng = np.random.default_rng(6)
    alphas_lit = []
    alphas_std = []
    for _ in range(1000):
        p_q, p_i = rng.normal(size=3), rng.normal(size=3)
        n_q = rng.normal(size=3); n_q /= np.linalg.norm(n_q)
        n_i = rng.normal(size=3); n_i /= np.linalg.norm(n_i)
        alphas_lit.append(pair_features(p_q, n_q, p_i, n_i, variant="paper-literal").alpha)
        alphas_std.append(pair_features(p_q, n_q, p_i, n_i, variant="standard").alpha)
    if max(abs(a) for a in alphas_lit) > 1e-12:
        return False, "literal alpha is not identically zero"
    if np.std(alphas_std) <= 1e-3:
        return False, "standard alpha looks constant"
    return True, f"1000 pairs: literal alpha == 0, standard alpha std {np.std(alphas_std):.3f}"


def _gradient_checks() -> list[tuple[str, float]]:
    rng = np.random.default_rng(7)
    results = []

    store = ParamStore()
    init_mlp(store, "m", (6, 12, 5), rng, np.float64)
    x0 = rng.normal(size=(7, 6))
    results.append(("mlp", check_param_gradients(
        lambda: mlp_apply(Tensor(x0), store, "m", (6, 12, 5)).sum(), store)))

    store = ParamStore()
    init_layer_norm(store, "ln", 6, np.float64)
    w = rng.normal(size=(5, 6))
    results.append(("layer_norm", check_param_gradients(
        lambda: (layer_norm(Tensor(x0[:5]), store, "ln") * Tensor(w)).sum(), store)))

    x = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
    results.append(("pooling_max", finite_difference_check(
        lambda t: (pooled_stats(t, 1, "max") * Tensor(np.arange(4.0))).sum(), x)))
    results.append(("pooling_mean", finite_difference_check(
        lambda t: (pooled_stats(t, 0, "mean") * Tensor(np.arange(6.0))).sum(), x)))

    cfgb = BlockConfig(d=8, heads=2, mlp_ratio=2, depth=1, s_mem=4)
    xa = rng.normal(size=(5, 8))
    wa = rng.normal(size=(5, 8))
    store = ParamStore()
    init_block(store, "b", cfgb, "self", rng, np.float64)
    randomize_params(store, 8)
    results.append(("self_attention", check_param_gradients(
        lambda: (multi_head_self_attention(Tensor(xa), store, "b.attn", 2) * Tensor(wa)).sum(),
        store, min_grad=1e-8)))

    store = ParamStore()
    init_block(store, "b", cfgb, "external", rng, np.float64)
    randomize_params(store, 9)
    results.append(("external_attention", check_param_gradients(
        lambda: (multi_head_external_attention(Tensor(xa), store, "b.attn", 2) * Tensor(wa)).sum(),
        store, min_grad=1e-8)))

    store = ParamStore()
    init_gate(store, TINY, rng, np.float64)
    randomize_params(store, 10)
    xp = rng.normal(size=(TINY.g, TINY.k, TINY.c_p))
    results.append(("adaptive_saliency", check_param_gradients(
        lambda: adaptive_saliency(Tensor(xp), store, TINY)[1].mean(), store,
        names=[n for n in store.names() if n.startswith(("gate.ca", "gate.sa"))],
        min_grad=1e-8)))

    store = ParamStore()
    init_reconstruction_head(store, TINY, rng, np.float64)
    randomize_params(store, 11)
    td = rng.normal(size=(3, TINY.d))
    gt = rng.normal(0.0, 0.4, size=(3, TINY.k, 3))
    results.append(("reconstruction_head", check_param_gradients(
        lambda: chamfer_l2_t(reconstruction_head(Tensor(td), TINY.k, store), gt), store)))

    return results


def check_gradients():
    worst_name, worst = None, 0.0
    for name, err in _gradient_checks():
        if err > worst:
            worst_name, worst = name, err
    if worst >= 1e-4:
        return False, f"{worst_name}: {worst:.2e}"
    return True, f"worst {worst_name}: {worst:.2e}"


def check_pretrain_gradient():
    rng = np.random.default_rng(11)
    cloud = estimate_normals(_random_cloud(rng, TINY.n), TINY.k_n)
    store = init_pretrain_params(TINY, seed=0, dtype=np.float64)
    randomize_params(store, 12)
    err = check_param_gradients(
        lambda: pretrain_forward(cloud, TINY, store, seed=11).loss,
        store, max_coords=300, rng=13, min_grad=1e-6)
    return err < 1e-4, f"max rel err {err:.2e} (300 sampled coords)"


def check_mask_cardinality():
    combos = 0
    for g in range(4, 257, 12):
        for r in (0.1, 0.2, 0.25, 0.3, 0.4, 0.5, 0.6, 0.7, 0.75, 0.8, 0.9):
            want = int(r * g)
            if want < 1 or g - want < 1:
                continue    # outside the op's precondition
            layout = random_mask(g, r, seed=g * 1000 + int(r * 100))
            if len(layout.masked_indices) != want:
                return False, f"g={g} r={r}: {len(layout.masked_indices)} != {want}"
            union = np.union1d(layout.masked_indices, layout.visible_indices)
            if len(union) != g:
                return False, "masked/visible do not partition"
            combos += 1
    return True, f"{combos} (g, r) combinations"


def check_ea_row_sums():
    rng = np.random.default_rng(14)
    # a 3-head block at d=12, and the shape of TINY's encoder blocks
    for cfgb in (BlockConfig(d=12, heads=3, mlp_ratio=2, depth=1, s_mem=5),
                 TINY.encoder_blocks()):
        store = ParamStore()
        init_block(store, "b", cfgb, "external", rng, np.float64)
        randomize_params(store, 15)
        for m in (1, 2, 7):
            x = Tensor(rng.normal(size=(m, cfgb.d)))
            q = T.matmul(x, store["b.attn.q.w"])
            q = q.reshape((m, cfgb.heads, cfgb.d_head)).transpose((1, 0, 2))
            raw = T.matmul(q, store["b.attn.mk"].transpose((0, 2, 1)))
            attn = T.softmax(raw, axis=1)
            attn = attn / attn.sum(axis=2, keepdims=True)
            sums = attn.data.sum(axis=2)
            if np.abs(sums - 1.0).max() >= 1e-6:
                return False, (f"d={cfgb.d} m={m}: row sums off by "
                               f"{np.abs(sums-1).max():.2e}")
    return True, "token rows sum to 1 for d/heads in {12/3, 24/2}, m in {1,2,7}"


def check_saliency_range():
    rng = np.random.default_rng(16)
    for x_scale, p_scale in ((5.0, 0.5), (4.0, 0.15)):
        store = ParamStore()
        init_gate(store, TINY, rng, np.float64)
        randomize_params(store, 17, scale=p_scale)
        x = Tensor(rng.normal(0.0, x_scale, size=(TINY.g, TINY.k, TINY.c_p)))
        weights, _ = adaptive_saliency(x, store, TINY)
        for arr in (weights.channel.data, weights.spatial.data):
            if not ((arr > 0.0).all() and (arr < 1.0).all()):
                return False, (f"input scale {x_scale}, params {p_scale}: "
                               "gate left the open interval (0,1)")
    return True, "all gates in (0,1) at input scales 5 and 4"


def check_encoder_permutation():
    rng = np.random.default_rng(18)
    store = init_pretrain_params(TINY, seed=3, dtype=np.float64)
    randomize_params(store, 19)
    m = 6
    tokens = rng.normal(size=(m, TINY.d))
    centers = rng.normal(size=(m, 3))
    base = encoder_forward(Tensor(tokens), centers, store, TINY).data
    worst = 0.0
    for _ in range(20):
        perm = rng.permutation(m)
        out = encoder_forward(Tensor(tokens[perm]), centers[perm], store, TINY).data
        worst = max(worst, float(np.abs(out - base[perm]).max()))
        if worst >= 1e-5:
            return False, f"deviation {worst:.2e}"
    return True, f"20 permutations, max dev {worst:.1e}"


def check_gate_point_permutation():
    rng = np.random.default_rng(20)
    cloud = estimate_normals(_random_cloud(rng, TINY.n), TINY.k_n)
    patches = build_patches(cloud, TINY.g, TINY.k, first_index=0)
    store = init_pretrain_params(TINY, seed=4, dtype=np.float64)
    randomize_params(store, 21)
    descs = spfh_batch(cloud, patches.center_indices, patches.neighbor_indices)
    base = gate_forward(patches, descs, store, TINY).tokens.data
    for _ in range(20):
        perm = rng.permutation(TINY.k)
        shuffled = type(patches)(patches.center_indices, patches.centers,
                                 patches.neighborhoods[:, perm], patches.neighbor_indices[:, perm])
        out = gate_forward(shuffled, descs, store, TINY).tokens.data
        if not np.array_equal(out, base):
            return False, "token changed under point permutation"
    return True, "20 permutations (exact)"


def check_mac_accounting():
    cfg = ModelConfig()
    ms = [16, 32, 64, 128]
    enc = cfg.encoder_blocks()
    ea = [stack_macs("external", m, enc, cfg.ea_query_projection) for m in ms]
    sa = [stack_macs("self", m, cfg.decoder_blocks()) for m in ms]
    c_ea = fit_mac_polynomial(ms, ea)
    c_sa = fit_mac_polynomial(ms, sa)
    if abs(c_ea[2]) >= 1e-9 * abs(c_ea[1]):
        return False, f"external quadratic term {c_ea[2]:.3e} vs linear {c_ea[1]:.3e}"
    if c_sa[2] <= 0:
        return False, "self-attention quadratic term not positive"
    return True, (f"external m^2 coeff {c_ea[2]:.2e} (linear {c_ea[1]:.2e}); "
                  f"self m^2 coeff {c_sa[2]:.2e}")


def check_checkpoint_roundtrip():
    store = init_pretrain_params(TINY, seed=5)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "check.ckpt"
        save_checkpoint(path, store, TINY, TrainConfig())
        first = path.read_bytes()
        save_checkpoint(path, store, TINY, TrainConfig())
        if path.read_bytes() != first:
            return False, "two saves differ"
        loaded, cfg, _ = load_model_checkpoint(path, expect_model=TINY)
        for name, t in store.items():
            if not np.array_equal(loaded[name].data, t.data):
                return False, f"tensor {name} not bit-exact"
    return True, "bit-exact roundtrip, deterministic bytes"


def check_pretrain_determinism():
    rng = np.random.default_rng(22)
    cloud = estimate_normals(_random_cloud(rng, TINY.n), TINY.k_n)
    store = init_pretrain_params(TINY, seed=6)
    a = pretrain_forward(cloud, TINY, store, seed=23)
    b = pretrain_forward(cloud, TINY, store, seed=23)
    if float(a.loss.data) != float(b.loss.data):
        return False, "loss differs across identical calls"
    if not np.array_equal(a.prediction.prediction, b.prediction.prediction):
        return False, "prediction differs across identical calls"
    return True, "bit-identical repeat"


ALL_CHECKS = [
    ("fps_exhaustive_greedy", check_fps_oracle),
    ("knn_full_sort", check_knn_oracle),
    ("chamfer_double_loop", check_chamfer_oracle),
    ("pair_feature_hand_cases", check_pair_feature_hand_cases),
    ("pair_feature_rotation_invariance", check_pair_feature_rotation),
    ("descriptor_rotation_invariance", check_descriptor_rotation),
    ("descriptor_histograms", check_descriptor_histograms),
    ("literal_alpha_degeneracy", check_literal_alpha_degeneracy),
    ("gradient_primitives", check_gradients),
    ("gradient_pretrain_loss", check_pretrain_gradient),
    ("mask_cardinality", check_mask_cardinality),
    ("external_attention_row_sums", check_ea_row_sums),
    ("saliency_gate_range", check_saliency_range),
    ("encoder_permutation_equivariance", check_encoder_permutation),
    ("gate_point_permutation_invariance", check_gate_point_permutation),
    ("attention_mac_scaling", check_mac_accounting),
    ("checkpoint_roundtrip", check_checkpoint_roundtrip),
    ("pretrain_determinism", check_pretrain_determinism),
]


def run_selfcheck(report=print) -> bool:
    """Run every check, emit one ``name,status,detail`` line each; True iff
    all passed."""
    report("check,status,detail")
    all_ok = True
    for name, fn in ALL_CHECKS:
        try:
            ok, detail = fn()
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"exception: {exc}"
        all_ok &= ok
        report(f"{name},{'PASS' if ok else 'FAIL'},{detail}")
    return all_ok
