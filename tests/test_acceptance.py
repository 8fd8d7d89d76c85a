"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines
as they complete. Tolerances and runtime bounds are pinned here.
"""
import hashlib
import math
import time

import numpy as np
import pytest

from pcmae.config import FinetuneProtocol, ModelConfig, TrainConfig
from pcmae.dataio import load_checkpoint, random_rotation, save_checkpoint, synth_shapes
from pcmae.geometry import (PointCloud, build_patches, estimate_normals,
                            farthest_point_sample, knn, pair_features, spfh_batch)
from pcmae.gradcheck import check_param_gradients
from pcmae.optim import AdamWState, adamw_step, cosine_lr
from pcmae.pipeline import (chamfer_l2, init_pretrain_params, pretrain_forward,
                            random_mask)
from pcmae.selfcheck import chamfer_oracle, fps_oracle, knn_oracle, randomize_params
from pcmae.tensor import ParamStore, Tensor
from pcmae.training import (evaluate_classifier, few_shot_episode, finetune,
                            pretrain_loop, run_few_shot)

# the tiny configuration used by the training-scale criteria
TINY = ModelConfig(n=256, g=16, k=16, r=0.6, k_n=16, d=96, heads=6, mlp_ratio=4,
                   enc_depth=4, dec_depth=2, s_mem=16, c_p=96, c_d=96, embed_hidden=96)
# the miniature configuration used by the gradient criterion
GRAD_CFG = ModelConfig(n=64, g=4, k=8, r=0.6, k_n=8, d=24, heads=2, mlp_ratio=2,
                       enc_depth=2, dec_depth=1, s_mem=8, c_p=16, c_d=16, embed_hidden=8)


def report(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\n[{status}] criterion {number}: {name} -- {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def test_criterion_1_geometry_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    for _ in range(500):
        n = int(rng.integers(2, 9))
        g = int(rng.integers(1, n + 1))
        pts = rng.normal(size=(n, 3))
        first = int(rng.integers(n))
        got = list(farthest_point_sample(PointCloud(pts), g, first_index=first))
        assert got == fps_oracle(pts, g, first)

    for _ in range(100):
        n = int(rng.integers(1, 65))
        k = int(rng.integers(1, n + 1))
        pts = rng.normal(size=(n, 3))
        q = rng.normal(size=3)
        assert list(knn(PointCloud(pts), q, k)) == knn_oracle(pts, q, k)

    worst = 0.0
    for _ in range(200):
        a = rng.normal(size=(10, 3))
        b = rng.normal(size=(10, 3))
        worst = max(worst, abs(chamfer_l2(a, b) - chamfer_oracle(a, b)))
    assert worst < 1e-6
    elapsed = time.perf_counter() - t0
    report(1, "geometry oracles", elapsed < 10.0,
           f"FPS 500/500, kNN 100/100, Chamfer dev {worst:.1e}, {elapsed:.1f}s")


def test_criterion_2_spfh_correctness():
    t0 = time.perf_counter()
    f1 = pair_features((0, 0, 0), (0, 0, 1), (1, 0, 0), (0, 0, 1))
    ok_hand = max(abs(f1.alpha), abs(f1.phi), abs(f1.theta)) <= 1e-9
    f2 = pair_features((0, 0, 0), (0, 0, 1), (1, 0, 0), (1, 0, 0))
    ok_hand &= (abs(f2.alpha) <= 1e-9 and abs(f2.phi) <= 1e-9
                and abs(f2.theta - math.pi / 2) <= 1e-9)

    rng = np.random.default_rng(2)
    cloud = estimate_normals(PointCloud(rng.normal(size=(96, 3))), 8)
    patches = build_patches(cloud, 6, 12, first_index=0)
    base = spfh_batch(cloud, patches.center_indices, patches.neighbor_indices)
    rot_dev = 0.0
    for _ in range(100):
        rot = random_rotation(rng)
        rotated = PointCloud(cloud.points @ rot.T, cloud.normals @ rot.T)
        got = spfh_batch(rotated, patches.center_indices, patches.neighbor_indices)
        rot_dev = max(rot_dev, float(np.abs(got - base).max()))

    sums_ok = all(
        np.abs(base[:, blk * 11:(blk + 1) * 11].sum(axis=1) - 1.0).max() < 1e-6
        for blk in range(3)) and (base >= 0).all()
    elapsed = time.perf_counter() - t0
    report(2, "SPFH correctness",
           ok_hand and rot_dev < 1e-5 and sums_ok and elapsed < 10.0,
           f"hand cases exact, rotation dev {rot_dev:.1e}, sums ok, {elapsed:.1f}s")


def test_criterion_3_degeneracy_audit():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    lit_max = 0.0
    std_vals = []
    for _ in range(1000):
        p_q, p_i = rng.normal(size=3), rng.normal(size=3)
        n_q = rng.normal(size=3)
        n_q /= np.linalg.norm(n_q)
        n_i = rng.normal(size=3)
        n_i /= np.linalg.norm(n_i)
        lit_max = max(lit_max, abs(pair_features(p_q, n_q, p_i, n_i,
                                                 variant="paper-literal").alpha))
        std_vals.append(pair_features(p_q, n_q, p_i, n_i, variant="standard").alpha)
    elapsed = time.perf_counter() - t0
    report(3, "pair-feature variant audit",
           lit_max <= 1e-12 and np.std(std_vals) > 1e-3 and elapsed < 5.0,
           f"literal |alpha| <= {lit_max:.1e}, standard std {np.std(std_vals):.3f}, "
           f"{elapsed:.1f}s")


def test_criterion_4_gradient_suite():
    from pcmae.attention import (init_block, multi_head_external_attention,
                                 multi_head_self_attention)
    from pcmae.config import BlockConfig
    from pcmae.layers import init_layer_norm, init_mlp, layer_norm, mlp_apply, pooled_stats
    from pcmae.gradcheck import finite_difference_check
    from pcmae.pipeline import chamfer_l2_t, init_reconstruction_head, reconstruction_head
    from pcmae.tokenizer import adaptive_saliency, init_gate

    t0 = time.perf_counter()
    rng = np.random.default_rng(4)
    errors = {}

    store = ParamStore()
    init_mlp(store, "m", (6, 12, 5), rng, np.float64)
    x0 = rng.normal(size=(7, 6))
    errors["mlp"] = check_param_gradients(
        lambda: mlp_apply(Tensor(x0), store, "m", (6, 12, 5)).sum(), store)

    store = ParamStore()
    init_layer_norm(store, "ln", 6, np.float64)
    w = rng.normal(size=(5, 6))
    errors["layer_norm"] = check_param_gradients(
        lambda: (layer_norm(Tensor(x0[:5]), store, "ln") * Tensor(w)).sum(), store)

    x = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
    errors["pooling"] = max(
        finite_difference_check(
            lambda t: (pooled_stats(t, 1, "max") * Tensor(np.arange(4.0))).sum(), x),
        finite_difference_check(
            lambda t: (pooled_stats(t, 0, "mean") * Tensor(np.arange(6.0))).sum(), x))

    cfgb = BlockConfig(d=8, heads=2, mlp_ratio=2, depth=1, s_mem=4)
    xa = rng.normal(size=(5, 8))
    wa = rng.normal(size=(5, 8))
    store = ParamStore()
    init_block(store, "b", cfgb, "self", rng, np.float64)
    randomize_params(store, 5)
    errors["self_attention"] = check_param_gradients(
        lambda: (multi_head_self_attention(Tensor(xa), store, "b.attn", 2)
                 * Tensor(wa)).sum(),
        store, names=[n for n in store.names() if "attn" in n], min_grad=1e-8)

    store = ParamStore()
    init_block(store, "b", cfgb, "external", rng, np.float64)
    randomize_params(store, 6)
    errors["external_attention"] = check_param_gradients(
        lambda: (multi_head_external_attention(Tensor(xa), store, "b.attn", 2)
                 * Tensor(wa)).sum(),
        store, names=[n for n in store.names() if "attn" in n], min_grad=1e-8)

    store = ParamStore()
    init_gate(store, GRAD_CFG, rng, np.float64)
    randomize_params(store, 7)
    xp = rng.normal(size=(GRAD_CFG.g, GRAD_CFG.k, GRAD_CFG.c_p))
    errors["adaptive_saliency"] = check_param_gradients(
        lambda: adaptive_saliency(Tensor(xp), store, GRAD_CFG)[1].mean(), store,
        names=[n for n in store.names() if n.startswith(("gate.ca", "gate.sa"))],
        min_grad=1e-8)

    store = ParamStore()
    init_reconstruction_head(store, GRAD_CFG, rng, np.float64)
    randomize_params(store, 8)
    td = rng.normal(size=(3, GRAD_CFG.d))
    gt = rng.normal(0.0, 0.4, size=(3, GRAD_CFG.k, 3))
    errors["reconstruction_head"] = check_param_gradients(
        lambda: chamfer_l2_t(reconstruction_head(Tensor(td), GRAD_CFG.k, store), gt),
        store)

    cloud = estimate_normals(PointCloud(rng.normal(size=(GRAD_CFG.n, 3))), GRAD_CFG.k_n)
    store = init_pretrain_params(GRAD_CFG, seed=0, dtype=np.float64)
    randomize_params(store, 9)
    errors["pretrain_loss"] = check_param_gradients(
        lambda: pretrain_forward(cloud, GRAD_CFG, store, seed=11).loss,
        store, max_coords=300, rng=10, min_grad=1e-6)

    elapsed = time.perf_counter() - t0
    worst = max(errors, key=errors.get)
    report(4, "gradient suite",
           all(e < 1e-4 for e in errors.values()) and elapsed < 120.0,
           f"worst {worst}: {errors[worst]:.2e} (h=1e-5, float64), {elapsed:.1f}s")


def test_criterion_5_structural_invariants():
    from pcmae.attention import encoder_forward
    from pcmae.geometry import PatchSet
    from pcmae.tokenizer import adaptive_saliency, gate_forward

    rng = np.random.default_rng(11)
    # mask cardinality across the grid
    cardinality_ok = True
    for g in range(4, 257, 12):
        for r in np.arange(0.1, 0.91, 0.1):
            want = int(r * g)
            if want < 1 or g - want < 1:
                continue
            layout = random_mask(g, float(r), seed=g)
            cardinality_ok &= len(layout.masked_indices) == want

    # encoder permutation equivariance
    store = init_pretrain_params(GRAD_CFG, seed=1, dtype=np.float64)
    randomize_params(store, 12)
    tokens = rng.normal(size=(6, GRAD_CFG.d))
    centers = rng.normal(size=(6, 3))
    base = encoder_forward(Tensor(tokens), centers, store, GRAD_CFG).data
    perm_dev = 0.0
    for _ in range(20):
        perm = rng.permutation(6)
        out = encoder_forward(Tensor(tokens[perm]), centers[perm], store, GRAD_CFG).data
        perm_dev = max(perm_dev, float(np.abs(out - base[perm]).max()))

    # per-patch point permutation invariance (exact)
    cloud = estimate_normals(PointCloud(rng.normal(size=(GRAD_CFG.n, 3))), GRAD_CFG.k_n)
    patches = build_patches(cloud, GRAD_CFG.g, GRAD_CFG.k, first_index=0)
    descs = spfh_batch(cloud, patches.center_indices, patches.neighbor_indices)
    tok_base = gate_forward(patches, descs, store, GRAD_CFG).tokens.data
    point_perm_exact = True
    for _ in range(20):
        perm = rng.permutation(GRAD_CFG.k)
        shuffled = PatchSet(patches.center_indices, patches.centers,
                            patches.neighborhoods[:, perm],
                            patches.neighbor_indices[:, perm])
        out = gate_forward(shuffled, descs, store, GRAD_CFG).tokens.data
        point_perm_exact &= np.array_equal(out, tok_base)

    # double-normalized attention rows + saliency gate range
    from pcmae import tensor as T

    m = 7
    x = T.matmul(Tensor(rng.normal(size=(m, GRAD_CFG.d))), store["enc.b00.attn.q.w"])
    q = x.reshape((m, GRAD_CFG.heads, GRAD_CFG.d // GRAD_CFG.heads)).transpose((1, 0, 2))
    raw = T.matmul(q, store["enc.b00.attn.mk"].transpose((0, 2, 1)))
    attn = T.softmax(raw, axis=1)
    attn = (attn / attn.sum(axis=2, keepdims=True)).data
    rows_dev = float(np.abs(attn.sum(axis=2) - 1.0).max())

    weights, _ = adaptive_saliency(Tensor(rng.normal(0, 4, size=(4, 8, GRAD_CFG.c_p))),
                                   store, GRAD_CFG)
    gates_ok = all((arr > 0).all() and (arr < 1).all()
                   for arr in (weights.channel.data, weights.spatial.data))

    ok = (cardinality_ok and perm_dev < 1e-5 and point_perm_exact
          and rows_dev < 1e-6 and gates_ok)
    report(5, "structural invariants", ok,
           f"cardinality ok, encoder perm dev {perm_dev:.1e}, point perm exact, "
           f"attention rows dev {rows_dev:.1e}, gates in (0,1)")


def test_criterion_6_complexity_accounting():
    from pcmae.attention import fit_mac_polynomial, stack_macs

    t0 = time.perf_counter()
    cfg = ModelConfig()
    ms = [16, 32, 64, 128]
    ea = fit_mac_polynomial(ms, [stack_macs("external", m, cfg.encoder_blocks(),
                                            cfg.ea_query_projection) for m in ms])
    sa = fit_mac_polynomial(ms, [stack_macs("self", m, cfg.decoder_blocks())
                                 for m in ms])
    elapsed = time.perf_counter() - t0
    ok = abs(ea[2]) < 1e-9 * abs(ea[1]) and sa[2] > 0 and elapsed < 30.0
    report(6, "attention complexity accounting", ok,
           f"external m^2/m ratio {abs(ea[2]) / abs(ea[1]):.1e}, "
           f"self m^2 coeff {sa[2]:.0f} MACs, {elapsed:.1f}s")


def test_criterion_7_overfit_reconstruction():
    t0 = time.perf_counter()
    items, _ = synth_shapes(["torus"], per_class=1, n_points=TINY.n, seed=3)
    cloud = items[0][0]
    store = init_pretrain_params(TINY, seed=0)
    cfg = TrainConfig(lr_max=1e-3, epochs=300, batch_size=1, seed=0, augment=False)
    state = AdamWState()
    losses = []
    for step in range(300):
        store.zero_grads()
        out = pretrain_forward(cloud, TINY, store, seed=7)
        losses.append(float(out.loss.data))
        out.loss.backward()
        grads = {n: store[n].grad for n in store.trainable_names()
                 if store[n].grad is not None}
        adamw_step(store, grads, state, cosine_lr(step, 300, cfg), cfg)
    elapsed = time.perf_counter() - t0
    report(7, "overfit reconstruction", losses[-1] < 0.01 and elapsed < 300.0,
           f"loss {losses[0]:.4f} -> {losses[-1]:.5f} after 300 steps, {elapsed:.0f}s")


def _store_digest(store, prefixes=("gate.", "enc.", "dec.", "head.")):
    h = hashlib.sha256()
    for name, t in store.items():
        if name.startswith(prefixes):
            h.update(name.encode())
            h.update(t.data.tobytes())
    return h.hexdigest()


def test_criterion_8_ssl_transfer():
    t0 = time.perf_counter()
    classes = ["sphere", "cube", "cylinder", "torus"]
    train_items, _ = synth_shapes(classes, per_class=50, n_points=TINY.n, seed=10)
    test_items, _ = synth_shapes(classes, per_class=20, n_points=TINY.n, seed=11)
    clouds = [c for c, _ in train_items]

    pre_cfg = TrainConfig(lr_max=2e-4, epochs=50, batch_size=32, seed=0, augment=True)
    backbone, curve = pretrain_loop(clouds, pre_cfg, TINY)
    digest_before = _store_digest(backbone)

    protocol = FinetuneProtocol(scope="local", head="linear", num_classes=4)
    ft_cfg = TrainConfig(lr_max=1e-3, epochs=200, batch_size=32, seed=0, augment=False)
    tuned, _ = finetune(backbone, train_items, protocol, ft_cfg, TINY)
    acc = evaluate_classifier(tuned, TINY, protocol, test_items)

    backbone_intact = (_store_digest(backbone) == digest_before
                       and _store_digest(tuned) == digest_before)
    elapsed = time.perf_counter() - t0
    report(8, "desk-scale SSL transfer",
           acc >= 0.90 and backbone_intact and elapsed < 900.0,
           f"pretrain loss {curve[0][1]:.4f} -> {curve[-1][1]:.4f}, linear probe "
           f"test accuracy {acc:.3f} on 80 held-out clouds, backbone bit-identical, "
           f"{elapsed:.0f}s")


def test_criterion_9_determinism_and_persistence(tmp_path):
    items, _ = synth_shapes(["sphere", "cube"], per_class=2, n_points=GRAD_CFG.n, seed=12)
    clouds = [c for c, _ in items]
    cfg = TrainConfig(epochs=3, batch_size=2, seed=21)
    runs = []
    for name in ("a", "b"):
        out = tmp_path / name
        pretrain_loop(clouds, cfg, GRAD_CFG, out_dir=out)
        runs.append(out)
    curves_equal = (runs[0] / "loss_curve.csv").read_bytes() == \
        (runs[1] / "loss_curve.csv").read_bytes()
    ckpt_a = runs[0] / "checkpoint_epoch0003.ckpt"
    ckpt_b = runs[1] / "checkpoint_epoch0003.ckpt"
    ckpts_equal = ckpt_a.read_bytes() == ckpt_b.read_bytes()

    tensors, _ = load_checkpoint(ckpt_a)
    store = init_pretrain_params(GRAD_CFG, seed=0)
    store.load_data(tensors)
    resaved = tmp_path / "resaved.ckpt"
    save_checkpoint(resaved, store, GRAD_CFG, cfg)
    roundtrip_equal = resaved.read_bytes() == ckpt_a.read_bytes()

    from pcmae.dataio import CheckpointError

    blob = bytearray(ckpt_a.read_bytes())
    blob[:4] = b"NOPE"
    bad = tmp_path / "bad_magic.ckpt"
    bad.write_bytes(bytes(blob))
    try:
        load_checkpoint(bad)
        magic_rejected = False
    except CheckpointError as exc:
        magic_rejected = "bad magic" in str(exc)

    blob = bytearray(ckpt_a.read_bytes())
    blob[4:8] = (999).to_bytes(4, "little")
    bad_v = tmp_path / "bad_version.ckpt"
    bad_v.write_bytes(bytes(blob))
    try:
        load_checkpoint(bad_v)
        version_rejected = False
    except CheckpointError as exc:
        version_rejected = "version" in str(exc)

    from pcmae.cli import main

    rc_magic = main(["eval", "--dataset", str(tmp_path), "--checkpoint", str(bad)])

    ok = (curves_equal and ckpts_equal and roundtrip_equal and magic_rejected
          and version_rejected and rc_magic == 2)
    report(9, "determinism & persistence", ok,
           f"seeded reruns byte-identical, roundtrip bit-exact, corruption "
           f"rejected (cli exit {rc_magic})")


def test_criterion_10_few_shot_protocol():
    classes = ["sphere", "cube", "cylinder", "torus", "cone"]
    items, _ = synth_shapes(classes, per_class=30, n_points=GRAD_CFG.n, seed=13)

    sizes_ok, disjoint_ok = True, True
    for seed in range(10):
        episode = few_shot_episode(items, n_way=5, m_shot=10, test_per_class=20,
                                   seed=seed)
        sizes_ok &= len(episode.train) == 50 and len(episode.test) == 100
        train_ids = {id(c) for c, _ in episode.train}
        test_ids = {id(c) for c, _ in episode.test}
        disjoint_ok &= not (train_ids & test_ids)

    backbone = init_pretrain_params(GRAD_CFG, seed=2)
    cfg = TrainConfig(epochs=10, batch_size=25, seed=0, augment=False)
    accs, mean, std = run_few_shot(backbone, items, n_way=5, m_shot=10,
                                   train_cfg=cfg, model_cfg=GRAD_CFG, episodes=10)
    shape_ok = len(accs) == 10 and 0.0 <= mean <= 1.0 and std >= 0.0
    report(10, "few-shot protocol shape", sizes_ok and disjoint_ok and shape_ok,
           f"10 episodes of 50 train / 100 test, disjoint; accuracy "
           f"{100 * mean:.1f} +- {100 * std:.1f} %")
