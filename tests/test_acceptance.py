"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines
as they complete. Criteria 1-6 run `pcmae.selfcheck` checks by name: the
oracle, gradient and invariant tolerances are pinned there, and their time
bounds here. Criteria 7-10 are pinned here in full.
"""
import hashlib
import time

from pcmae.config import FinetuneProtocol, ModelConfig, TrainConfig
from pcmae.dataio import load_checkpoint, save_checkpoint, synth_shapes
from pcmae.optim import AdamWState, adamw_step, cosine_lr
from pcmae.pipeline import init_pretrain_params, pretrain_forward
from pcmae.selfcheck import ALL_CHECKS
from pcmae.selfcheck import TINY as GRAD_CFG
from pcmae.training import (evaluate_classifier, few_shot_episode, finetune,
                            pretrain_loop, run_few_shot)

# the tiny configuration used by the training-scale criteria
TINY = ModelConfig(n=256, g=16, k=16, r=0.6, k_n=16, d=96, heads=6, mlp_ratio=4,
                   enc_depth=4, dec_depth=2, s_mem=16, c_p=96, c_d=96, embed_hidden=96)
CHECKS = dict(ALL_CHECKS)


def report(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\n[{status}] criterion {number}: {name} -- {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def run_checks(number: int, name: str, checks: list[str], bound: float | None) -> None:
    """Criterion ``number`` holds when every named selfcheck check passes,
    within ``bound`` seconds of wall clock when one is given."""
    t0 = time.perf_counter()
    results = [(check, *CHECKS[check]()) for check in checks]
    elapsed = time.perf_counter() - t0
    ok = all(passed for _, passed, _ in results) and (bound is None or elapsed < bound)
    detail = "; ".join(f"{check}{'' if passed else ' FAILED'}: {text}"
                       for check, passed, text in results)
    report(number, name, ok, f"{detail}; {elapsed:.1f}s")


def test_criterion_1_geometry_oracles():
    run_checks(1, "geometry oracles",
               ["fps_exhaustive_greedy", "knn_full_sort", "chamfer_double_loop"], 10.0)


def test_criterion_2_spfh_correctness():
    run_checks(2, "SPFH correctness",
               ["pair_feature_hand_cases", "pair_feature_rotation_invariance",
                "descriptor_rotation_invariance", "descriptor_histograms"], 10.0)


def test_criterion_3_degeneracy_audit():
    run_checks(3, "pair-feature variant audit", ["literal_alpha_degeneracy"], 5.0)


def test_criterion_4_gradient_suite():
    run_checks(4, "gradient suite", ["gradient_primitives", "gradient_pretrain_loss"], 120.0)


def test_criterion_5_structural_invariants():
    run_checks(5, "structural invariants",
               ["mask_cardinality", "encoder_permutation_equivariance",
                "gate_point_permutation_invariance", "external_attention_row_sums",
                "saliency_gate_range"], None)


def test_criterion_6_complexity_accounting():
    run_checks(6, "attention complexity accounting", ["attention_mac_scaling"], 30.0)


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
