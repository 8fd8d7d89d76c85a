"""Command-line surface: artifacts, determinism, and exit codes."""
import json
import struct
import subprocess
import sys

import numpy as np
import pytest

from pcmae import tensor as T
from pcmae import training
from pcmae.cli import EXIT_DATA, EXIT_NUMERIC, main
from pcmae.config import FinetuneProtocol, ModelConfig, TrainConfig
from pcmae.dataio import (load_checkpoint, load_dataset, load_model_checkpoint, load_xyz,
                          save_checkpoint, save_dataset, save_xyz, synth_shapes)
from pcmae.geometry import (PointCloud, build_patches, estimate_normals, normalize_cloud,
                            spfh_batch)
from pcmae.pipeline import extract_global_feature, init_pretrain_params

from test_dataio import set_length, with_config_block
from test_training import poison, poisoned_forward

TINY_KEYS = dict(n=64, g=4, k=8, r=0.6, k_n=8, d=24, heads=2, mlp_ratio=2,
                 enc_depth=2, dec_depth=1, s_mem=8, c_p=16, c_d=16, embed_hidden=8)
TINY = ModelConfig(**TINY_KEYS)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    items, names = synth_shapes(["sphere", "cube"], per_class=3, n_points=64, seed=0)
    save_dataset(root, "train", items, names)
    test_items, _ = synth_shapes(["sphere", "cube"], per_class=2, n_points=64, seed=1)
    save_dataset(root, "test", test_items, names)
    return root


@pytest.fixture(scope="module")
def config_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "tiny.json"
    path.write_text(json.dumps(TINY_KEYS))
    return path


@pytest.fixture(scope="module")
def pretrain_ckpt(tmp_path_factory):
    root = tmp_path_factory.mktemp("ckpt")
    store = init_pretrain_params(TINY, seed=0)
    path = root / "backbone.ckpt"
    save_checkpoint(path, store, TINY, TrainConfig())
    return path


class TestPretrainCommand:
    def test_one_epoch_one_checkpoint(self, dataset, config_file, tmp_path):
        out = tmp_path / "run"
        rc = main(["pretrain", "--dataset", str(dataset), "--config", str(config_file),
                   "--epochs", "1", "--batch-size", "4", "--out", str(out)])
        assert rc == 0
        ckpts = list(out.glob("checkpoint_*.ckpt"))
        assert len(ckpts) == 1
        curve = (out / "loss_curve.csv").read_text().strip().splitlines()
        assert curve[0] == "epoch,loss"
        assert len(curve) == 2

    def test_reruns_byte_identical(self, dataset, config_file, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            rc = main(["pretrain", "--dataset", str(dataset), "--config", str(config_file),
                       "--epochs", "2", "--batch-size", "4", "--seed", "5",
                       "--out", str(out)])
            assert rc == 0
            outs.append(out)
        a, b = outs
        assert (a / "loss_curve.csv").read_bytes() == (b / "loss_curve.csv").read_bytes()
        assert (a / "checkpoint_epoch0002.ckpt").read_bytes() == \
            (b / "checkpoint_epoch0002.ckpt").read_bytes()

    def test_does_not_mutate_dataset(self, dataset, config_file, tmp_path):
        before = sorted((p.name, p.stat().st_size) for p in dataset.rglob("*") if p.is_file())
        main(["pretrain", "--dataset", str(dataset), "--config", str(config_file),
              "--epochs", "1", "--batch-size", "4", "--out", str(tmp_path / "x")])
        after = sorted((p.name, p.stat().st_size) for p in dataset.rglob("*") if p.is_file())
        assert before == after


class TestFinetuneEvalCommands:
    def test_finetune_then_eval(self, dataset, pretrain_ckpt, tmp_path):
        out = tmp_path / "ft"
        rc = main(["finetune", "--dataset", str(dataset), "--checkpoint", str(pretrain_ckpt),
                   "--scope", "local", "--head", "linear", "--epochs", "5",
                   "--batch-size", "4", "--eval-split", "test", "--out", str(out)])
        assert rc == 0
        assert (out / "classifier.ckpt").exists()
        report = (out / "accuracy.csv").read_text().strip().splitlines()
        assert report[0] == "split,accuracy"
        assert len(report) == 3

        rc = main(["eval", "--dataset", str(dataset), "--checkpoint",
                   str(out / "classifier.ckpt"), "--split", "test",
                   "--out", str(tmp_path / "eval.csv")])
        assert rc == 0
        lines = (tmp_path / "eval.csv").read_text().strip().splitlines()
        assert lines[0] == "split,accuracy"
        acc = float(lines[1].split(",")[1])
        assert 0.0 <= acc <= 1.0

    def test_local_finetune_preserves_backbone(self, dataset, pretrain_ckpt, tmp_path):
        out = tmp_path / "ft2"
        main(["finetune", "--dataset", str(dataset), "--checkpoint", str(pretrain_ckpt),
              "--scope", "local", "--head", "linear", "--epochs", "2",
              "--batch-size", "4", "--out", str(out)])
        base, _ = load_checkpoint(pretrain_ckpt)
        tuned, _ = load_checkpoint(out / "classifier.ckpt")
        for name, arr in base.items():
            assert np.array_equal(tuned[name], arr), name


@pytest.fixture(scope="module")
def few_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("fewdata")
    items, names = synth_shapes(["sphere", "cube", "cylinder"],
                                per_class=25, n_points=64, seed=3)
    save_dataset(root, "train", items, names)
    return root


def run_fewshot(dataset, checkpoint, out, *extra):
    return main(["fewshot", "--dataset", str(dataset), "--checkpoint", str(checkpoint),
                 "--n", "2", "--m", "3", "--episodes", "3", "--epochs", "2",
                 "--batch-size", "6", "--out", str(out), *extra])


class TestFewshotCommand:
    # fewshot.csv of the pinned run, per scope
    REPORTS = {
        "local": "episode,accuracy\n0,0.425000\n1,0.500000\n2,0.475000\n"
                 "mean,0.466667\nstd,0.031180\n",
        "global": "episode,accuracy\n0,0.850000\n1,0.500000\n2,0.500000\n"
                  "mean,0.616667\nstd,0.164992\n",
    }

    def test_report_shape(self, tmp_path, few_dataset, pretrain_ckpt):
        out = tmp_path / "few"
        assert run_fewshot(few_dataset, pretrain_ckpt, out) == 0
        lines = (out / "fewshot.csv").read_text().strip().splitlines()
        assert lines[0] == "episode,accuracy"
        assert len(lines) == 1 + 3 + 2
        assert lines[-2].startswith("mean,")
        assert lines[-1].startswith("std,")

    @pytest.mark.parametrize("scope", ["local", "global"])
    def test_report_bytes(self, scope, tmp_path, few_dataset, pretrain_ckpt):
        out = tmp_path / "few"
        assert run_fewshot(few_dataset, pretrain_ckpt, out, "--scope", scope) == 0
        assert (out / "fewshot.csv").read_bytes() == self.REPORTS[scope].encode()


class TestPointwiseCommands:
    def test_extract_feature_width(self, dataset, pretrain_ckpt, tmp_path):
        out = tmp_path / "features.csv"
        cloud_file = next((dataset / "train").rglob("*.xyz"))
        rc = main(["extract", "--checkpoint", str(pretrain_ckpt),
                   "--input", str(cloud_file), "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 2
        assert len(lines[1].split(",")) == 1 + 2 * TINY.d

    def test_extract_csv_equals_per_cloud_features(self, dataset, pretrain_ckpt, tmp_path,
                                                   monkeypatch):
        # chunks of 4 split the 6 training clouds and the 2 input files 4 + 4
        monkeypatch.setattr(training, "FEATURE_CHUNK", 4)
        out = tmp_path / "features.csv"
        inputs = sorted((dataset / "test").rglob("*.xyz"))[:2]
        rc = main(["extract", "--checkpoint", str(pretrain_ckpt), "--dataset", str(dataset),
                   "--split", "train", "--out", str(out)]
                  + [arg for path in inputs for arg in ("--input", str(path))])
        assert rc == 0
        store, cfg, _ = load_model_checkpoint(pretrain_ckpt)
        items, _ = load_dataset(dataset, "train", n=cfg.n, seed=0)
        named = [(f"train[{i}]", c) for i, (c, _) in enumerate(items)]
        named += [(str(p), normalize_cloud(load_xyz(p, n=cfg.n, seed=0))) for p in inputs]
        want = ["cloud," + ",".join(f"f{i:03d}" for i in range(cfg.feature_dim))]
        for name, cloud in named:
            feat = extract_global_feature(cloud, cfg, store)
            want.append(name + "," + ",".join(f"{v:.9g}" for v in feat))
        assert out.read_text() == "\n".join(want) + "\n"

    def test_describe_rows(self, dataset, config_file, tmp_path, capsys):
        cloud_file = next((dataset / "train").rglob("*.xyz"))
        out = tmp_path / "desc.csv"
        rc = main(["describe", "--input", str(cloud_file), "--config", str(config_file),
                   "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + TINY.g
        assert len(lines[1].split(",")) == 1 + 33

    def test_describe_uses_carried_normals(self, config_file, tmp_path, capsys):
        # a 6-column file's normals are the ones the model tokenizes with;
        # random unit normals give other descriptors than the PCA estimate
        points = synth_shapes(["torus"], per_class=1, n_points=TINY.n, seed=2)[0][0][0].points
        normals = np.random.default_rng(4).normal(size=points.shape)
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        path = tmp_path / "cloud.xyz"
        save_xyz(path, PointCloud(points, normals))
        assert main(["describe", "--config", str(config_file), "--input", str(path),
                     "--seed", "3"]) == 0
        cloud = normalize_cloud(load_xyz(path, n=TINY.n, seed=3))
        patches = build_patches(cloud, TINY.g, TINY.k, seed=3)
        carried = spfh_batch(cloud, patches.center_indices, patches.neighbor_indices, TINY.bins)
        assert capsys.readouterr().out.splitlines()[1:] == [
            f"{c}," + ",".join(f"{v:.9g}" for v in row)
            for c, row in zip(patches.center_indices, carried)]
        estimated = spfh_batch(estimate_normals(cloud, TINY.k_n), patches.center_indices,
                               patches.neighbor_indices, TINY.bins)
        assert not np.array_equal(estimated, carried)

    def test_reconstruct_writes_three_files(self, dataset, pretrain_ckpt, tmp_path):
        cloud_file = next((dataset / "train").rglob("*.xyz"))
        out = tmp_path / "recon"
        rc = main(["reconstruct", "--input", str(cloud_file),
                   "--checkpoint", str(pretrain_ckpt), "--out", str(out)])
        assert rc == 0
        stem = cloud_file.stem
        for tag in ("input", "visible", "predicted"):
            assert (out / f"{stem}_{tag}.xyz").exists()


@pytest.fixture(scope="module")
def classifier_ckpt(tmp_path_factory, dataset, pretrain_ckpt):
    out = tmp_path_factory.mktemp("clf")
    assert main(["finetune", "--dataset", str(dataset), "--checkpoint", str(pretrain_ckpt),
                 "--epochs", "1", "--batch-size", "4", "--out", str(out)]) == 0
    return out / "classifier.ckpt"


def checkpoint_command(command, dataset, pretrain_ckpt, classifier_ckpt, out):
    """A short, successful run of one of the five commands that read a
    checkpoint."""
    cloud = str(next((dataset / "train").rglob("*.xyz")))
    return {
        "finetune": ["finetune", "--dataset", str(dataset), "--checkpoint", str(pretrain_ckpt),
                     "--epochs", "1", "--batch-size", "4", "--out", str(out)],
        "eval": ["eval", "--dataset", str(dataset), "--checkpoint", str(classifier_ckpt)],
        "fewshot": ["fewshot", "--dataset", str(dataset), "--checkpoint", str(pretrain_ckpt),
                    "--n", "2", "--m", "1", "--test-per-class", "1", "--episodes", "1",
                    "--epochs", "1", "--out", str(out)],
        "extract": ["extract", "--checkpoint", str(pretrain_ckpt), "--input", cloud,
                    "--out", str(out / "features.csv")],
        "reconstruct": ["reconstruct", "--checkpoint", str(pretrain_ckpt), "--input", cloud,
                        "--out", str(out)],
    }[command]


class TestCheckpointCommands:
    """One config rule for the commands that read a checkpoint: its model
    config, then --config and --set on top; a model key that then differs
    from the checkpoint is a data error, training keys apply."""

    @pytest.mark.parametrize("command", ["finetune", "eval", "fewshot", "extract",
                                         "reconstruct"])
    def test_config_rule(self, command, dataset, pretrain_ckpt, classifier_ckpt, tmp_path,
                         capsys):
        args = checkpoint_command(command, dataset, pretrain_ckpt, classifier_ckpt, tmp_path)
        assert main(args + ["--set", "d=48"]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "config mismatch" in err and "Traceback" not in err
        # a model key equal to the checkpoint's and a training-only key
        assert main(args + ["--set", f"d={TINY.d}", "--set", "lr_max=0.002"]) == 0

    def test_finetune_applies_training_keys(self, dataset, pretrain_ckpt, tmp_path):
        out = tmp_path / "ft"
        assert main(["finetune", "--dataset", str(dataset), "--checkpoint", str(pretrain_ckpt),
                     "--set", "lr_max=0.002", "--epochs", "1", "--out", str(out)]) == 0
        train = load_checkpoint(out / "classifier.ckpt")[1]["train"]
        assert (train["lr_max"], train["epochs"]) == (0.002, 1)

    @pytest.mark.parametrize("command", ["extract", "reconstruct"])
    @pytest.mark.parametrize("name, shape", [("enc.ln.g", None), ("head.w", (TINY.d, 5))],
                             ids=["missing", "misshapen"])
    def test_backbone_layout_is_data_error(self, command, name, shape, dataset, tmp_path,
                                           capsys):
        store = init_pretrain_params(TINY, seed=0)
        bad = T.ParamStore()
        for key, t in store.items():
            if key != name:
                bad.add(key, t.data)
            elif shape is not None:
                bad.add(key, np.zeros(shape, dtype=np.float32))
        path = tmp_path / "bad.ckpt"
        save_checkpoint(path, bad, TINY, TrainConfig())
        args = checkpoint_command(command, dataset, path, None, tmp_path)
        assert main(args) == EXIT_DATA
        err = capsys.readouterr().err
        assert f"data error: {path}: " in err and repr(name) in err


class TestSelfcheckCommand:
    def test_all_checks_pass(self, capsys):
        assert main(["selfcheck"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()
        assert rows[0] == "check,status,detail"
        assert len(rows) > 1 and all(",PASS," in row for row in rows[1:])


class TestExitCodes:
    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_selfcheck_takes_no_config_options(self, capsys):
        assert main(["selfcheck", "--set", "d=48"]) == 1
        assert "unrecognized arguments: --set d=48" in capsys.readouterr().err

    def test_unknown_config_key_is_usage_error(self, dataset, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"not_a_key": 1}))
        rc = main(["pretrain", "--dataset", str(dataset), "--config", str(cfg),
                   "--epochs", "1", "--out", str(tmp_path / "o")])
        assert rc == 1

    def test_mistyped_config_list_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({**TINY_KEYS, "checkpoint_epochs": ["x"]}))
        xyz = tmp_path / "cloud.xyz"
        xyz.write_text("0 0 0\n")
        rc = main(["describe", "--config", str(cfg), "--input", str(xyz)])
        assert rc == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [
        *((key, value) for key, default in TINY_KEYS.items() if type(default) is int
          for value in (0, -1)),
        ("k_n", 2), ("g", 65), ("k", 65), ("g", 1)])
    def test_out_of_range_model_key_is_config_error(self, key, value, dataset, config_file,
                                                    tmp_path, capsys):
        # these once raised tracebacks, exited 2 as data errors, or trained
        rc = main(["pretrain", "--dataset", str(dataset), "--config", str(config_file),
                   "--set", f"{key}={value}", "--epochs", "1", "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("config error: ") and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key,value", [
        ("lr_max", "nan"), ("lr_max", "inf"), ("lr_min", "-1e-6"), ("weight_decay", "-5"),
        ("beta1", "-0.1"), ("beta1", "1"), ("beta2", "1"), ("eps", "0"), ("eps", "-1e-8"),
        ("label_smoothing", "-0.1"), ("label_smoothing", "1"), ("label_smoothing", "3")])
    def test_out_of_range_training_key_is_config_error(self, key, value, dataset, config_file,
                                                       tmp_path, capsys):
        # these once trained and then exited 3 on a non-finite loss, or exited 0
        rc = main(["pretrain", "--dataset", str(dataset), "--config", str(config_file),
                   "--set", f"{key}={value}", "--epochs", "1", "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"config error: {key} must ") and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flag", ["--n", "--m", "--episodes", "--test-per-class"])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_fewshot_count_below_one_is_usage_error(self, flag, value, few_dataset,
                                                    pretrain_ckpt, tmp_path, capsys):
        # these once exited 2, or wrote nan accuracies and exited 0
        out = tmp_path / "few"
        assert run_fewshot(few_dataset, pretrain_ckpt, out, flag, value) == 1
        assert f"usage error: argument {flag}: must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_length_normal_is_data_error(self, config_file, tmp_path):
        # a 6-column row whose normal is (0, 0, 0) once trained and exited 0
        items, names = synth_shapes(["sphere", "cube"], per_class=2, n_points=64, seed=3)
        cloud, label = items[1]
        normals = estimate_normals(cloud, TINY.k_n).normals.copy()
        normals[5] = 0.0
        items[1] = (PointCloud(cloud.points, normals), label)
        root = tmp_path / "data"
        save_dataset(root, "train", items, names)
        out = subprocess.run([sys.executable, "-m", "pcmae.cli", "pretrain",
                              "--dataset", str(root), "--config", str(config_file),
                              "--epochs", "1", "--out", str(tmp_path / "o")],
                             capture_output=True, text=True)
        assert out.returncode == EXIT_DATA, out.stderr
        lines = out.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("data error: ")
        assert lines[0].endswith(": line 6: zero-length normal")
        assert not (tmp_path / "o").exists()

    def test_missing_dataset_is_data_error(self, tmp_path, config_file):
        rc = main(["pretrain", "--dataset", str(tmp_path / "ghost"),
                   "--config", str(config_file), "--epochs", "1",
                   "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_corrupt_checkpoint_is_data_error(self, dataset, tmp_path):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"XXXX" + b"\x00" * 64)
        rc = main(["eval", "--dataset", str(dataset), "--checkpoint", str(bad)])
        assert rc == 2

    @pytest.mark.parametrize("edit, message", [
        ({"head": "nonlinear"}, "tensor 'cls.l0.w' has shape (48, 2), expected (48, 256)"),
        ({"scope": None}, "protocol key 'scope' is missing"),
        ({"num_classes": 7}, "tensor 'cls.l0.w' has shape (48, 2), expected (48, 7)"),
    ], ids=["nonlinear_over_linear_head", "no_scope", "seven_classes_over_two"])
    def test_mismatched_classifier_checkpoint_is_data_error(self, dataset, tmp_path, capsys,
                                                            edit, message):
        # the first two once ended in KeyError tracebacks and exit 1; the
        # third evaluated a 2-class head as a 7-class one and exited 0
        store = init_pretrain_params(TINY, seed=0)
        store.draw(training.classifier_layout(TINY, FinetuneProtocol(num_classes=2)),
                   np.random.default_rng(1))
        protocol = {key: value for key, value in {"scope": "local", "head": "linear",
                                                  "num_classes": 2, **edit}.items()
                    if value is not None}
        path = tmp_path / "classifier.ckpt"
        save_checkpoint(path, store, TINY, TrainConfig(),
                        extra={"protocol": protocol, "classes": ["cube", "sphere"]})
        rc = main(["eval", "--dataset", str(dataset), "--checkpoint", str(path)])
        assert rc == EXIT_DATA
        assert capsys.readouterr().err == f"data error: {path}: {message}\n"

    def test_config_mismatch_is_data_error(self, dataset, pretrain_ckpt, tmp_path):
        # defaults (d=384) disagree with the tiny checkpoint
        cfg = tmp_path / "default.json"
        cfg.write_text(json.dumps({"d": 384}))
        rc = main(["finetune", "--dataset", str(dataset),
                   "--checkpoint", str(pretrain_ckpt), "--config", str(cfg),
                   "--epochs", "1", "--out", str(tmp_path / "o")])
        assert rc == 2

    @pytest.mark.parametrize("change", [{"not_a_key": 1}, {"d": "wide"}],
                             ids=["unknown_key", "mistyped_value"])
    def test_bad_checkpoint_model_block_is_data_error(self, dataset, pretrain_ckpt,
                                                      tmp_path, change):
        raw = pretrain_ckpt.read_bytes()
        (blob_len,) = struct.unpack("<I", raw[8:12])
        block = json.loads(raw[12:12 + blob_len])
        block["model"].update(change)
        blob = json.dumps(block, sort_keys=True, separators=(",", ":")).encode()
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(raw[:8] + struct.pack("<I", len(blob)) + blob + raw[12 + blob_len:])
        out = subprocess.run([sys.executable, "-m", "pcmae.cli", "extract",
                              "--dataset", str(dataset), "--checkpoint", str(bad),
                              "--out", str(tmp_path / "f.csv")],
                             capture_output=True, text=True)
        assert out.returncode == 2, out.stderr
        assert "data error" in out.stderr
        assert "Traceback" not in out.stderr

    def test_nan_in_checkpoint_is_data_error(self, dataset, pretrain_ckpt, tmp_path):
        # tensors are written name-sorted, so the file ends in the last
        # name's last float32
        last = sorted(load_checkpoint(pretrain_ckpt)[0])[-1]
        bad = tmp_path / "nan.ckpt"
        bad.write_bytes(pretrain_ckpt.read_bytes()[:-4] + struct.pack("<f", float("nan")))
        out = subprocess.run([sys.executable, "-m", "pcmae.cli", "extract",
                              "--dataset", str(dataset), "--checkpoint", str(bad),
                              "--out", str(tmp_path / "f.csv")],
                             capture_output=True, text=True)
        assert out.returncode == EXIT_DATA, out.stderr
        assert f"data error: {bad}: non-finite values in tensor {last!r}" in out.stderr
        assert "Traceback" not in out.stderr

    @pytest.mark.parametrize("field", ["config_blob", "name", "ndim", "payload"])
    def test_oversized_checkpoint_length_is_data_error(self, dataset, pretrain_ckpt,
                                                       tmp_path, field):
        # the first tensor's first dimension at 0x7fffffff once ended in a
        # MemoryError traceback and exit 1
        bad = tmp_path / "long.ckpt"
        bad.write_bytes(bytes(set_length(bytearray(pretrain_ckpt.read_bytes()), field,
                                         0x7FFFFFFF)))
        out = subprocess.run([sys.executable, "-m", "pcmae.cli", "extract",
                              "--dataset", str(dataset), "--checkpoint", str(bad),
                              "--out", str(tmp_path / "f.csv")],
                             capture_output=True, text=True)
        assert out.returncode == EXIT_DATA, out.stderr
        assert f"data error: {bad}: truncated checkpoint" in out.stderr
        assert "Traceback" not in out.stderr

    def test_deeply_nested_config_block_is_data_error(self, dataset, pretrain_ckpt,
                                                      tmp_path):
        # json.loads raises RecursionError here, which once escaped as exit 1
        bad = tmp_path / "deep.ckpt"
        bad.write_bytes(with_config_block(pretrain_ckpt.read_bytes(),
                                          b"[" * 100000 + b"]" * 100000))
        out = subprocess.run([sys.executable, "-m", "pcmae.cli", "extract",
                              "--dataset", str(dataset), "--checkpoint", str(bad),
                              "--out", str(tmp_path / "f.csv")],
                             capture_output=True, text=True)
        assert out.returncode == EXIT_DATA, out.stderr
        assert f"data error: {bad}: corrupt config block" in out.stderr
        assert "Traceback" not in out.stderr

    def test_divergence_is_numeric_error(self, dataset, config_file, tmp_path,
                                         monkeypatch, capsys):
        # six clouds, batch 3: the seventh cloud is in epoch 2's first step,
        # the run's third
        monkeypatch.setattr(training, "pretrain_forward",
                            poisoned_forward(7, lambda loss, nan, store: loss * nan))
        rc = main(["pretrain", "--dataset", str(dataset), "--config", str(config_file),
                   "--epochs", "2", "--batch-size", "3", "--out", str(tmp_path / "o")])
        assert rc == EXIT_NUMERIC
        assert ("numerical failure: divergence: non-finite loss at epoch 2, step 3"
                in capsys.readouterr().err)

    def test_gradient_divergence_is_numeric_error(self, dataset, config_file, tmp_path,
                                                  monkeypatch, capsys):
        # six clouds, batch 3: in the chunk of the seventh cloud (epoch 2,
        # step 3) the losses stay finite and the first parameter's gradient
        # turns NaN
        monkeypatch.setattr(training, "pretrain_forward", poisoned_forward(
            7, lambda loss, nan, store: loss + poison(store[store.trainable_names()[0]])))
        with pytest.warns(RuntimeWarning):
            rc = main(["pretrain", "--dataset", str(dataset), "--config", str(config_file),
                       "--epochs", "2", "--batch-size", "3", "--out", str(tmp_path / "o")])
        first = init_pretrain_params(TINY, seed=0).trainable_names()[0]
        assert rc == EXIT_NUMERIC
        assert (f"numerical failure: divergence: non-finite gradient in {first} "
                "at epoch 2, step 3" in capsys.readouterr().err)

    def test_no_scipy_module_is_loaded(self):
        out = subprocess.run([sys.executable, "-c",
                              "import sys, pcmae.cli; "
                              "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
                             capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "[]"

    def test_console_entry_point(self):
        out = subprocess.run([sys.executable, "-m", "pcmae.cli", "--help"],
                             capture_output=True, text=True)
        assert out.returncode == 0
        assert "pretrain" in out.stdout
