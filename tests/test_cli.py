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
from pcmae.config import ModelConfig, TrainConfig
from pcmae.dataio import load_checkpoint, save_checkpoint, save_dataset, synth_shapes
from pcmae.pipeline import init_pretrain_params

from test_dataio import set_length, with_config_block

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


class TestFewshotCommand:
    def test_report_shape(self, tmp_path, pretrain_ckpt):
        root = tmp_path / "fewdata"
        items, names = synth_shapes(["sphere", "cube", "cylinder"],
                                    per_class=25, n_points=64, seed=3)
        save_dataset(root, "train", items, names)
        out = tmp_path / "few"
        rc = main(["fewshot", "--dataset", str(root), "--checkpoint", str(pretrain_ckpt),
                   "--n", "2", "--m", "3", "--episodes", "3", "--epochs", "2",
                   "--batch-size", "6", "--out", str(out)])
        assert rc == 0
        lines = (out / "fewshot.csv").read_text().strip().splitlines()
        assert lines[0] == "episode,accuracy"
        assert len(lines) == 1 + 3 + 2
        assert lines[-2].startswith("mean,")
        assert lines[-1].startswith("std,")


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

    def test_describe_rows(self, dataset, config_file, tmp_path, capsys):
        cloud_file = next((dataset / "train").rglob("*.xyz"))
        out = tmp_path / "desc.csv"
        rc = main(["describe", "--input", str(cloud_file), "--config", str(config_file),
                   "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + TINY.g
        assert len(lines[1].split(",")) == 1 + 33

    def test_reconstruct_writes_three_files(self, dataset, pretrain_ckpt, tmp_path):
        cloud_file = next((dataset / "train").rglob("*.xyz"))
        out = tmp_path / "recon"
        rc = main(["reconstruct", "--input", str(cloud_file),
                   "--checkpoint", str(pretrain_ckpt), "--out", str(out)])
        assert rc == 0
        stem = cloud_file.stem
        for tag in ("input", "visible", "predicted"):
            assert (out / f"{stem}_{tag}.xyz").exists()


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
        # six clouds, batch 3: the seventh forward is epoch 2's first step,
        # the run's third
        real, calls = training.pretrain_forward, []

        def forward(*args):
            out = real(*args)
            calls.append(1)
            if len(calls) == 7:
                out.loss = out.loss * float("nan")
            return out

        monkeypatch.setattr(training, "pretrain_forward", forward)
        rc = main(["pretrain", "--dataset", str(dataset), "--config", str(config_file),
                   "--epochs", "2", "--batch-size", "3", "--out", str(tmp_path / "o")])
        assert rc == EXIT_NUMERIC
        assert ("numerical failure: divergence: non-finite loss at epoch 2, step 3"
                in capsys.readouterr().err)

    def test_gradient_divergence_is_numeric_error(self, dataset, config_file, tmp_path,
                                                  monkeypatch, capsys):
        # six clouds, batch 3: at the seventh forward (epoch 2, step 3) the
        # loss stays finite and the first parameter's gradient turns NaN
        real, calls = training.pretrain_forward, []

        def forward(cloud, cfg, store, seed):
            out = real(cloud, cfg, store, seed)
            calls.append(1)
            if len(calls) == 7:
                first = store[store.trainable_names()[0]]
                out.loss = out.loss + T.sqrt(first * 0.0).sum()
            return out

        monkeypatch.setattr(training, "pretrain_forward", forward)
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
