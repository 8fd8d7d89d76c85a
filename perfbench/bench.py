"""Workloads, timed operations, correctness gates and metrics.

Every run is one closed-loop training process. It synthesizes its clouds from
the seed, repeats the workload's main operation back to back until the time
budget is spent (at least twice), then runs the other operation three times.
The two operations are the paper's SSL pipeline:

- pretrain: one ``training.pretrain_loop`` call (1 epoch, augmentation on)
  that writes its checkpoint and loss curve to a temporary ``out_dir``;
- probe: a local-scope linear probe, ``training.finetune`` then
  ``training.evaluate_classifier`` on held-out clouds.

``pretrain-*`` workloads repeat pretraining and probe the trained backbone;
``probe-tiny`` repeats the probe on the untrained backbone and then
pretrains, so every metric exists on every workload. All runs start from
seed-0 weights; the seed varies the clouds, augmentations, masks and shuffles.

End-to-end metrics (untraced run; medians over the operations of a kind):

- ``train_clouds_per_s``: clouds through one pretrain call per second of it,
  checkpoint and CSV writes included;
- ``step_ms.p50`` and ``step_ms.tail``: time between the ends of consecutive
  ``adamw_step`` calls of a pretrain call, the first measured from the
  call's start. The tail is the highest order statistic with ten samples above it,
  and the median when there are 20 or fewer samples;
- ``extract_clouds_per_s``: probe clouds over the probe's featurization time,
  i.e. the finetune call up to its first head step plus the evaluation call;
- ``probe_s``: finetune plus evaluation;
- ``setup_s``: median of three rounds of data synthesis plus parameter init;
- ``peak_rss_mb``, ``loss_final`` (mean loss of the pretrain call's last
  epoch) and ``probe_accuracy``.

Per-layer metrics (traced run): the session runs untraced, then again with
every layer in ``LAYERS`` wrapped by ``tracer.Tracer``. ``<layer>.ms`` is the
per-call median duration (for ``geometry.*`` the self time, without the
kernels they call) over the calls the main operation makes, or the other
operation for layers the main one never calls. ``<layer>.share`` is the
layer's self time over the traced session's time. Counts use the same calls.

Correctness gates, each failing the operation it checks: final parameters
byte-identical across repeats with one seed, the checkpoint loads back to the
same bytes, the probe leaves the backbone bit-identical and reaches the
acceptance suite's 0.90 accuracy bar, and the traced run reproduces the untraced digests.
A divergence fails its operation too.
"""
from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from pcmae import attention, dataio, kernels, pipeline, training
from pcmae import tensor as T
from pcmae.config import FinetuneProtocol, ModelConfig, TrainConfig
from pcmae.optim import DivergenceError
from pcmae.pipeline import BACKBONE_PREFIXES, init_pretrain_params

from tracer import Tracer

# the acceptance suite's configuration (n=256, g=16, k=16, d=96, 4+2 blocks)
TINY = ModelConfig(n=256, g=16, k=16, r=0.6, k_n=16, d=96, heads=6, mlp_ratio=4,
                   enc_depth=4, dec_depth=2, s_mem=16, c_p=96, c_d=96, embed_hidden=96)
CLASSES = ("cube", "cylinder", "sphere", "torus")
SETUP_ROUNDS = 3
OTHER_REPEATS = 3               # runs of the non-main operation per session
PROBE_EPOCHS = 200
MIN_ACCURACY = 0.9              # the acceptance suite's linear-probe bar
# Timings are CPU time of this process, with BLAS on one thread (see run.py).
# On an idle machine that equals wall time; on a shared one it leaves out the
# time the process waited for a CPU, which swung wall times 10-20% between
# runs on a shared 2-vCPU VM.
clock = time.process_time


@dataclass(frozen=True)
class Workload:
    cfg: ModelConfig
    main: str                   # operation repeated for the run: "pretrain" or "probe"
    batch: int                  # pretraining minibatch
    pretrain_per_class: int
    probe_train_per_class: int
    probe_test_per_class: int


WORKLOADS = {
    "pretrain-tiny": Workload(TINY, "pretrain", 32, 32, 16, 16),
    "pretrain-paper": Workload(ModelConfig(), "pretrain", 4, 2, 2, 2),
    "probe-tiny": Workload(TINY, "probe", 32, 32, 50, 20),
}

END_TO_END = {
    "train_clouds_per_s": "1/s", "step_ms.p50": "ms", "step_ms.tail": "ms",
    "extract_clouds_per_s": "1/s", "probe_s": "s", "setup_s": "s",
    "peak_rss_mb": "MB", "loss_final": "loss", "probe_accuracy": "ratio",
}


@dataclass
class Inputs:
    clouds: list                # unlabeled pretraining clouds
    probe_train: list           # (cloud, label) pairs
    probe_test: list
    init: T.ParamStore          # start of every pretrain call; probe-tiny's backbone


def make_inputs(w: Workload, seed: int) -> Inputs:
    pre, _ = dataio.synth_shapes(CLASSES, w.pretrain_per_class, w.cfg.n, seed=[seed, 0])
    train, _ = dataio.synth_shapes(CLASSES, w.probe_train_per_class, w.cfg.n, seed=[seed, 1])
    test, _ = dataio.synth_shapes(CLASSES, w.probe_test_per_class, w.cfg.n, seed=[seed, 2])
    # Every run starts from the same seed-0 weights, so loss and accuracy vary
    # only with the seeded clouds, augmentations, masks and shuffles; a
    # per-seed init doubled the spread of loss_final.
    init = init_pretrain_params(w.cfg, 0)
    return Inputs([c for c, _ in pre], train, test, init)


def warm_up(w: Workload, inputs: Inputs) -> None:
    """One untimed pretraining pass and one extraction, so the process's
    first-call costs (allocator growth, lazy initialization) stay out of the
    timings."""
    store = inputs.init
    pipeline.pretrain_forward(inputs.clouds[0], w.cfg, store, 0).loss.backward()
    store.zero_grads()
    pipeline.extract_global_feature(inputs.probe_test[0][0], w.cfg, store)


def digest(tensors: dict[str, np.ndarray], prefixes=None) -> str:
    h = hashlib.sha256()
    for name in sorted(tensors):
        if prefixes is not None and not name.startswith(prefixes):
            continue
        arr = np.ascontiguousarray(tensors[name], dtype="<f4")
        h.update(name.encode())
        h.update(str(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def store_arrays(store: T.ParamStore) -> dict[str, np.ndarray]:
    return {name: t.data for name, t in store.items()}


@dataclass
class Op:
    kind: str                   # "pretrain" or "probe"
    clouds: int
    cpu_s: float = 0.0
    steps_ms: list[float] = field(default_factory=list)
    digest: str = ""
    loss_final: float = float("nan")
    accuracy: float = float("nan")
    extract_s: float = float("nan")
    error: str = ""             # empty when the op and its checks passed
    store: T.ParamStore | None = None


class Session:
    """Runs the operations of one workload and seed.

    The end of every ``training.adamw_step`` call is timestamped; that is the
    only hook of an untraced session.
    """

    def __init__(self, w: Workload, inputs: Inputs, seed: int, scratch: Path):
        self.w, self.inputs, self.seed, self.scratch = w, inputs, seed, scratch
        self.stamps: list[float] = []
        self.tracer: Tracer | None = None
        self._adamw = training.adamw_step

        def stamped(*args, **kwargs):
            out = self._adamw(*args, **kwargs)
            self.stamps.append(clock())
            return out

        training.adamw_step = stamped

    def close(self) -> None:
        training.adamw_step = self._adamw

    def _span(self, name: str):
        return self.tracer.span(name) if self.tracer is not None else nullcontext()

    def pretrain(self) -> Op:
        w, inputs = self.w, self.inputs
        op = Op("pretrain", len(inputs.clouds))
        cfg = TrainConfig(lr_max=2e-4, epochs=1, batch_size=w.batch, seed=self.seed,
                          augment=True)
        store = training.copy_store(inputs.init)
        out_dir = Path(tempfile.mkdtemp(dir=self.scratch))
        try:
            mark = len(self.stamps)
            t0 = clock()
            with self._span("op.pretrain"):
                store, curve = training.pretrain_loop(inputs.clouds, cfg, w.cfg, store, out_dir)
            op.cpu_s = clock() - t0
            stamps = [t0] + self.stamps[mark:]
            op.steps_ms = [1e3 * (b - a) for a, b in zip(stamps, stamps[1:])]
            op.loss_final = curve[-1][1]
            op.store = store
            op.digest = digest(store_arrays(store))
            tensors, _ = dataio.load_checkpoint(out_dir / f"checkpoint_epoch{cfg.epochs:04d}.ckpt")
            if digest(tensors) != op.digest:
                op.error = "checkpoint does not load back to the trained parameters"
        except DivergenceError as exc:
            op.error = f"pretraining diverged: {exc}"
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        return op

    def probe(self, backbone: T.ParamStore) -> Op:
        w, inputs = self.w, self.inputs
        op = Op("probe", len(inputs.probe_train) + len(inputs.probe_test))
        protocol = FinetuneProtocol(scope="local", head="linear", num_classes=len(CLASSES))
        cfg = TrainConfig(lr_max=1e-3, epochs=PROBE_EPOCHS, batch_size=32, seed=self.seed,
                          augment=False)
        before = digest(store_arrays(backbone), BACKBONE_PREFIXES)
        mark = len(self.stamps)
        try:
            t0 = clock()
            with self._span("op.probe"):
                tuned, _ = training.finetune(backbone, inputs.probe_train, protocol, cfg, w.cfg)
                t1 = clock()
                acc = training.evaluate_classifier(tuned, w.cfg, protocol, inputs.probe_test)
            t2 = clock()
        except DivergenceError as exc:
            op.error = f"probe diverged: {exc}"
            return op
        op.cpu_s = t2 - t0
        # featurization: everything before the first head step, plus evaluation
        op.extract_s = (self.stamps[mark] - t0) + (t2 - t1)
        op.accuracy = acc
        tuned_arrays = store_arrays(tuned)
        op.digest = digest(tuned_arrays)
        if not (digest(tuned_arrays, BACKBONE_PREFIXES) == before
                == digest(store_arrays(backbone), BACKBONE_PREFIXES)):
            op.error = "the local probe changed the backbone"
        elif acc < MIN_ACCURACY:
            op.error = f"probe accuracy {acc:.4f} is below {MIN_ACCURACY}"
        return op

    def run(self, budget_s: float | None = None, n_main: int | None = None) -> list[Op]:
        """The main operation back to back (``n_main`` times, or while the
        next one should end within ``budget_s``; at least twice), then the
        other operation ``OTHER_REPEATS`` times."""
        ops: list[Op] = []
        trained = None

        def run_op(kind: str, backbone=None) -> Op:
            nonlocal trained
            if self.tracer is not None:
                self.tracer.run_id = f"{kind}-{len(ops)}"
            op = self.pretrain() if kind == "pretrain" else self.probe(backbone)
            if op.store is not None:
                trained, op.store = op.store, None
            ops.append(op)
            return op

        start = time.perf_counter()
        while True:
            last = run_op(self.w.main, self.inputs.init)
            if n_main is not None:
                if len(ops) >= n_main:
                    break
            elif len(ops) >= 2 and time.perf_counter() - start + last.cpu_s > budget_s:
                break
        for _ in range(OTHER_REPEATS):
            if self.w.main == "probe":
                run_op("pretrain")
            elif trained is not None:
                run_op("probe", trained)
        return ops


def check_repeats(ops: list[Op]) -> None:
    """Byte determinism: each repeat of an operation ends with the same
    parameters as its first run."""
    first: dict[str, str] = {}
    for op in ops:
        if not op.error and first.setdefault(op.kind, op.digest) != op.digest:
            op.error = f"{op.kind} parameters differ between repeats with one seed"


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest order statistic that has ten
    samples above it. With 20 or fewer samples no percentile above the
    median has, and the tail is the median."""
    xs = sorted(values)
    n = len(xs)
    if n <= 20:
        return statistics.median(xs), 50.0
    return xs[n - 11], 100.0 * (n - 10) / n


def end_to_end(ops: list[Op], setup_s: list[float]) -> tuple[dict[str, float], list[str]]:
    pre = [op for op in ops if op.kind == "pretrain" and not op.error]
    probe = [op for op in ops if op.kind == "probe" and not op.error]
    if not pre or not probe:
        raise RuntimeError("no successful pretrain and probe operation to measure")
    steps = [s for op in pre for s in op.steps_ms]
    tail_ms, tail_pct = tail(steps)
    metrics = {
        "train_clouds_per_s": statistics.median(op.clouds / op.cpu_s for op in pre),
        "step_ms.p50": statistics.median(steps),
        "step_ms.tail": tail_ms,
        "extract_clouds_per_s": statistics.median(op.clouds / op.extract_s for op in probe),
        "probe_s": statistics.median(op.cpu_s for op in probe),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "loss_final": pre[-1].loss_final,
        "probe_accuracy": probe[-1].accuracy,
    }
    notes = [f"{len(pre)} pretrain and {len(probe)} probe call(s); "
             f"setup_s is the median of {len(setup_s)} rounds",
             f"step_ms.tail is p{tail_pct:.2f} of {len(steps)} pretraining steps"]
    return metrics, notes


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

def _knn_pairs(args, kwargs, out):
    return args[0].shape[0] * args[1].shape[0]


def _encoder_macs(args, kwargs, out):
    tokens, cfg = args[0], args[3]
    return attention.stack_macs("external", tokens.shape[0], cfg.encoder_blocks(),
                                cfg.ea_query_projection)


def _decoder_macs(args, kwargs, out):
    encoded, centers_masked, cfg = args[0], args[2], args[4]
    m = encoded.shape[0] + np.asarray(centers_masked).shape[0]
    return attention.stack_macs("self", m, cfg.decoder_blocks())


def _graph_nodes(args, kwargs, out):
    seen = {id(args[0])}
    todo = [args[0]]
    while todo:
        for p in todo.pop()._parents:
            if id(p) not in seen:
                seen.add(id(p))
                todo.append(p)
    return len(seen)


def _params_updated(args, kwargs, out):
    return sum(g.size for g in args[1].values())


def _checkpoint_bytes(args, kwargs, out):
    return os.path.getsize(args[0])


# How a count becomes a metric: per_cloud divides the total by the clouds the
# pipeline processed, giga_per_s divides it by the layer's time, median takes
# the per-call median.
@dataclass(frozen=True)
class Count:
    metric: str
    unit: str
    how: str
    fn: object


# (layer, owner, attribute its callers look up, optional count)
LAYERS = [
    ("kernels.fps", kernels, "fps_indices", None),
    ("kernels.knn", kernels, "knn_indices",
     Count("kernels.knn.pairs", "count", "per_cloud", _knn_pairs)),
    ("kernels.spfh", kernels, "spfh_histograms", None),
    ("kernels.chamfer", kernels, "chamfer_terms", None),
    ("geometry.normals", pipeline, "estimate_normals", None),
    ("geometry.patches", pipeline, "build_patches", None),
    ("geometry.spfh", pipeline, "spfh_batch", None),
    ("tokenizer.gate", pipeline, "gate_forward", None),
    ("attention.encoder", pipeline, "encoder_forward",
     Count("attention.encoder.gmacs_per_s", "GMAC/s", "giga_per_s", _encoder_macs)),
    ("attention.decoder", pipeline, "decoder_forward",
     Count("attention.decoder.gmacs_per_s", "GMAC/s", "giga_per_s", _decoder_macs)),
    ("pipeline.forward", training, "pretrain_forward", None),
    ("pipeline.extract", training, "extract_global_feature", None),
    ("pipeline.chamfer", pipeline, "chamfer_l2_t", None),
    ("pipeline.head", pipeline, "reconstruction_head", None),
    ("tensor.backward", T.Tensor, "backward",
     Count("tensor.graph_nodes", "count", "median", _graph_nodes)),
    ("optim.adamw", training, "adamw_step",
     Count("optim.params", "count", "median", _params_updated)),
    ("training.augment", training, "augment", None),
    ("dataio.save_checkpoint", dataio, "save_checkpoint",
     Count("dataio.checkpoint_bytes", "bytes", "median", _checkpoint_bytes)),
]
SELF_TIMED = ("geometry.",)        # layers whose .ms leaves out traced children
CLOUD_LAYERS = ("pipeline.forward", "pipeline.extract")


def _per_layer_units() -> dict[str, str]:
    units = {}
    for layer, _, _, count in LAYERS:
        units[f"{layer}.ms"] = "ms"
        units[f"{layer}.share"] = "ratio"
        if count is not None:
            units[count.metric] = count.unit
    units["trace.overhead_ratio"] = "ratio"
    return units


PER_LAYER = _per_layer_units()


def install(tracer: Tracer) -> None:
    for layer, owner, attr, count in LAYERS:
        tracer.wrap(owner, attr, layer, count.fn if count is not None else None)


def per_layer(tracer: Tracer, main: str, overhead: float) -> dict[str, float]:
    selfs = tracer.self_times()
    traced_s = sum(s.end - s.start for s in tracer.spans if s.parent is None)

    def calls(name: str) -> list[int]:
        """Indices of the spans of ``name`` from the main operation, else
        from the other one."""
        idx = [i for i, s in enumerate(tracer.spans) if s.name == name]
        own = [i for i in idx if tracer.spans[i].run.startswith(main)]
        return own or idx

    metrics: dict[str, float] = {}
    for layer, _, _, count in LAYERS:
        idx = calls(layer)
        if not idx:
            raise RuntimeError(f"layer {layer} was never called")
        spans = [tracer.spans[i] for i in idx]
        if layer.startswith(SELF_TIMED):
            per_call = [selfs[i] for i in idx]
        else:
            per_call = [s.end - s.start for s in spans]
        metrics[f"{layer}.ms"] = 1e3 * statistics.median(per_call)
        metrics[f"{layer}.share"] = sum(selfs[i] for i, s in enumerate(tracer.spans)
                                        if s.name == layer) / traced_s
        if count is None:
            continue
        values = [s.count for s in spans]
        if count.how == "median":
            metrics[count.metric] = statistics.median(values)
        elif count.how == "giga_per_s":
            metrics[count.metric] = sum(values) / sum(per_call) / 1e9
        else:
            runs = {s.run for s in spans}
            clouds = sum(1 for s in tracer.spans if s.name in CLOUD_LAYERS and s.run in runs)
            metrics[count.metric] = sum(values) / clouds
    metrics["trace.overhead_ratio"] = overhead
    return metrics


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------

def git_commit(root: Path) -> str:
    """The checked-out commit, or "unknown" outside a git work tree."""
    try:
        head = (root / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            head = (root / ".git" / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown"


def fingerprint(nproc: int, root: Path) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": nproc,
        "blas": blas_name,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "timer": "time.process_time",
        "numpy": np.__version__,
        "python": platform.python_version(),
        "has_numba": kernels.HAS_NUMBA,
        "dispatch": "numba" if kernels.USE_NUMBA else "numpy",
        "commit": git_commit(root),
        "loadavg_before": list(os.getloadavg()),
    }


def run(workload: str, seed: int, seconds: float, traced: bool, nproc: int,
        root: Path) -> int:
    w = WORKLOADS[workload]
    env = fingerprint(nproc, root)
    if env["loadavg_before"][0] > 0.75 * nproc:
        print(f"warning: machine not idle (1-minute load average "
              f"{env['loadavg_before'][0]:.2f} on {nproc} CPUs); timings may be inflated",
              file=sys.stderr)
    out = root / ".perfbench-out"
    out.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=out))
    tag = f"{workload}-seed{seed}-trace{int(traced)}"

    setup_s = []
    for _ in range(1 if traced else SETUP_ROUNDS):
        t0 = clock()
        inputs = make_inputs(w, seed)
        setup_s.append(clock() - t0)

    warm_up(w, inputs)
    session = Session(w, inputs, seed, scratch)
    try:
        if not traced:
            ops = session.run(budget_s=seconds)
            check_repeats(ops)
            metrics, notes = end_to_end(ops, setup_s)
            units = END_TO_END
        else:
            plain = session.run(budget_s=seconds / 2)
            n_main = sum(1 for op in plain if op.kind == w.main)
            session.tracer = tracer = Tracer(clock)
            install(tracer)
            try:
                traced_ops = session.run(n_main=n_main)
            finally:
                tracer.close()
            for a, b in zip(plain, traced_ops):
                if not b.error and a.digest != b.digest:
                    b.error = f"traced {b.kind} parameters differ from the untraced run"
            ops = plain + traced_ops
            check_repeats(ops)
            overhead = sum(op.cpu_s for op in traced_ops) / sum(op.cpu_s for op in plain)
            metrics = per_layer(tracer, w.main, overhead)
            units = PER_LAYER
            notes = [f"{n_main} main operation(s) per pass; spans in trace-{tag}.json"]
            tracer.write(out / f"trace-{tag}.json")
    finally:
        session.close()
        shutil.rmtree(scratch, ignore_errors=True)

    env["loadavg_after"] = list(os.getloadavg())
    failed = [op for op in ops if op.error]
    for op in failed:
        print(f"FAILED {op.kind}: {op.error}", file=sys.stderr)
    result = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    with open(out / f"result-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "seconds": seconds,
                   "env": env, "notes": notes, **result}, fh, indent=1)
    print(f"workload {workload}, seed {seed}, {'traced' if traced else 'untraced'}")
    print("env " + json.dumps(env))
    for line in notes:
        print(line)
    for name, m in result["metrics"].items():
        print(f"  {name:<34} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0
