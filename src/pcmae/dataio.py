"""Dataset ingestion, synthetic shape generation, manifests, and bit-exact
checkpoint persistence.

Interchange formats:
  - cloud files: ``.xyz`` text, one point per line as ``x y z`` (optionally
    ``x y z nx ny nz``); ``#`` comments and blank lines ignored.
  - manifests: text rows ``relative/path,label``.
  - checkpoints: little-endian binary container, float32 payloads, with the
    producing configuration embedded as canonical JSON.
"""
from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import kernels
from .config import (ModelConfig, SchemaError, TrainConfig,
                     model_config_from_dict, model_config_to_dict, train_config_to_dict)
from .geometry import PointCloud, normalize_cloud
from .pipeline import BACKBONE_PREFIXES, pretrain_layout
from .tensor import ParamStore


class DataError(ValueError):
    """Malformed input files or dataset layout."""


class CheckpointError(DataError):
    """Corrupt, truncated or incompatible checkpoint."""


# ---------------------------------------------------------------------------
# xyz text clouds
# ---------------------------------------------------------------------------

def load_xyz(path, n: int | None = None, seed=0) -> PointCloud:
    """Read an ``.xyz`` file; optionally resample to exactly n points
    (FPS-downsample when larger, seeded random duplication when smaller)."""
    points = []
    normals = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            parts = text.split()
            if len(parts) not in (3, 6):
                raise DataError(f"{path}: line {lineno}: expected 3 or 6 columns")
            try:
                values = [float(p) for p in parts]
            except ValueError:
                raise DataError(f"{path}: line {lineno}: malformed number") from None
            if not all(math.isfinite(v) for v in values):
                raise DataError(f"{path}: line {lineno}: non-finite value")
            points.append(values[:3])
            if len(parts) == 6:
                if math.hypot(*values[3:]) == 0.0:
                    raise DataError(f"{path}: line {lineno}: zero-length normal")
                normals.append(values[3:])
    if not points:
        raise DataError(f"{path}: no points")
    if normals and len(normals) != len(points):
        raise DataError(f"{path}: mixed 3- and 6-column rows")
    cloud = PointCloud(np.asarray(points), np.asarray(normals) if normals else None)
    if n is not None:
        cloud = resample_cloud(cloud, n, seed)
    return cloud


def resample_cloud(cloud: PointCloud, n: int, seed=0) -> PointCloud:
    """FPS-downsample to n points, or append seeded random duplicates up to n."""
    count = len(cloud)
    if count == n:
        return cloud
    if count > n:
        idx = kernels.fps_indices(cloud.points, n,
                                  int(np.random.default_rng(seed).integers(count)))
    else:
        extra = np.random.default_rng(seed).integers(count, size=n - count)
        idx = np.concatenate([np.arange(count), extra])
    normals = cloud.normals[idx] if cloud.normals is not None else None
    return PointCloud(cloud.points[idx], normals)


def save_xyz(path, cloud: PointCloud) -> None:
    """Write a cloud with 9 significant digits per coordinate."""
    with open(path, "w", encoding="utf-8") as fh:
        if cloud.normals is None:
            for p in cloud.points:
                fh.write(f"{p[0]:.9g} {p[1]:.9g} {p[2]:.9g}\n")
        else:
            for p, nrm in zip(cloud.points, cloud.normals):
                fh.write(f"{p[0]:.9g} {p[1]:.9g} {p[2]:.9g} "
                         f"{nrm[0]:.9g} {nrm[1]:.9g} {nrm[2]:.9g}\n")


def write_csv(path, header, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(str(h) for h in header) + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")


# ---------------------------------------------------------------------------
# synthetic shapes
# ---------------------------------------------------------------------------

SHAPE_CLASSES = ("sphere", "cube", "cylinder", "torus", "cone")


def sample_shape(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform surface samples of one canonical shape (no rotation, no jitter).

    Each kind draws the doubles of a per-point loop, in its order: where the
    loop made one scalar ``rng.uniform(a, b)`` call per point, which is
    ``a + (b - a) * rng.random()``, one ``rng.random(n)`` gives them all."""
    if kind == "sphere":
        v = rng.normal(size=(n, 3))
        return v / np.linalg.norm(v, axis=1, keepdims=True)
    if kind == "cube":
        # faces of [-1,1]^3 have equal area; uv fill the other two axes in order
        face = rng.integers(6, size=n)
        uv = rng.uniform(-1.0, 1.0, size=(n, 2))
        pts = np.empty((n, 3))
        axis, rows = face % 3, np.arange(n)
        pts[rows, axis] = np.where(face < 3, 1.0, -1.0)
        pts[rows, np.where(axis == 0, 1, 0)] = uv[:, 0]
        pts[rows, np.where(axis == 2, 1, 2)] = uv[:, 1]
        return pts
    if kind == "cylinder":
        # radius 1, height 2, closed caps; pick part proportional to area. One
        # more draw per point: the height on the side, the squared radius on a cap
        lateral = 4.0 * math.pi
        caps = 2.0 * math.pi
        which = rng.uniform(0.0, lateral + caps, size=n)
        theta = rng.uniform(0.0, 2.0 * math.pi, size=n)
        r = rng.random(n)
        side = which < lateral
        rad = np.where(side, 1.0, np.sqrt(r))
        z = np.where(side, -1.0 + 2.0 * r, np.where(which < lateral + caps / 2.0, 1.0, -1.0))
        return np.stack([rad * np.cos(theta), rad * np.sin(theta), z], axis=1)
    if kind == "torus":
        # major radius 1, minor 0.4; rejection keeps sampling area-uniform.
        # An attempt draws u, v and an acceptance double; a block of attempts
        # is drawn at once, and when it holds more than the points still
        # needed, the generator is rewound and advanced past exactly the
        # attempts used, as a one-attempt-at-a-time loop would leave it
        major, minor = 1.0, 0.4
        parts, got = [], 0
        while got < n:
            state = rng.bit_generator.state
            attempts = int((n - got) * 1.5) + 16       # acceptance is 1 / 1.4 on average
            d = rng.random((attempts, 3))
            v = 2.0 * math.pi * d[:, 1]
            ring = major + minor * np.cos(v)
            keep = np.flatnonzero(d[:, 2] <= ring / (major + minor))[:n - got]
            if got + keep.size == n and keep[-1] + 1 < attempts:
                rng.bit_generator.state = state
                rng.random((keep[-1] + 1, 3))
            u, v, ring = 2.0 * math.pi * d[keep, 0], v[keep], ring[keep]
            parts.append(np.stack([ring * np.cos(u), ring * np.sin(u), minor * np.sin(v)],
                                  axis=1))
            got += keep.size
        return np.concatenate(parts) if parts else np.empty((0, 3))
    if kind == "cone":
        # base radius 1 at z=-1, apex at z=+1, closed base. One more draw per
        # point: its square root is the distance from the apex on the side
        # (the area element grows linearly from it) and the radius on the base
        slant = math.sqrt(1.0 + 4.0)
        lateral = math.pi * slant
        base = math.pi
        which = rng.uniform(0.0, lateral + base, size=n)
        theta = rng.uniform(0.0, 2.0 * math.pi, size=n)
        t = np.sqrt(rng.random(n))
        z = np.where(which < lateral, 1.0 - 2.0 * t, -1.0)
        return np.stack([t * np.cos(theta), t * np.sin(theta), z], axis=1)
    raise ValueError(f"unknown shape class: {kind!r}")


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform random proper rotation (QR of a Gaussian matrix, det fixed)."""
    m = rng.normal(size=(3, 3))
    q, r = np.linalg.qr(m)
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def synth_shapes(classes, per_class: int, n_points: int, seed=0,
                 jitter: float = 0.02) -> tuple[list[tuple[PointCloud, int]], list[str]]:
    """Labeled synthetic dataset: per-instance random rotation + Gaussian
    jitter, normalized to the unit ball. Returns (items, class names)."""
    if per_class < 1:
        raise ValueError("per_class must be >= 1")
    names = sorted(classes)
    for name in names:
        if name not in SHAPE_CLASSES:
            raise ValueError(f"unknown shape class: {name!r}")
    rng = np.random.default_rng(seed)
    items: list[tuple[PointCloud, int]] = []
    for label, name in enumerate(names):
        for _ in range(per_class):
            pts = sample_shape(name, n_points, rng)
            pts = pts @ random_rotation(rng).T
            pts = pts + rng.normal(0.0, jitter, size=pts.shape)
            items.append((normalize_cloud(PointCloud(pts)), label))
    return items, names


# ---------------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------------

@dataclass
class DatasetManifest:
    entries: list[tuple[str, str]]        # (relative path, label), sorted by path
    class_index: dict[str, int]           # label -> id, lexicographic
    split: str


def manifest_load(root, split: str = "train") -> DatasetManifest:
    """Load ``<root>/<split>.csv`` rows ``path,label``, or fall back to
    scanning ``<root>/<split>/<label>/*.xyz`` class directories."""
    root = Path(root)
    manifest = root / f"{split}.csv"
    entries: list[tuple[str, str]] = []
    if manifest.is_file():
        with open(manifest, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                text = line.strip()
                if not text or text.startswith("#"):
                    continue
                if "," not in text:
                    raise DataError(f"{manifest}: line {lineno}: expected 'path,label'")
                rel, label = text.split(",", 1)
                rel, label = rel.strip(), label.strip()
                if not (root / rel).is_file():
                    raise DataError(f"{manifest}: line {lineno}: missing file {rel!r}")
                entries.append((rel, label))
    else:
        split_dir = root / split
        if not split_dir.is_dir():
            raise DataError(f"no manifest {manifest} and no directory {split_dir}")
        for class_dir in sorted(p for p in split_dir.iterdir() if p.is_dir()):
            for f in sorted(class_dir.glob("*.xyz")):
                entries.append((str(f.relative_to(root)), class_dir.name))
    if not entries:
        raise DataError(f"{root}: empty {split!r} split")
    seen: set[str] = set()
    for rel, _ in entries:
        if rel in seen:
            raise DataError(f"duplicate path in manifest: {rel!r}")
        seen.add(rel)
    entries.sort(key=lambda e: e[0])
    labels = sorted({label for _, label in entries})
    class_index = {label: i for i, label in enumerate(labels)}
    return DatasetManifest(entries, class_index, split)


def load_dataset(root, split: str, n: int | None = None, seed=0,
                 normalize: bool = True) -> tuple[list[tuple[PointCloud, int]], list[str]]:
    """Materialize a manifest into (cloud, label-id) items."""
    root = Path(root)
    manifest = manifest_load(root, split)
    items = []
    for rel, label in manifest.entries:
        cloud = load_xyz(root / rel, n=n, seed=seed)
        if normalize:
            cloud = normalize_cloud(cloud)
        items.append((cloud, manifest.class_index[label]))
    return items, sorted(manifest.class_index)


def save_dataset(root, split: str, items, class_names) -> None:
    """Write items as xyz files plus a ``<split>.csv`` manifest."""
    root = Path(root)
    rows = []
    counters: dict[str, int] = {}
    for cloud, label in items:
        name = class_names[label]
        idx = counters.get(name, 0)
        counters[name] = idx + 1
        rel = Path(split) / name / f"{name}_{idx:04d}.xyz"
        (root / rel.parent).mkdir(parents=True, exist_ok=True)
        save_xyz(root / rel, cloud)
        rows.append((str(rel), name))
    rows.sort(key=lambda r: r[0])
    with open(root / f"{split}.csv", "w", encoding="utf-8") as fh:
        for rel, name in rows:
            fh.write(f"{rel},{name}\n")


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

CHECKPOINT_MAGIC = b"PCMA"
CHECKPOINT_VERSION = 1


def _canonical_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def save_checkpoint(path, store: ParamStore, model_cfg: ModelConfig,
                    train_cfg: TrainConfig | None = None,
                    extra: dict | None = None) -> None:
    """Binary serialization: magic, version, config JSON, then name-sorted
    float32 little-endian tensors. Two saves of the same state are
    byte-identical. The bytes go to a temporary file in the same directory,
    which then replaces ``path`` in one step, so a save that fails part way
    leaves any earlier file at ``path`` as it was and no temporary behind."""
    config_block = {
        "model": model_config_to_dict(model_cfg),
        "train": train_config_to_dict(train_cfg) if train_cfg is not None else None,
        "extra": extra or {},
    }
    blob = _canonical_json(config_block)
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(struct.pack("<I", CHECKPOINT_VERSION))
            fh.write(struct.pack("<I", len(blob)))
            fh.write(blob)
            names = store.names()
            fh.write(struct.pack("<I", len(names)))
            for name in names:
                data = np.ascontiguousarray(store[name].data, dtype="<f4")
                encoded = name.encode("utf-8")
                fh.write(struct.pack("<I", len(encoded)))
                fh.write(encoded)
                fh.write(struct.pack("<I", data.ndim))
                fh.write(struct.pack(f"<{data.ndim}I", *data.shape))
                fh.write(data.tobytes())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    """Read tensors + config block; magic/version problems, lengths that
    run past the end of the file, a config block that does not decode and
    non-finite tensor values raise CheckpointError ('bad magic' /
    'unsupported checkpoint version' / 'truncated checkpoint' / 'corrupt
    config block' / 'non-finite values in tensor <name>')."""
    with open(path, "rb") as fh:
        end = os.fstat(fh.fileno()).st_size

        def read(count: int) -> bytes:
            # a declared length is checked against the bytes left before
            # reading, so a corrupted one never asks for a huge buffer
            buf = fh.read(count) if count <= end - fh.tell() else b""
            if len(buf) != count:
                raise CheckpointError(f"{path}: truncated checkpoint")
            return buf

        magic = fh.read(4)
        if magic != CHECKPOINT_MAGIC:
            raise CheckpointError(f"{path}: bad magic")
        version = struct.unpack("<I", read(4))[0]
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
        blob_len = struct.unpack("<I", read(4))[0]
        blob = read(blob_len)
        try:
            config_block = json.loads(blob.decode("utf-8"))
        except (ValueError, RecursionError):     # bad UTF-8 or JSON, or nested too deep
            raise CheckpointError(f"{path}: corrupt config block") from None
        count = struct.unpack("<I", read(4))[0]
        tensors: dict[str, np.ndarray] = {}
        for _ in range(count):
            name_len = struct.unpack("<I", read(4))[0]
            name = read(name_len).decode("utf-8")
            ndim = struct.unpack("<I", read(4))[0]
            shape = struct.unpack(f"<{ndim}I", read(4 * ndim))
            size = math.prod(shape)
            payload = read(4 * size)
            tensors[name] = np.frombuffer(payload, dtype="<f4").reshape(shape).copy()
            if not np.isfinite(tensors[name]).all():
                raise CheckpointError(f"{path}: non-finite values in tensor {name!r}")
        if fh.read(1):
            raise CheckpointError(f"{path}: trailing bytes")
    return tensors, config_block


def load_model_checkpoint(path) -> tuple[ParamStore, ModelConfig, dict]:
    """Load a checkpoint into a fresh ParamStore. A model block that is
    missing, has an unknown key or an invalid value raises CheckpointError,
    and so does a backbone tensor that the model config implies (the names
    and shapes of ``pretrain_layout``, read without drawing any weights) but
    the file lacks or holds in another shape, or a backbone tensor it does
    not imply. Other tensors, such as a classifier head, are kept as they
    are."""
    tensors, config_block = load_checkpoint(path)
    model_block = config_block.get("model") if isinstance(config_block, dict) else None
    if not isinstance(model_block, dict):
        raise CheckpointError(f"{path}: checkpoint has no model config")
    try:
        model_cfg = model_config_from_dict(model_block)
    except SchemaError as exc:
        raise CheckpointError(f"{path}: bad model config: {exc}") from None
    layout = {name: shape for name, shape, _ in pretrain_layout(model_cfg)}
    for name, shape in layout.items():
        if name not in tensors:
            raise CheckpointError(f"{path}: missing tensor {name!r}")
        if tensors[name].shape != shape:
            raise CheckpointError(f"{path}: tensor {name!r} has shape "
                                  f"{tensors[name].shape}, expected {shape}")
    for name in tensors:
        if name.startswith(BACKBONE_PREFIXES) and name not in layout:
            raise CheckpointError(f"{path}: unexpected tensor {name!r}")
    store = ParamStore()
    for name in sorted(tensors):
        store.add(name, tensors[name])      # load_checkpoint's arrays are fresh copies
    return store, model_cfg, config_block
