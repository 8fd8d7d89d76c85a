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
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import kernels
from .config import (ModelConfig, SchemaError, TrainConfig,
                     model_config_from_dict, model_config_to_dict, train_config_to_dict)
from .geometry import PointCloud, normalize_cloud
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
    """Uniform surface samples of one canonical shape (no rotation, no jitter)."""
    if kind == "sphere":
        v = rng.normal(size=(n, 3))
        return v / np.linalg.norm(v, axis=1, keepdims=True)
    if kind == "cube":
        # faces of [-1,1]^3 have equal area
        face = rng.integers(6, size=n)
        uv = rng.uniform(-1.0, 1.0, size=(n, 2))
        pts = np.empty((n, 3))
        axis = face % 3
        sign = np.where(face < 3, 1.0, -1.0)
        for i in range(n):
            a = axis[i]
            rest = [j for j in range(3) if j != a]
            pts[i, a] = sign[i]
            pts[i, rest[0]] = uv[i, 0]
            pts[i, rest[1]] = uv[i, 1]
        return pts
    if kind == "cylinder":
        # radius 1, height 2, closed caps; pick part proportional to area
        lateral = 4.0 * math.pi
        caps = 2.0 * math.pi
        pts = np.empty((n, 3))
        which = rng.uniform(0.0, lateral + caps, size=n)
        theta = rng.uniform(0.0, 2.0 * math.pi, size=n)
        for i in range(n):
            if which[i] < lateral:
                pts[i] = (math.cos(theta[i]), math.sin(theta[i]),
                          rng.uniform(-1.0, 1.0))
            else:
                rad = math.sqrt(rng.uniform(0.0, 1.0))
                z = 1.0 if which[i] < lateral + caps / 2.0 else -1.0
                pts[i] = (rad * math.cos(theta[i]), rad * math.sin(theta[i]), z)
        return pts
    if kind == "torus":
        # major radius 1, minor 0.4; rejection keeps sampling area-uniform
        major, minor = 1.0, 0.4
        pts = np.empty((n, 3))
        got = 0
        while got < n:
            u = rng.uniform(0.0, 2.0 * math.pi)
            v = rng.uniform(0.0, 2.0 * math.pi)
            if rng.uniform() > (major + minor * math.cos(v)) / (major + minor):
                continue
            ring = major + minor * math.cos(v)
            pts[got] = (ring * math.cos(u), ring * math.sin(u), minor * math.sin(v))
            got += 1
        return pts
    if kind == "cone":
        # base radius 1 at z=-1, apex at z=+1, closed base
        slant = math.sqrt(1.0 + 4.0)
        lateral = math.pi * slant
        base = math.pi
        pts = np.empty((n, 3))
        which = rng.uniform(0.0, lateral + base, size=n)
        theta = rng.uniform(0.0, 2.0 * math.pi, size=n)
        for i in range(n):
            if which[i] < lateral:
                t = math.sqrt(rng.uniform())    # area element grows linearly from apex
                pts[i] = (t * math.cos(theta[i]), t * math.sin(theta[i]),
                          1.0 - 2.0 * t)
            else:
                rad = math.sqrt(rng.uniform(0.0, 1.0))
                pts[i] = (rad * math.cos(theta[i]), rad * math.sin(theta[i]), -1.0)
        return pts
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
    byte-identical."""
    config_block = {
        "model": model_config_to_dict(model_cfg),
        "train": train_config_to_dict(train_cfg) if train_cfg is not None else None,
        "extra": extra or {},
    }
    blob = _canonical_json(config_block)
    with open(path, "wb") as fh:
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


def _read_exact(fh, count: int, path) -> bytes:
    buf = fh.read(count)
    if len(buf) != count:
        raise CheckpointError(f"{path}: truncated checkpoint")
    return buf


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    """Read tensors + config block; magic/version problems raise
    CheckpointError ('bad magic' / 'unsupported checkpoint version')."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != CHECKPOINT_MAGIC:
            raise CheckpointError(f"{path}: bad magic")
        version = struct.unpack("<I", _read_exact(fh, 4, path))[0]
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
        blob_len = struct.unpack("<I", _read_exact(fh, 4, path))[0]
        config_block = json.loads(_read_exact(fh, blob_len, path).decode("utf-8"))
        count = struct.unpack("<I", _read_exact(fh, 4, path))[0]
        tensors: dict[str, np.ndarray] = {}
        for _ in range(count):
            name_len = struct.unpack("<I", _read_exact(fh, 4, path))[0]
            name = _read_exact(fh, name_len, path).decode("utf-8")
            ndim = struct.unpack("<I", _read_exact(fh, 4, path))[0]
            shape = struct.unpack(f"<{ndim}I", _read_exact(fh, 4 * ndim, path))
            size = int(np.prod(shape)) if ndim else 1
            payload = _read_exact(fh, 4 * size, path)
            tensors[name] = np.frombuffer(payload, dtype="<f4").reshape(shape).copy()
        if fh.read(1):
            raise CheckpointError(f"{path}: trailing bytes")
    return tensors, config_block


def restore_store(tensors: dict[str, np.ndarray]) -> ParamStore:
    store = ParamStore()
    for name in sorted(tensors):
        store.add(name, tensors[name].copy())
    return store


def load_model_checkpoint(path, expect_model: ModelConfig | None = None
                          ) -> tuple[ParamStore, ModelConfig, dict]:
    """Load a checkpoint into a fresh ParamStore; when ``expect_model`` is
    given, any differing model config raises 'config mismatch'. A model block
    that is missing, has an unknown key or an invalid value raises
    CheckpointError."""
    tensors, config_block = load_checkpoint(path)
    model_block = config_block.get("model") if isinstance(config_block, dict) else None
    if not isinstance(model_block, dict):
        raise CheckpointError(f"{path}: checkpoint has no model config")
    try:
        model_cfg = model_config_from_dict(model_block)
    except SchemaError as exc:
        raise CheckpointError(f"{path}: bad model config: {exc}") from None
    if expect_model is not None and model_config_to_dict(expect_model) != model_block:
        raise CheckpointError(f"{path}: config mismatch")
    return restore_store(tensors), model_cfg, config_block
