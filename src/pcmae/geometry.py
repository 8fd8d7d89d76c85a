"""Geometric primitives: cloud normalization, farthest point sampling, k-NN
patch construction, PCA normal estimation, Darboux-frame pair features and
SPFH angle histograms.

All operations are pure functions of (inputs, seed); brute-force neighbour
search is intentional at desk scale (<= ~1e4 points).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels

HIST_BINS = 11


@dataclass
class PointCloud:
    """Ordered 3D points with optional per-point unit normals."""

    points: np.ndarray
    normals: np.ndarray | None = None

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64).reshape(-1, 3)
        if self.normals is not None:
            self.normals = np.asarray(self.normals, dtype=np.float64).reshape(-1, 3)
            if self.normals.shape[0] != self.points.shape[0]:
                raise ValueError("normals length does not match points")

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass
class PatchSet:
    """g patch centers with their k-nearest neighbourhoods, center-subtracted."""

    center_indices: np.ndarray      # [g]
    centers: np.ndarray             # [g, 3]
    neighborhoods: np.ndarray       # [g, k, 3], row j centered at centers[j]
    neighbor_indices: np.ndarray    # [g, k]

    @property
    def g(self) -> int:
        return self.centers.shape[0]

    @property
    def k(self) -> int:
        return self.neighborhoods.shape[1]


@dataclass
class PairFeature:
    """Angular variation (alpha, phi, theta) of one oriented point pair."""

    alpha: float
    phi: float
    theta: float
    degenerate: bool = False


def normalize_cloud(cloud: PointCloud) -> PointCloud:
    """Center on the centroid and scale so the farthest point has norm 1."""
    pts = cloud.points
    if pts.shape[0] == 0:
        raise ValueError("empty cloud")
    centered = pts - pts.mean(axis=0)
    scale = float(np.sqrt((centered * centered).sum(axis=1).max()))
    if scale == 0.0:
        return PointCloud(np.zeros_like(centered), cloud.normals)
    return PointCloud(centered / scale, cloud.normals)


def farthest_point_sample(cloud: PointCloud, g: int, seed=0, first_index: int | None = None) -> np.ndarray:
    """Greedy farthest-point subset of g indices.

    The first center is drawn uniformly from ``seed`` (or pinned via
    ``first_index``); each later pick maximizes the min distance to the
    selected set, ties resolved toward the lower index.
    """
    pts = cloud.points
    n = pts.shape[0]
    if n == 0:
        raise ValueError("empty cloud")
    if g > n or g < 1:
        raise ValueError("sample count exceeds cloud size")
    if first_index is None:
        first_index = int(np.random.default_rng(seed).integers(n))
    return kernels.fps_indices(pts, g, int(first_index))


def knn(cloud: PointCloud, query: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k nearest cloud points to ``query`` (ascending distance,
    ties to the lower index)."""
    pts = cloud.points
    if k > pts.shape[0]:
        raise ValueError("k exceeds cloud size")
    q = np.asarray(query, dtype=np.float64).reshape(1, 3)
    return kernels.knn_indices(pts, q, k)[0]


def knn_batch(cloud: PointCloud, queries: np.ndarray, k: int) -> np.ndarray:
    pts = cloud.points
    if k > pts.shape[0]:
        raise ValueError("k exceeds cloud size")
    q = np.asarray(queries, dtype=np.float64).reshape(-1, 3)
    return kernels.knn_indices(pts, q, k)


def build_patches(cloud: PointCloud, g: int, k: int, seed=0, first_index: int | None = None) -> PatchSet:
    """FPS centers + k-NN neighbourhoods, each neighbourhood center-subtracted."""
    center_indices = farthest_point_sample(cloud, g, seed=seed, first_index=first_index)
    centers = cloud.points[center_indices]
    neighbor_indices = knn_batch(cloud, centers, k)
    neighborhoods = cloud.points[neighbor_indices] - centers[:, None, :]
    return PatchSet(center_indices, centers, neighborhoods, neighbor_indices)


def _orthogonal_unit(v: np.ndarray) -> np.ndarray:
    # any unit vector orthogonal to v
    ref = np.array([1.0, 0.0, 0.0]) if abs(v[0]) <= abs(v[2]) else np.array([0.0, 0.0, 1.0])
    w = np.cross(v, ref)
    n = np.linalg.norm(w)
    if n < kernels.FRAME_EPS:
        w = np.cross(v, np.array([0.0, 1.0, 0.0]))
        n = np.linalg.norm(w)
    return w / n


def estimate_normals_with_stats(cloud: PointCloud, k_n: int = 16) -> tuple[PointCloud, int]:
    """PCA normals over k_n-neighbourhoods plus the count of degenerate
    (collinear) neighbourhoods.

    Normals are oriented away from the cloud centroid; exact ties flip the
    largest-magnitude component positive.
    """
    if k_n < 3:
        raise ValueError("k_n must be at least 3")
    pts = cloud.points
    n = pts.shape[0]
    nbr = knn_batch(cloud, pts, min(k_n, n))
    neigh = pts[nbr]                                   # [n, k_n, 3]
    centered = neigh - neigh.mean(axis=1, keepdims=True)
    cov = np.einsum("nki,nkj->nij", centered, centered) / centered.shape[1]
    evals, evecs = np.linalg.eigh(cov)                 # ascending eigenvalues
    normals = evecs[:, :, 0].copy()

    degenerate = 0
    scale = np.maximum(evals[:, 2], kernels.FRAME_EPS)
    collinear = evals[:, 1] / scale < 1e-9
    for i in np.nonzero(collinear)[0]:
        dominant = evecs[i, :, 2]
        normals[i] = _orthogonal_unit(dominant)
        degenerate += 1

    normals /= np.linalg.norm(normals, axis=1, keepdims=True)

    outward = pts - pts.mean(axis=0)
    dots = (normals * outward).sum(axis=1)
    flip = dots < -kernels.FRAME_EPS
    normals[flip] = -normals[flip]
    ties = np.abs(dots) <= kernels.FRAME_EPS
    for i in np.nonzero(ties)[0]:
        j = int(np.argmax(np.abs(normals[i])))
        if normals[i, j] < 0:
            normals[i] = -normals[i]
    return PointCloud(pts, normals), degenerate


def estimate_normals(cloud: PointCloud, k_n: int = 16) -> PointCloud:
    cloud, _ = estimate_normals_with_stats(cloud, k_n)
    return cloud


def pair_features(p_q, n_q, p_i, n_i, variant: str = "standard") -> PairFeature:
    """Darboux-frame angles of the pair (p_q, n_q) -> (p_i, n_i).

    Frame: u = n_q, v = normalize(dhat x u), w = u x v with dhat the unit
    offset. ``variant`` selects the corrected angle formulas (``standard``)
    or the degenerate as-printed ones (``paper-literal``, audit only).
    """
    p_q = np.asarray(p_q, dtype=np.float64)
    p_i = np.asarray(p_i, dtype=np.float64)
    n_q = np.asarray(n_q, dtype=np.float64)
    n_i = np.asarray(n_i, dtype=np.float64)
    diff = p_i - p_q
    dist = float(np.linalg.norm(diff))
    if dist == 0.0:
        raise ValueError("coincident pair")
    dh = diff / dist
    u = n_q
    phi = float(np.clip(np.dot(u, dh), -1.0, 1.0))
    v = np.cross(dh, u)
    nv = float(np.linalg.norm(v))
    if nv < kernels.FRAME_EPS:
        return PairFeature(0.0, phi, 0.0, degenerate=True)
    v = v / nv
    w = np.cross(u, v)
    if variant == "paper-literal":
        alpha = float(np.dot(v, n_q))
        theta = float(math.atan2(np.dot(w, n_i), np.dot(u, n_q)))
    elif variant == "standard":
        alpha = float(np.dot(v, n_i))
        theta = float(math.atan2(np.dot(w, n_i), np.dot(u, n_i)))
    else:
        raise ValueError(f"unknown pair-feature variant: {variant!r}")
    return PairFeature(float(np.clip(alpha, -1.0, 1.0)), phi, theta)


def spfh_batch(cloud: PointCloud, center_indices, neighbor_indices,
               bins: int = HIST_BINS, variant: str = "standard") -> np.ndarray:
    """SPFH histograms for every patch center; returns [g, 3*bins].

    Pair angles are binned over fixed ranges (alpha, phi in [-1,1], theta in
    [-pi,pi]); each sub-histogram is normalized to sum 1. Neighbours that
    coincide with the center are skipped.
    """
    if cloud.normals is None:
        raise ValueError("cloud has no normals")
    if variant not in ("standard", "paper-literal"):
        raise ValueError(f"unknown pair-feature variant: {variant!r}")
    hist, counts, _ = kernels.spfh_histograms(
        cloud.points, cloud.normals,
        np.asarray(center_indices, dtype=np.int64),
        np.asarray(neighbor_indices, dtype=np.int64),
        bins, variant == "paper-literal")
    if (counts == 0).any():
        raise ValueError("degenerate neighborhood")
    # every valid pair adds one entry per angle, so one division normalizes
    # all three sub-histograms
    return hist / counts[:, None].astype(np.float64)
