"""Geometry kernels: farthest point sampling, k-NN, SPFH pair-feature
histograms, and Chamfer nearest-neighbour terms.

Each kernel is one vectorized numpy function. Ties are resolved
deterministically (lowest index first), so a seed gives the same indices and
histograms on every run. ``python3 perfbench/run.py --workload pretrain-paper
--seed 0 --seconds 25 --trace 1`` reports the time of each kernel
(``kernels.*.ms``).
"""
from __future__ import annotations

import math

import numpy as np

# Read by the benchmark's environment fingerprint; there is no compiled path.
HAS_NUMBA = False
USE_NUMBA = False

FRAME_EPS = 1e-12

# float64 elements per row block of ``knn_indices``' distance tiles. At 2^16
# a block is 64 rows at n = 1024, and its two tiles plus the partition's index
# tile (1.5 MiB) stay in a 2 MiB L2 cache; n = 256 is one block. On a 2-CPU
# Xeon a 1024-point self query with k = 16 took a median 16.2 ms at 2^15, 15.8
# at 2^16, 16.9 at 2^17, 17.0 at 2^18, 17.5 at 2^19 and 28.6 with the whole
# 1024 x 1024 matrix at once.
ROWS_ELEMS = 1 << 16


def fps_indices(points: np.ndarray, g: int, first: int) -> np.ndarray:
    """Greedy farthest-point subset of size g, seeded with index ``first``."""
    points = np.ascontiguousarray(points, dtype=np.float64)
    n = points.shape[0]
    out = np.empty(g, dtype=np.int64)
    best = np.full(n, np.inf)
    chosen = np.zeros(n, dtype=bool)
    cur = int(first)
    for j in range(g):
        out[j] = cur
        chosen[cur] = True
        diff = points - points[cur]
        d = diff[:, 0] * diff[:, 0] + diff[:, 1] * diff[:, 1] + diff[:, 2] * diff[:, 2]
        np.minimum(best, d, out=best)
        if j + 1 < g:
            # argmax returns the first (lowest) index on ties
            cur = int(np.argmax(np.where(chosen, -1.0, best)))
    return out


def knn_indices(points: np.ndarray, queries: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k nearest points per query row, ascending distance.

    Queries are walked in blocks of ``max(1, ROWS_ELEMS // n)`` rows, so the
    distances live in two reused [rows, n] tiles instead of a full [m, n]
    matrix. Every row's arithmetic and selection is independent of the
    others, so the result does not depend on the block size."""
    points = np.ascontiguousarray(points, dtype=np.float64)
    queries = np.ascontiguousarray(queries, dtype=np.float64)
    m, n = len(queries), len(points)
    p_cols = [np.ascontiguousarray(points[:, c]) for c in range(3)]
    rows = max(1, min(m, ROWS_ELEMS // max(n, 1)))
    d, t = np.empty((rows, n)), np.empty((rows, n))
    out = np.empty((m, len(range(n)[:k])), dtype=np.int64)    # as wide as [:, :k]
    for lo in range(0, m, rows):
        r = min(rows, m - lo)
        db, tb, qb = d[:r], t[:r], queries[lo:lo + r]
        # dx*dx + dy*dy + dz*dz, summed in that order, one coordinate at a time
        for c in range(3):
            dc = db if c == 0 else tb
            np.subtract(qb[:, c, None], p_cols[c], out=dc)
            np.multiply(dc, dc, out=dc)
            if c:
                np.add(db, dc, out=db)
        out[lo:lo + r] = _select_nearest(db, k)
    return out


def _select_nearest(d: np.ndarray, k: int) -> np.ndarray:
    """Column indices of the k smallest entries per row of ``d``, ascending,
    ties broken by lower index (what a stable sort gives)."""
    if not 0 < k < d.shape[1]:
        return np.argsort(d, axis=1, kind="stable")[:, :k]
    sel = np.argpartition(d, k - 1, axis=1)[:, :k]
    d_sel = np.take_along_axis(d, sel, axis=1)
    out = np.take_along_axis(sel, np.lexsort((sel, d_sel), axis=1), axis=1)
    # the partition picks arbitrarily among points tied at the k-th distance;
    # rows where such a tie reaches past the k winners take the full sort
    kth = d_sel.max(axis=1, keepdims=True)
    tied = np.count_nonzero(d <= kth, axis=1) != k
    if tied.any():
        out[tied] = np.argsort(d[tied], axis=1, kind="stable")[:, :k]
    return out


def spfh_histograms(points, normals, center_indices, neighbor_indices, bins, literal):
    """Raw (unnormalized) per-center angle histograms.

    Returns (hist [g, 3*bins], valid pair counts [g], degenerate-frame counts [g]).
    Coincident neighbours are skipped; degenerate Darboux frames contribute
    (alpha=0, theta=0, phi=+-1) and are counted separately.
    """
    points = np.ascontiguousarray(points, dtype=np.float64)
    normals = np.ascontiguousarray(normals, dtype=np.float64)
    center_indices = np.ascontiguousarray(center_indices, dtype=np.int64)
    neighbor_indices = np.ascontiguousarray(neighbor_indices, dtype=np.int64)
    g, k = neighbor_indices.shape
    pq = points[center_indices][:, None, :]          # [g,1,3]
    nq = normals[center_indices][:, None, :]
    pi = points[neighbor_indices]                    # [g,k,3]
    ni = normals[neighbor_indices]

    diff = pi - pq
    dist = np.sqrt(diff[..., 0] ** 2 + diff[..., 1] ** 2 + diff[..., 2] ** 2)
    valid = dist > 0.0
    safe = np.where(valid, dist, 1.0)
    dh = diff / safe[..., None]

    ux, uy, uz = nq[..., 0], nq[..., 1], nq[..., 2]
    vx = dh[..., 1] * uz - dh[..., 2] * uy
    vy = dh[..., 2] * ux - dh[..., 0] * uz
    vz = dh[..., 0] * uy - dh[..., 1] * ux
    nv = np.sqrt(vx * vx + vy * vy + vz * vz)
    frame_ok = nv >= FRAME_EPS
    nv_safe = np.where(frame_ok, nv, 1.0)
    vx, vy, vz = vx / nv_safe, vy / nv_safe, vz / nv_safe
    wx = uy * vz - uz * vy
    wy = uz * vx - ux * vz
    wz = ux * vy - uy * vx

    phi = ux * dh[..., 0] + uy * dh[..., 1] + uz * dh[..., 2]
    if literal:
        alpha = vx * ux + vy * uy + vz * uz
        t_den = ux * ux + uy * uy + uz * uz
    else:
        alpha = vx * ni[..., 0] + vy * ni[..., 1] + vz * ni[..., 2]
        t_den = ux * ni[..., 0] + uy * ni[..., 1] + uz * ni[..., 2]
    t_num = wx * ni[..., 0] + wy * ni[..., 1] + wz * ni[..., 2]
    theta = np.arctan2(t_num, t_den)

    alpha = np.where(frame_ok, alpha, 0.0)
    theta = np.where(frame_ok, theta, 0.0)
    alpha = np.minimum(1.0, np.maximum(-1.0, alpha))
    phi = np.minimum(1.0, np.maximum(-1.0, phi))

    ia = np.floor((alpha + 1.0) * bins / 2.0).astype(np.int64)
    ip = np.floor((phi + 1.0) * bins / 2.0).astype(np.int64)
    it = np.floor((theta + math.pi) * bins / (2.0 * math.pi)).astype(np.int64)
    ia = np.clip(ia, 0, bins - 1)
    ip = np.clip(ip, 0, bins - 1)
    it = np.clip(it, 0, bins - 1)

    hist = np.zeros((g, 3 * bins))
    rows = np.broadcast_to(np.arange(g)[:, None], (g, k))
    flat_rows = rows[valid]
    np.add.at(hist, (flat_rows, ia[valid]), 1.0)
    np.add.at(hist, (flat_rows, bins + ip[valid]), 1.0)
    np.add.at(hist, (flat_rows, 2 * bins + it[valid]), 1.0)

    counts = valid.sum(axis=1).astype(np.int64)
    degenerate = (valid & ~frame_ok).sum(axis=1).astype(np.int64)
    return hist, counts, degenerate


def chamfer_terms(a: np.ndarray, b: np.ndarray):
    """Squared NN distances and argmins in both directions for [B,N,3] batches."""
    a = np.ascontiguousarray(a)
    b = np.ascontiguousarray(b)
    diff = a[:, :, None, :] - b[:, None, :, :]
    d = diff[..., 0] * diff[..., 0] + diff[..., 1] * diff[..., 1] + diff[..., 2] * diff[..., 2]
    arg_a = np.argmin(d, axis=2)
    min_a = np.take_along_axis(d, arg_a[:, :, None], axis=2)[:, :, 0]
    arg_b = np.argmin(d, axis=1)
    min_b = np.take_along_axis(d, arg_b[:, None, :], axis=1)[:, 0, :]
    return min_a, arg_a.astype(np.int64), min_b, arg_b.astype(np.int64)
