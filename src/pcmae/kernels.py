"""Hot numeric kernels: farthest point sampling, k-NN, SPFH pair-feature
histograms, and Chamfer nearest-neighbour terms.

Each kernel exists twice: a numba ``@njit`` loop and a vectorized pure-numpy
fallback. Dispatch is controlled by the ``PCMAE_NUMBA`` environment variable
(``1`` force on, ``0`` force off, anything else / unset = use numba when
importable). Both paths are written with identical per-element arithmetic so
they produce bit-identical results. ``python3 perfbench/run.py --workload
pretrain-paper --seed 0 --seconds 25 --trace 1`` reports the time of each
kernel (``kernels.*.ms``) on the path in use.
"""
from __future__ import annotations

import math
import os

import numpy as np

try:
    from numba import njit

    HAS_NUMBA = True
except ImportError:  # pragma: no cover - numba is a declared dependency
    HAS_NUMBA = False


def _env_numba_enabled() -> bool:
    flag = os.environ.get("PCMAE_NUMBA", "auto").strip().lower()
    if flag in ("0", "false", "off", "no"):
        return False
    if flag in ("1", "true", "on", "yes"):
        if not HAS_NUMBA:
            raise RuntimeError("PCMAE_NUMBA=1 but numba is not importable")
        return True
    return HAS_NUMBA


USE_NUMBA = _env_numba_enabled()

_FRAME_EPS = 1e-12


# ---------------------------------------------------------------------------
# farthest point sampling
# ---------------------------------------------------------------------------

def _fps_numpy(points: np.ndarray, g: int, first: int) -> np.ndarray:
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


def _fps_loop(points, g, first):
    n = points.shape[0]
    out = np.empty(g, dtype=np.int64)
    best = np.full(n, np.inf)
    chosen = np.zeros(n, dtype=np.bool_)
    cur = first
    for j in range(g):
        out[j] = cur
        chosen[cur] = True
        cx = points[cur, 0]
        cy = points[cur, 1]
        cz = points[cur, 2]
        for i in range(n):
            dx = points[i, 0] - cx
            dy = points[i, 1] - cy
            dz = points[i, 2] - cz
            d = dx * dx + dy * dy + dz * dz
            if d < best[i]:
                best[i] = d
        if j + 1 < g:
            bi = -1
            bv = -1.0
            for i in range(n):
                if not chosen[i] and best[i] > bv:
                    bv = best[i]
                    bi = i
            cur = bi
    return out


# ---------------------------------------------------------------------------
# k nearest neighbours
# ---------------------------------------------------------------------------

def _knn_numpy(points: np.ndarray, queries: np.ndarray, k: int) -> np.ndarray:
    # dx*dx + dy*dy + dz*dz, summed in that order, one coordinate at a time
    d = None
    for c in range(3):
        dc = queries[:, c, None] - points[None, :, c]
        dc *= dc
        d = dc if d is None else np.add(d, dc, out=d)
    # order: ascending distance, ties broken by lower index (a stable sort)
    if not 0 < k < d.shape[1]:
        return np.argsort(d, axis=1, kind="stable")[:, :k].astype(np.int64)
    sel = np.argpartition(d, k - 1, axis=1)[:, :k]
    d_sel = np.take_along_axis(d, sel, axis=1)
    out = np.take_along_axis(sel, np.lexsort((sel, d_sel), axis=1), axis=1)
    # the partition picks arbitrarily among points tied at the k-th distance;
    # rows where such a tie reaches past the k winners take the full sort
    kth = d_sel.max(axis=1, keepdims=True)
    tied = np.count_nonzero(d <= kth, axis=1) != k
    if tied.any():
        out[tied] = np.argsort(d[tied], axis=1, kind="stable")[:, :k]
    return out.astype(np.int64)


def _knn_loop(points, queries, k):
    n = points.shape[0]
    m = queries.shape[0]
    out = np.empty((m, k), dtype=np.int64)
    d = np.empty(n)
    used = np.empty(n, dtype=np.bool_)
    for j in range(m):
        qx = queries[j, 0]
        qy = queries[j, 1]
        qz = queries[j, 2]
        for i in range(n):
            dx = points[i, 0] - qx
            dy = points[i, 1] - qy
            dz = points[i, 2] - qz
            d[i] = dx * dx + dy * dy + dz * dz
            used[i] = False
        for a in range(k):
            bi = -1
            bv = np.inf
            for i in range(n):
                if not used[i] and d[i] < bv:
                    bv = d[i]
                    bi = i
            out[j, a] = bi
            used[bi] = True
    return out


# ---------------------------------------------------------------------------
# SPFH pair features + histogram accumulation
# ---------------------------------------------------------------------------

def _spfh_numpy(points, normals, center_indices, neighbor_indices, bins, literal):
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
    frame_ok = nv >= _FRAME_EPS
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


def _spfh_loop(points, normals, center_indices, neighbor_indices, bins, literal):
    g, k = neighbor_indices.shape
    hist = np.zeros((g, 3 * bins))
    counts = np.zeros(g, dtype=np.int64)
    degenerate = np.zeros(g, dtype=np.int64)
    for c in range(g):
        ci = center_indices[c]
        px = points[ci, 0]
        py = points[ci, 1]
        pz = points[ci, 2]
        ux = normals[ci, 0]
        uy = normals[ci, 1]
        uz = normals[ci, 2]
        for jj in range(k):
            ni_ = neighbor_indices[c, jj]
            dx = points[ni_, 0] - px
            dy = points[ni_, 1] - py
            dz = points[ni_, 2] - pz
            dist = math.sqrt(dx * dx + dy * dy + dz * dz)
            if dist == 0.0:
                continue
            dhx = dx / dist
            dhy = dy / dist
            dhz = dz / dist
            vx = dhy * uz - dhz * uy
            vy = dhz * ux - dhx * uz
            vz = dhx * uy - dhy * ux
            nv = math.sqrt(vx * vx + vy * vy + vz * vz)
            nx = normals[ni_, 0]
            ny = normals[ni_, 1]
            nz = normals[ni_, 2]
            phi = ux * dhx + uy * dhy + uz * dhz
            if nv >= _FRAME_EPS:
                vx /= nv
                vy /= nv
                vz /= nv
                wx = uy * vz - uz * vy
                wy = uz * vx - ux * vz
                wz = ux * vy - uy * vx
                if literal:
                    alpha = vx * ux + vy * uy + vz * uz
                    t_den = ux * ux + uy * uy + uz * uz
                else:
                    alpha = vx * nx + vy * ny + vz * nz
                    t_den = ux * nx + uy * ny + uz * nz
                t_num = wx * nx + wy * ny + wz * nz
                theta = math.atan2(t_num, t_den)
            else:
                alpha = 0.0
                theta = 0.0
                degenerate[c] += 1
            if alpha > 1.0:
                alpha = 1.0
            elif alpha < -1.0:
                alpha = -1.0
            if phi > 1.0:
                phi = 1.0
            elif phi < -1.0:
                phi = -1.0
            ia = int(math.floor((alpha + 1.0) * bins / 2.0))
            ip = int(math.floor((phi + 1.0) * bins / 2.0))
            it = int(math.floor((theta + math.pi) * bins / (2.0 * math.pi)))
            if ia < 0:
                ia = 0
            elif ia > bins - 1:
                ia = bins - 1
            if ip < 0:
                ip = 0
            elif ip > bins - 1:
                ip = bins - 1
            if it < 0:
                it = 0
            elif it > bins - 1:
                it = bins - 1
            hist[c, ia] += 1.0
            hist[c, bins + ip] += 1.0
            hist[c, 2 * bins + it] += 1.0
            counts[c] += 1
    return hist, counts, degenerate


# ---------------------------------------------------------------------------
# Chamfer nearest-neighbour terms
# ---------------------------------------------------------------------------

def _chamfer_numpy(a: np.ndarray, b: np.ndarray):
    diff = a[:, :, None, :] - b[:, None, :, :]
    d = diff[..., 0] * diff[..., 0] + diff[..., 1] * diff[..., 1] + diff[..., 2] * diff[..., 2]
    arg_a = np.argmin(d, axis=2)
    min_a = np.take_along_axis(d, arg_a[:, :, None], axis=2)[:, :, 0]
    arg_b = np.argmin(d, axis=1)
    min_b = np.take_along_axis(d, arg_b[:, None, :], axis=1)[:, 0, :]
    return min_a, arg_a.astype(np.int64), min_b, arg_b.astype(np.int64)


def _chamfer_loop(a, b):
    nb_batch, na = a.shape[0], a.shape[1]
    nb = b.shape[1]
    min_a = np.empty((nb_batch, na), dtype=a.dtype)
    arg_a = np.empty((nb_batch, na), dtype=np.int64)
    min_b = np.empty((nb_batch, nb), dtype=a.dtype)
    arg_b = np.empty((nb_batch, nb), dtype=np.int64)
    for bi in range(nb_batch):
        for i in range(na):
            best = np.inf
            bidx = 0
            ax = a[bi, i, 0]
            ay = a[bi, i, 1]
            az = a[bi, i, 2]
            for j in range(nb):
                dx = ax - b[bi, j, 0]
                dy = ay - b[bi, j, 1]
                dz = az - b[bi, j, 2]
                d = dx * dx + dy * dy + dz * dz
                if d < best:
                    best = d
                    bidx = j
            min_a[bi, i] = best
            arg_a[bi, i] = bidx
        for j in range(nb):
            best = np.inf
            bidx = 0
            bx = b[bi, j, 0]
            by = b[bi, j, 1]
            bz = b[bi, j, 2]
            for i in range(na):
                dx = a[bi, i, 0] - bx
                dy = a[bi, i, 1] - by
                dz = a[bi, i, 2] - bz
                d = dx * dx + dy * dy + dz * dz
                if d < best:
                    best = d
                    bidx = i
            min_b[bi, j] = best
            arg_b[bi, j] = bidx
    return min_a, arg_a, min_b, arg_b


if HAS_NUMBA:
    _fps_numba = njit(cache=True)(_fps_loop)
    _knn_numba = njit(cache=True)(_knn_loop)
    _spfh_numba = njit(cache=True)(_spfh_loop)
    _chamfer_numba = njit(cache=True)(_chamfer_loop)


def fps_indices(points: np.ndarray, g: int, first: int) -> np.ndarray:
    """Greedy farthest-point subset of size g, seeded with index ``first``."""
    points = np.ascontiguousarray(points, dtype=np.float64)
    if USE_NUMBA:
        return _fps_numba(points, g, first)
    return _fps_numpy(points, g, first)


def knn_indices(points: np.ndarray, queries: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k nearest points per query row, ascending distance."""
    points = np.ascontiguousarray(points, dtype=np.float64)
    queries = np.ascontiguousarray(queries, dtype=np.float64)
    if USE_NUMBA:
        return _knn_numba(points, queries, k)
    return _knn_numpy(points, queries, k)


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
    if USE_NUMBA:
        return _spfh_numba(points, normals, center_indices, neighbor_indices, bins, literal)
    return _spfh_numpy(points, normals, center_indices, neighbor_indices, bins, literal)


def chamfer_terms(a: np.ndarray, b: np.ndarray):
    """Squared NN distances and argmins in both directions for [B,N,3] batches."""
    a = np.ascontiguousarray(a)
    b = np.ascontiguousarray(b)
    if USE_NUMBA:
        return _chamfer_numba(a, b)
    return _chamfer_numpy(a, b)
