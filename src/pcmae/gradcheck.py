"""Finite-difference verification of analytic gradients.

Checks run in float64 with central differences. The relative error per
coordinate is |analytic - numeric| / max(1e-8, |analytic| + |numeric|); the
harness reports the max over the checked coordinates. Large parameter sets
can be spot-checked on a seeded random subset of coordinates.

Central differences at step h carry truncation noise ~ f'''*h^2/6; a
coordinate whose true gradient sits below that floor cannot be resolved at
any tolerance, so deep-composite checks may set ``min_grad`` to skip
coordinates with |analytic| under the floor (a backward-pass bug scales with
the gradient itself, so the resolvable coordinates still catch it).
"""
from __future__ import annotations

import numpy as np

from .tensor import ParamStore, Tensor


def _rel_err(analytic: np.ndarray, numeric: np.ndarray) -> np.ndarray:
    denom = np.maximum(1e-8, np.abs(analytic) + np.abs(numeric))
    return np.abs(analytic - numeric) / denom


def finite_difference_check(f, x: Tensor, h: float = 1e-5,
                            max_coords: int | None = None, rng=0) -> float:
    """Max relative error between the analytic gradient of scalar f at x and
    central finite differences: ``check_param_gradients`` over a store that
    holds only x's array.

    ``f`` must rebuild its graph on every call (x.data is perturbed in place).
    """
    store = ParamStore()
    store.add("x", x.data)
    return check_param_gradients(lambda: f(store["x"]), store, h, max_coords, rng)


def check_param_gradients(build_loss, store: ParamStore, h: float = 1e-5,
                          max_coords: int | None = None, rng=0,
                          names: list[str] | None = None,
                          min_grad: float = 0.0) -> float:
    """Finite-difference check of d(loss)/d(params) over a ParamStore.

    ``build_loss`` takes no arguments and must be deterministic. Coordinates
    are pooled across the named (default: all trainable) entries; when
    ``max_coords`` is set, a seeded subset is checked. ``min_grad`` skips
    coordinates whose analytic gradient magnitude is below the central-
    difference noise floor.
    """
    rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
    names = store.trainable_names() if names is None else names

    store.zero_grads()
    loss = build_loss()
    if not np.isfinite(loss.data).all():
        raise ValueError("non-finite gradient")
    loss.backward()
    analytic = {}
    for n in names:
        g = store[n].grad
        analytic[n] = np.zeros_like(store[n].data) if g is None else g.copy()
        if not np.isfinite(analytic[n]).all():
            raise ValueError("non-finite gradient")

    pool = [(n, i) for n in names for i in range(store[n].data.size)
            if abs(analytic[n].ravel()[i]) >= min_grad]
    if max_coords is not None and len(pool) > max_coords:
        picks = rng.choice(len(pool), size=max_coords, replace=False)
        pool = [pool[int(p)] for p in picks]

    worst = 0.0
    for n, i in pool:
        flat = store[n].data.ravel()
        orig = flat[i]
        flat[i] = orig + h
        f_plus = float(build_loss().data)
        flat[i] = orig - h
        f_minus = float(build_loss().data)
        flat[i] = orig
        numeric = (f_plus - f_minus) / (2.0 * h)
        if not np.isfinite(numeric):
            raise ValueError("non-finite gradient")
        a = float(analytic[n].ravel()[i])
        worst = max(worst, float(_rel_err(np.float64(a), np.float64(numeric))))
    return worst
