"""Closed-form initial conditions.

Both named presets live on [0,2]^2 and are strictly positive: ``gauss``
puts a sharp chemical peak on a cell-density dip at the center (minimum
u0(1,1) = 0.0001), ``cosine`` uses phase-opposed cosine bumps of equal
amplitude.  ``constant:<cu>:<cv>`` gives spatially constant data, handy
for exactness tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["ICPreset", "get_preset", "PRESET_NAMES"]

PRESET_NAMES = ("gauss", "cosine", "constant:<cu>:<cv>")


@dataclass(frozen=True)
class ICPreset:
    name: str
    u0: Callable
    v0: Callable
    grad_v0: Callable  # the gradient of v0, which the H1 projection loads


def _gauss():
    def u0(x, y):
        e = np.exp(-10.0 * (y - 1.0) ** 2 - 10.0 * (x - 1.0) ** 2)
        return -10.0 * x * y * (2.0 - x) * (2.0 - y) * e + 10.0001

    def v0(x, y):
        e = np.exp(-30.0 * (y - 1.0) ** 2 - 30.0 * (x - 1.0) ** 2)
        return 100.0 * x * y * (2.0 - x) * (2.0 - y) * e + 0.0001

    def grad_v0(x, y):
        gx_poly = x * (2.0 - x)
        gy_poly = y * (2.0 - y)
        e = np.exp(-30.0 * (y - 1.0) ** 2 - 30.0 * (x - 1.0) ** 2)
        gx = 100.0 * gy_poly * e * ((2.0 - 2.0 * x) - gx_poly * 60.0 * (x - 1.0))
        gy = 100.0 * gx_poly * e * ((2.0 - 2.0 * y) - gy_poly * 60.0 * (y - 1.0))
        return gx, gy

    return ICPreset("gauss", u0, v0, grad_v0)


def _cosine():
    two_pi = 2.0 * np.pi

    def u0(x, y):
        return 14.0 * np.cos(two_pi * x) * np.cos(two_pi * y) + 14.0001

    def v0(x, y):
        return -14.0 * np.cos(two_pi * x) * np.cos(two_pi * y) + 14.0001

    def grad_v0(x, y):
        gx = 14.0 * two_pi * np.sin(two_pi * x) * np.cos(two_pi * y)
        gy = 14.0 * two_pi * np.cos(two_pi * x) * np.sin(two_pi * y)
        return gx, gy

    return ICPreset("cosine", u0, v0, grad_v0)


def _constant(cu: float, cv: float):
    def u0(x, y):
        return np.full_like(np.asarray(x, dtype=float), cu)

    def v0(x, y):
        return np.full_like(np.asarray(x, dtype=float), cv)

    def grad_v0(x, y):
        z = np.zeros_like(np.asarray(x, dtype=float))
        return z, z.copy()

    return ICPreset(f"constant:{cu}:{cv}", u0, v0, grad_v0)


def get_preset(name: str) -> ICPreset:
    """Look up a preset by name; 'constant:<cu>:<cv>' parses its constants."""
    if name == "gauss":
        return _gauss()
    if name == "cosine":
        return _cosine()
    if name.startswith("constant:"):
        parts = name.split(":")
        if len(parts) != 3:
            raise ValueError(f"constant preset must be 'constant:<cu>:<cv>', got {name!r}")
        try:
            cu, cv = float(parts[1]), float(parts[2])
        except ValueError as exc:
            raise ValueError(f"bad constant preset values in {name!r}") from exc
        if not (0.0 <= cu < np.inf and 0.0 <= cv < np.inf):
            raise ValueError(f"constant preset values must be finite and nonnegative, got {name!r}")
        return _constant(cu, cv)
    raise ValueError(f"unknown initial-condition preset {name!r}; known: {PRESET_NAMES}")
