"""Seeded input generator for the benchmark.

Every input is a FALCON-shaped integer polynomial: coefficients drawn
uniformly from [-127, 127], the range of the small polynomials FALCON
multiplies through this transform.  The same seed gives the same inputs.
The exact negacyclic product is computed here in int64 (|c| <= 127 at
n = 1024 bounds every product coefficient by 1024 * 127^2 < 2^24), so the
golden model is checked against integers it never saw.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

COEF_MAX = 127


class InputGen:
    """Deterministic stream of integer polynomials for one run."""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)

    def poly(self, n: int) -> np.ndarray:
        return self.rng.integers(-COEF_MAX, COEF_MAX + 1, n, dtype=np.int64)

    def pair(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        return self.poly(n), self.poly(n)


def negacyclic_exact(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact product of two int64 polynomials modulo x^n + 1."""
    n = len(a)
    conv = np.convolve(np.asarray(a, dtype=np.int64),
                       np.asarray(b, dtype=np.int64))
    out = conv[:n].copy()
    out[:n - 1] -= conv[n:]
    return out


def write_poly(path: Path, a: np.ndarray) -> Path:
    """Coefficient file in the CLI's format: a JSON array of numbers."""
    path.write_text(json.dumps([int(x) for x in a]))
    return path


def write_spectrum(path: Path, values, order: str) -> Path:
    """Spectrum file in the CLI's format: {"order", "values": [[re, im]]}."""
    path.write_text(json.dumps(
        {"order": order, "values": [[z.real, z.imag] for z in values]}))
    return path
