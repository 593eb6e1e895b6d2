"""Dense linear-algebra and deterministic-randomness substrate.

Arrays everywhere in this package are C-contiguous (row-major) numpy
arrays, float64 for all in-memory computation; features are narrowed to
float32 only when written to disk.  Randomness always flows through
:func:`make_rng`, which pins a single named generator (PCG64) so that a
seed produces the same stream on every platform.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "make_rng",
    "derive_seed",
    "l2_normalize",
    "check_finite_rows",
]


def make_rng(seed: int) -> np.random.Generator:
    """Return the package-wide deterministic generator.

    Algorithm is fixed as PCG64 (O'Neill's permuted congruential
    generator, 128-bit state / 64-bit output) and must never change:
    frozen expected values in the test suite depend on its stream.
    Normal variates drawn from it use numpy's ziggurat transform, which
    is likewise a fixed choice.
    """
    return np.random.Generator(np.random.PCG64(seed))


def derive_seed(root_seed: int, stream: int) -> int:
    """Derive an independent child seed from a root seed.

    Pipeline stages each get their own stream index so that a stage can
    be re-run in isolation and still see the stream it saw inside the
    full pipeline run.
    """
    ss = np.random.SeedSequence(entropy=root_seed, spawn_key=(stream,))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def l2_normalize(x: np.ndarray) -> np.ndarray:
    """Scale a vector (or each row of a matrix) to unit Euclidean norm.

    Raises ValueError on a zero vector: a zero feature is degenerate and
    must not silently enter scoring.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        n = np.linalg.norm(x)
        if n == 0.0:
            raise ValueError("cannot normalize a zero vector")
        return x / n
    norms = np.linalg.norm(x, axis=-1, keepdims=True)
    if np.any(norms == 0.0):
        raise ValueError("cannot normalize rows with zero norm")
    return x / norms


def check_finite_rows(x: np.ndarray, what: str) -> None:
    """Raise ValueError naming the first row of the 2-D x that holds a
    NaN or inf: a non-finite value is rejected where it enters."""
    bad = np.flatnonzero(~np.isfinite(x).all(axis=1))
    if bad.size:
        raise ValueError(f"{what} row {bad[0]} holds NaN or inf")
