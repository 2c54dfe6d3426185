"""Selmer-group bookkeeping and the ramified-line probability model.

The deformation-theoretic side of the census reduces to two small
computations.  First, the global difference of Selmer ranks is a sum of
local terms (dim N_v - dim H0(G_v, Ad0)); the constants for the places
that actually occur are tabulated here, and the balanced configurations
sum to zero.  Second, level raising at an auxiliary prime v is
controlled by which of the p ramified lines of P(F_p^2) a Frobenius
cocycle lands on, with exactly one distinguished line N_v blocking it;
uniform draws over the lines give the (p-1)/p heuristic that the census
densities are tested against.

All simulation randomness is numpy Philox (4x64, counter based), keyed
as [seed, stream] per fixed-size chunk, so results are reproducible
across platforms and independent of how chunks are split over workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import sqrt

import numpy as np

from .arith import is_prime

CHUNK = 1 << 16


@dataclass(frozen=True)
class LocalDatum:
    """Local contribution at one place: dim N_v and dim H0(G_v, Ad0)."""

    place: str
    dim_N: int
    dim_H0: int

    def __post_init__(self):
        if self.dim_N < 0 or self.dim_H0 < 0:
            raise ValueError("local dimensions are nonnegative")


# The recurring places.  at3 is the wild place with its 4-dimensional
# nearly-ordinary condition; atinf contributes nothing to N but all of
# H0; the conductor place and every auxiliary prime are balanced (1,1).
_PRESETS = {
    "at3": (4, 1),
    "atinf": (0, 3),
    "atell": (1, 1),
    "auxC3": (1, 1),
}


def local_dims_preset(kind: str, p: int = None) -> LocalDatum:
    if kind in _PRESETS:
        dim_n, dim_h0 = _PRESETS[kind]
        return LocalDatum(kind, dim_n, dim_h0)
    if kind == "nice":
        if p is None or not is_prime(p) or p < 3:
            raise ValueError("a nice place needs an odd prime p")
        return LocalDatum(f"nice({p})", 1, 1)
    raise ValueError(f"unknown place kind {kind!r}")


def wiles_difference(h0: int, h0_dual: int, locals_: list) -> int:
    """h0 - h0_dual + sum of (dim_N - dim_H0) over the local data."""
    return h0 - h0_dual + sum(d.dim_N - d.dim_H0 for d in locals_)


def balanced_preset() -> list:
    """The base configuration over {3, infinity, ell}; sums to zero."""
    return [local_dims_preset("at3"), local_dims_preset("atinf"), local_dims_preset("atell")]


# ---------------------------------------------------------------------------
# The line model.


@dataclass(frozen=True)
class LineModel:
    """Uniform draws over the p ramified lines of P(F_p^2).

    The projective line over F_p has (p^2 - 1)/(p - 1) = p + 1 points;
    removing the unramified line (0:1) leaves p ramified ones, of which
    the single distinguished line (1:0) blocks level raising.
    """

    p: int

    def __post_init__(self):
        if not is_prime(self.p) or self.p < 3:
            raise ValueError("the line model needs an odd prime p")

    @property
    def lines(self) -> int:
        return self.p

    def success_probability(self) -> Fraction:
        return Fraction(self.p - 1, self.p)


def _chunk_streams(trials: int, seed: int, stream_base: int):
    """Fixed-size chunks with per-chunk Philox keys.

    Chunk boundaries depend only on CHUNK, never on worker count, so
    any partition of the chunk list merges to the same totals.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    pos = 0
    idx = 0
    while pos < trials:
        size = min(CHUNK, trials - pos)
        yield np.random.Generator(np.random.Philox(key=[seed, stream_base + idx])), size
        pos += size
        idx += 1


def simulate_line_model(p: int, trials: int, seed: int = 0):
    """Monte Carlo estimate of the level-raising probability.

    Returns (estimate, (lo, hi)) where the interval is the 95% normal
    approximation to the binomial CI.  Exact target: (p-1)/p.
    """
    model = LineModel(p)
    successes = 0
    for rng, size in _chunk_streams(trials, seed, 0):
        draws = rng.integers(0, model.lines, size=size)
        successes += int(np.count_nonzero(draws))  # line 0 is (1:0)
    est = successes / trials
    half = 1.96 * sqrt(max(est * (1 - est), 1e-12) / trials)
    return est, (est - half, est + half)


def simulate_unramified_probability(n_levels: int, trials: int, seed: int = 0):
    """Frequency of y = 0 for y uniform on Z/3^n, per level n = 1..n_levels.

    Each level draws its own trials; the n-th frequency estimates 3^-n.
    """
    if n_levels < 1:
        raise ValueError("need at least one level")
    freqs = []
    for n in range(1, n_levels + 1):
        modulus = 3**n
        zeros = 0
        # disjoint stream ranges per level keep the draws independent
        for rng, size in _chunk_streams(trials, seed, n << 32):
            draws = rng.integers(0, modulus, size=size)
            zeros += int(size - np.count_nonzero(draws))
        freqs.append(zeros / trials)
    return freqs
