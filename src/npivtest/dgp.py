"""Simulation designs.

All designs draw jointly normal latents, map regressor and instrument to
(0, 1) through the standard normal CDF, and add correlated noise. `draw`
gives a replication's (x, w, u) from its stream, and `generate` adds h:

  * design I: (X*, W*, U) with corr(X*, W*) = xi (instrument strength) and
    corr(X*, U) = 0.3; Y = h(X) + U with unit-variance noise.
  * design II: W* drives X* through xi; U = (0.3 eps + sqrt(0.91) nu) / 2 has
    variance 1/4.
  * multivariate: two instruments, the second correlated 0.4 with X*.

Structural function families: a smooth strictly decreasing step (mono), the
sine-perturbed quadratic (sin), design II's increasing variant (design2), and
the plain quadratic bump (quad).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import _choice, _instance, _number, _real_floats
from .randdist import CovarianceSpec, RngStream, mvn_sample, std_normal_cdf

__all__ = [
    "HSpec",
    "DesignConfig",
    "Dataset",
    "h_mono",
    "h_sin",
    "h_design2",
    "h_quad",
    "draw",
    "generate",
    "null_boundary",
]

_DESIGNS = ("I", "II", "multivariate")
_H_FAMILIES = ("mono", "sin", "design2", "quad")
_BOUNDARY_FAMILIES = _H_FAMILIES[1:]  # the c_0-free families, whose shape null has a boundary c_A
_BOUNDARY_GRID_POINTS = 20001  # x grid on which null_boundary scans the derivative


def h_mono(c0: float, x):
    """Strictly decreasing slide from c0 to -c0; c0 tunes how step-like it is."""
    c0, x = _number(c0, "c0", 0), _real_floats(x, "x")
    return c0 * (1.0 - 2.0 * std_normal_cdf((x - 0.5) / c0))


def h_sin(c_a: float, c_b: float, x):
    c_a, c_b, x = _number(c_a, "c_a"), _number(c_b, "c_b"), _real_floats(x, "x")
    return -x / 5.0 + c_a * (x**2 + c_b * np.sin(2.0 * np.pi * x))


def h_design2(c_a: float, x):
    c_a, x = _number(c_a, "c_a"), _real_floats(x, "x")
    return x / 5.0 + x**2 + c_a * np.sin(2.0 * np.pi * x)


def h_quad(c_a: float, x):
    c_a, x = _number(c_a, "c_a"), _real_floats(x, "x")
    return -x / 5.0 + c_a * x**2


@dataclass(frozen=True)
class HSpec:
    """Structural function pick: family plus its constants."""

    family: str
    c0: float = 1.0
    c_a: float = 0.0
    c_b: float = 0.0

    def __post_init__(self):
        mono = _choice(self.family, "h family", _H_FAMILIES) == "mono"  # whose c0 tunes a step from c0 to -c0
        object.__setattr__(self, "c0", _number(self.c0, "c0", 0 if mono else None, 1 if mono else None, ends="(]"))
        object.__setattr__(self, "c_a", _number(self.c_a, "c_a"))
        object.__setattr__(self, "c_b", _number(self.c_b, "c_b"))

    def __call__(self, x):
        if self.family == "mono":
            return h_mono(self.c0, x)
        if self.family == "sin":
            return h_sin(self.c_a, self.c_b, x)
        if self.family == "design2":
            return h_design2(self.c_a, x)
        return h_quad(self.c_a, x)


@dataclass(frozen=True)
class DesignConfig:
    """One simulation cell: design, sample size, instrument strength, h, stream."""

    design: str
    n: int
    xi: float
    h_spec: HSpec
    rng: RngStream

    def __post_init__(self):
        _choice(self.design, "design", _DESIGNS)
        object.__setattr__(self, "n", _number(self.n, "n", 1, integer=True))
        object.__setattr__(self, "xi", _number(self.xi, "xi", 0, 1))
        _instance(self.h_spec, HSpec, "h_spec"), _instance(self.rng, RngStream, "rng")


@dataclass(frozen=True)
class Dataset:
    """Generated sample with its provenance."""

    y: np.ndarray
    x: np.ndarray
    w: np.ndarray
    config: DesignConfig = field(repr=False)

    @property
    def n(self) -> int:
        return self.y.shape[0]


def _latent_corr(design: str, xi: float) -> np.ndarray:
    """Correlation of the latents (X*, W*..., U) of design I (one instrument) and the multivariate design (two)."""
    strengths = (xi,) if design == "I" else (xi, 0.4)
    corr = np.eye(len(strengths) + 2)
    corr[0, 1:-1] = corr[1:-1, 0] = strengths
    corr[0, -1] = corr[-1, 0] = 0.3
    return corr


def draw(cfg: DesignConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x, w, u) of one replication, all that the design reads from cfg's stream, so configs that differ only
    in h_spec give the same draw. w is 1-d for one instrument, n x 2 for the multivariate design."""
    if _instance(cfg, DesignConfig, "cfg").design == "II":
        z = cfg.rng.generator().standard_normal((cfg.n, 3))
        w_star, eps, nu = z[:, 0], z[:, 1], z[:, 2]
        x = std_normal_cdf(cfg.xi * w_star + math.sqrt(1.0 - cfg.xi**2) * eps)
        return x, std_normal_cdf(w_star), (0.3 * eps + math.sqrt(1.0 - 0.09) * nu) / 2.0
    latents = mvn_sample(CovarianceSpec(_latent_corr(cfg.design, cfg.xi)), cfg.rng, cfg.n)
    w = std_normal_cdf(latents[:, 1:-1])
    return std_normal_cdf(latents[:, 0]), w[:, 0] if w.shape[1] == 1 else w, latents[:, -1]


def generate(cfg: DesignConfig) -> Dataset:
    """The replication's draw with y = h(x) + u."""
    x, w, u = draw(cfg)
    return Dataset(y=cfg.h_spec(x) + u, x=x, w=w, config=cfg)


def null_boundary(h_family: str, c_b: float = 0.0) -> float:
    """Largest c_A (c_0-free families) keeping the family inside its shape null.

    'sin' with the weakly-decreasing null: c_A* = 0.2 / max_x d/dx (x^2 + c_b sin(2 pi x));
    'design2' with the weakly-increasing null: smallest c_A whose derivative dips below 0;
    'quad' with the linearity null: 0.
    """
    h_family = _choice(h_family, "h family with a null boundary", _BOUNDARY_FAMILIES)
    c_b, xs = _number(c_b, "c_b"), np.linspace(0.0, 1.0, _BOUNDARY_GRID_POINTS)
    if h_family == "sin":
        slope = 2.0 * xs + 2.0 * np.pi * c_b * np.cos(2.0 * np.pi * xs)
        return 0.2 / float(np.max(slope))  # > 0: the slopes 2 + 2 pi c_b at 1 and 1 - 2 pi c_b at 1/2 sum to 3
    if h_family == "design2":
        # h' = 0.2 + 2x + 2 pi c_a cos(2 pi x) >= 0; binding where cos < 0
        base = 0.2 + 2.0 * xs
        trig = 2.0 * np.pi * np.cos(2.0 * np.pi * xs)
        neg = trig < 0  # on (1/4, 3/4)
        return float(np.min(-base[neg] / trig[neg]))
    return 0.0  # quad
