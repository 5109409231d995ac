"""Robust M-estimator kernels.

Each kernel is a triple of an error norm ``rho``, its derivative (the
influence function) ``psi`` and the per-neighbor weight ``g = psi(x)/x``.
All functions are vectorized over numpy arrays and accept plain floats.

Only ``g`` is written out per kind; ``psi`` is ``x * g``. The L1 and
truncated-L1 kernels have no defined influence/weight at x = 0; those
evaluations return NaN, and ``meshfilter._substitute_nan`` is the one fill:
it gives them the largest other weight of the neighbourhood, in the mean and
the weighted-median passes alike.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

import numpy as np

KERNEL_KINDS = (
    "l2",
    "truncated_l2",
    "l1",
    "truncated_l1",
    "huber",
    "lorentzian",
    "gaussian",
    "tukey",
    "box",
    "centin_rational",
)

# kinds whose influence function vanishes for large arguments: tukey and
# truncated_l1 reach 0 at sigma, gaussian decays exponentially, and
# lorentzian and centin_rational vanish only like 1/x (2 sigma^2/x and
# sigma^2/x), so their psi is still about 1-3% of its peak at 100 sigma
REDESCENDING_KINDS = ("truncated_l1", "lorentzian", "gaussian", "tukey", "centin_rational")

# kinds where psi/g are undefined at x = 0
UNDEFINED_AT_ZERO = ("l1", "truncated_l1")


@dataclass(frozen=True)
class Kernel:
    """An M-estimator kernel: kind tag, scale sigma and (for box) a floor.

    ``box_floor`` is only meaningful for kind "box": neighbors beyond sigma
    keep that fraction of the in-range weight (0.1 for the mesh box filter,
    0.0 for the point-set variant).
    """

    kind: str
    sigma: float = 1.0
    box_floor: float = 0.0

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}; valid: {KERNEL_KINDS}")
        if not (0 < self.sigma < math.inf):
            raise ValueError(f"kernel sigma must be finite and > 0, got {self.sigma}")
        if not (0.0 <= self.box_floor <= 1.0):
            raise ValueError(f"box_floor must be in [0, 1], got {self.box_floor}")

    @property
    def differentiable(self) -> bool:
        """True when psi is defined everywhere on [0, inf)."""
        return self.kind not in UNDEFINED_AT_ZERO

    def rho(self, x):
        """Error norm. Non-decreasing on [0, inf)."""
        return _rho(self, np.asarray(x, dtype=float))

    def psi(self, x):
        """Influence function rho'(x) = x g(x). NaN at x = 0 for the L1 family."""
        x = np.asarray(x, dtype=float)
        return x * self.weight(x)

    def weight(self, x):
        """Anisotropic weight g(x) = psi(x)/x, with the analytic limit at 0."""
        return _weight(self, np.asarray(x, dtype=float))


def _rho(k: Kernel, x):
    s = k.sigma
    if k.kind == "l2":
        return x * x
    if k.kind == "truncated_l2":
        return np.where(x < math.sqrt(s), x * x, s)
    if k.kind == "l1":
        return np.abs(x)
    if k.kind == "truncated_l1":
        return np.minimum(np.abs(x), s)
    if k.kind == "huber":
        return np.where(x < s, x * x / (2.0 * s) + s / 2.0, np.abs(x))
    if k.kind == "lorentzian":
        return np.log1p(0.5 * (x / s) ** 2)
    if k.kind == "gaussian":
        return 1.0 - np.exp(-((x / s) ** 2))
    if k.kind == "tukey":
        u2 = (x / s) ** 2
        return np.where(x < s, u2 - u2 * u2 + u2 ** 3 / 3.0, 1.0 / 3.0)
    if k.kind == "box":
        # integral of x' g(x') with g = 1 inside, box_floor outside
        b = k.box_floor
        inside = 0.5 * x * x
        outside = 0.5 * (b * x * x + (1.0 - b) * s * s)
        return np.where(x <= s, inside, outside)
    if k.kind == "centin_rational":
        # integral of x' g(x') with the rational tail beyond sigma
        t = (x - s) / s
        tail = 0.5 * s * s + 0.5 * s * s * np.log1p(np.where(x > s, t, 0.0) ** 2) \
            + s * s * np.arctan(np.where(x > s, t, 0.0))
        return np.where(x < s, 0.5 * x * x, tail)
    raise AssertionError(k.kind)


def _weight(k: Kernel, x):
    s = k.sigma
    if k.kind == "l2":
        return np.full_like(x, 2.0)
    if k.kind == "truncated_l2":
        return np.where(x < math.sqrt(s), 2.0, 0.0)
    if k.kind == "l1":
        with np.errstate(divide="ignore"):
            return np.where(x > 0, 1.0 / np.where(x > 0, x, 1.0), np.nan)
    if k.kind == "truncated_l1":
        inv = np.where(x > 0, 1.0 / np.where(x > 0, x, 1.0), np.nan)
        return np.where(x >= s, 0.0, inv)
    if k.kind == "huber":
        return np.where(x < s, 1.0 / s, 1.0 / np.where(x > 0, x, 1.0))
    if k.kind == "lorentzian":
        return (1.0 / s ** 2) / (1.0 + 0.5 * (x / s) ** 2)
    if k.kind == "gaussian":
        return (2.0 / s ** 2) * np.exp(-((x / s) ** 2))
    if k.kind == "tukey":
        w = (1.0 - (x / s) ** 2) ** 2
        return np.where(x < s, 2.0 / s ** 2 * w, 0.0)
    if k.kind == "box":
        return np.where(x <= s, 1.0, k.box_floor)
    if k.kind == "centin_rational":
        return np.where(x < s, 1.0, s ** 2 / ((s - x) ** 2 + s ** 2))
    raise AssertionError(k.kind)


@dataclass
class KernelSample:
    """One row of a sampled kernel curve; NaN marks undefined-at-zero."""

    x: float
    rho: float
    psi: float
    g: float


def sample_table(kernel: Kernel, x_max: float, n: int) -> list[KernelSample]:
    """Sample rho/psi/g on n equally spaced points of [0, x_max]."""
    if n < 2:
        raise ValueError("need at least 2 samples")
    if not (0 < x_max < math.inf):
        raise ValueError(f"x_max must be finite and > 0, got {x_max}")
    xs = np.linspace(0.0, x_max, n)
    rho = kernel.rho(xs)
    psi = kernel.psi(xs)
    g = kernel.weight(xs)
    return [KernelSample(float(x), float(r), float(p), float(w))
            for x, r, p, w in zip(xs, rho, psi, g)]


def samples_to_csv(samples: list[KernelSample]) -> str:
    """Serialize sampled rows; undefined entries become the token ``nan``."""
    buf = io.StringIO()
    buf.write("x,rho,psi,g\n")
    for s in samples:
        buf.write(f"{s.x:.12g},{s.rho:.12g},{s.psi:.12g},{s.g:.12g}\n")
    return buf.getvalue()
