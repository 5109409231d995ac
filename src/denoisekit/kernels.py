"""Robust M-estimator kernels.

Each kernel is a triple of an error norm ``rho``, its derivative (the
influence function) ``psi`` and the per-neighbor weight ``g = psi(x)/x``.
All functions are vectorized over numpy arrays and accept plain floats.

Every kind is one row of ``NORMS``: its ``rho`` and ``g``, and whether its
influence redescends and whether it is undefined at 0. ``KERNEL_KINDS``,
``REDESCENDING_KINDS`` and ``UNDEFINED_AT_ZERO`` are read from the table.
``psi`` is ``x * g``. The L1 and truncated-L1 kernels have no defined
influence/weight at x = 0; those evaluations return NaN, and
``meshfilter._substitute_nan`` is the one fill: it gives them the largest
other weight of the neighbourhood, in the mean and the weighted-median
passes alike.
"""

from __future__ import annotations

import io
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np


def _inverse(x):
    """1/x, NaN at 0: the L1 family's g."""
    return np.where(x > 0, 1.0 / np.where(x > 0, x, 1.0), np.nan)


def _tukey_rho(x, s, b):
    u2 = (x / s) ** 2
    return np.where(x < s, u2 - u2 * u2 + u2 ** 3 / 3.0, 1.0 / 3.0)


def _centin_rho(x, s, b):
    # integral of x' g(x') with the rational tail beyond sigma
    t = (x - s) / s
    tail = 0.5 * s * s + 0.5 * s * s * np.log1p(np.where(x > s, t, 0.0) ** 2) \
        + s * s * np.arctan(np.where(x > s, t, 0.0))
    return np.where(x < s, 0.5 * x * x, tail)


# A row per kernel kind: rho(x, sigma, box_floor) and g(x, sigma, box_floor);
# whether psi redescends (vanishes for large arguments: tukey and
# truncated_l1 reach 0 at sigma, gaussian decays exponentially, and
# lorentzian and centin_rational vanish only like 1/x, 2 sigma^2/x and
# sigma^2/x, so their psi is still about 1-3% of its peak at 100 sigma); and
# whether psi and g are undefined at x = 0. The box's rho is the integral of
# x' g(x') with g = 1 inside sigma and box_floor outside.
Norm = namedtuple("Norm", "rho g redescending undefined_at_zero")
NORMS = {kind: Norm(*row) for kind, row in {
    "l2": (lambda x, s, b: x * x, lambda x, s, b: np.full_like(x, 2.0), False, False),
    "truncated_l2": (lambda x, s, b: np.where(x < math.sqrt(s), x * x, s),
                     lambda x, s, b: np.where(x < math.sqrt(s), 2.0, 0.0), False, False),
    "l1": (lambda x, s, b: np.abs(x), lambda x, s, b: _inverse(x), False, True),
    "truncated_l1": (lambda x, s, b: np.minimum(np.abs(x), s),
                     lambda x, s, b: np.where(x >= s, 0.0, _inverse(x)), True, True),
    "huber": (lambda x, s, b: np.where(x < s, x * x / (2.0 * s) + s / 2.0, np.abs(x)),
              lambda x, s, b: np.where(x < s, 1.0 / s, 1.0 / np.where(x > 0, x, 1.0)),
              False, False),
    "lorentzian": (lambda x, s, b: np.log1p(0.5 * (x / s) ** 2),
                   lambda x, s, b: (1.0 / s ** 2) / (1.0 + 0.5 * (x / s) ** 2), True, False),
    "gaussian": (lambda x, s, b: 1.0 - np.exp(-((x / s) ** 2)),
                 lambda x, s, b: (2.0 / s ** 2) * np.exp(-((x / s) ** 2)), True, False),
    "tukey": (_tukey_rho,
              lambda x, s, b: np.where(x < s, 2.0 / s ** 2 * (1.0 - (x / s) ** 2) ** 2, 0.0),
              True, False),
    "box": (lambda x, s, b: np.where(x <= s, 0.5 * x * x, 0.5 * (b * x * x + (1.0 - b) * s * s)),
            lambda x, s, b: np.where(x <= s, 1.0, b), False, False),
    "centin_rational": (_centin_rho,
                        lambda x, s, b: np.where(x < s, 1.0, s ** 2 / ((s - x) ** 2 + s ** 2)),
                        True, False),
}.items()}
KERNEL_KINDS = tuple(NORMS)
REDESCENDING_KINDS = tuple(kind for kind, norm in NORMS.items() if norm.redescending)
UNDEFINED_AT_ZERO = tuple(kind for kind, norm in NORMS.items() if norm.undefined_at_zero)


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
        if self.kind not in NORMS:
            raise ValueError(f"unknown kernel kind {self.kind!r}; valid: {KERNEL_KINDS}")
        if not (0 < self.sigma < math.inf):
            raise ValueError(f"kernel sigma must be finite and > 0, got {self.sigma}")
        if not (0.0 <= self.box_floor <= 1.0):
            raise ValueError(f"box_floor must be in [0, 1], got {self.box_floor}")
        try:  # a tiny sigma overflows g(0) = 2/sigma^2, or sigma^2 underflows to 0
            with np.errstate(all="ignore"):
                finite = np.isfinite(self.weight([0.0, self.sigma])).all()
        except ZeroDivisionError:
            finite = False
        if not (finite or NORMS[self.kind].undefined_at_zero):
            raise ValueError(f"kernel sigma {self.sigma!r} is too small: its weight is not finite")

    @property
    def differentiable(self) -> bool:
        """True when psi is defined everywhere on [0, inf)."""
        return not NORMS[self.kind].undefined_at_zero

    def rho(self, x):
        """Error norm. Non-decreasing on [0, inf)."""
        return NORMS[self.kind].rho(np.asarray(x, dtype=float), self.sigma, self.box_floor)

    def psi(self, x):
        """Influence function rho'(x) = x g(x). NaN at x = 0 for the L1 family."""
        x = np.asarray(x, dtype=float)
        return x * self.weight(x)

    def weight(self, x):
        """Anisotropic weight g(x) = psi(x)/x, with the analytic limit at 0."""
        return NORMS[self.kind].g(np.asarray(x, dtype=float), self.sigma, self.box_floor)


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
