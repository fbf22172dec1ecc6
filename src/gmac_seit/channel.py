"""Two-user Gaussian MAC with an energy harvester: the channel model.

The receiver sees  y1 = h11*x1 + h12*x2 + z   and the harvester sees
y2 = h21*x1 + h22*x2 + q,  with z, q unit-variance noises.  Each
transmitter's gain vector obeys the energy-conservation norm condition
h1i^2 + h2i^2 <= 1.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

_NORM_TOL = 1e-12


class NormConditionError(ValueError):
    """Gain pair of one transmitter exceeds the unit-norm energy budget."""


@dataclass(frozen=True)
class ChannelConfig:
    """Immutable description of one channel instance.

    Gains h_ji couple transmitter i to receiver j (j=1: info receiver,
    j=2: energy harvester); p1, p2 are average power budgets per channel
    use.  noise_correlation is corr(Z_t, Q_t); all closed forms here
    depend only on the marginals, so it defaults to 0.
    """

    h11: float
    h12: float
    h21: float
    h22: float
    p1: float
    p2: float
    noise_correlation: float = 0.0

    def __post_init__(self):
        for name in ("h11", "h12", "h21", "h22"):
            if getattr(self, name) < 0 or not math.isfinite(getattr(self, name)):
                raise ValueError(f"gain {name} must be finite and >= 0")
        if self.h11**2 + self.h21**2 > 1.0 + _NORM_TOL:
            raise NormConditionError("transmitter 1 gains violate h11^2 + h21^2 <= 1")
        if self.h12**2 + self.h22**2 > 1.0 + _NORM_TOL:
            raise NormConditionError("transmitter 2 gains violate h12^2 + h22^2 <= 1")
        if self.p1 < 0 or self.p2 < 0:
            raise ValueError("power budgets must be nonnegative")
        if not -1.0 <= self.noise_correlation <= 1.0:
            raise ValueError("noise_correlation must lie in [-1, 1]")

    # SNR_ji = h_ji^2 * P_i
    @property
    def snr11(self) -> float:
        return self.h11**2 * self.p1

    @property
    def snr12(self) -> float:
        return self.h12**2 * self.p2

    @property
    def snr21(self) -> float:
        return self.h21**2 * self.p1

    @property
    def snr22(self) -> float:
        return self.h22**2 * self.p2

    def power(self, i: int) -> float:
        return self.p1 if i == 1 else self.p2


def from_snr(snr11: float, snr12: float, snr21: float, snr22: float,
             noise_correlation: float = 0.0) -> ChannelConfig:
    """Build a config realizing the given SNR quadruple.

    The (gain, power) split is underdetermined; we saturate each
    transmitter's norm budget (h1i^2 + h2i^2 = 1 when transmitter i has
    any positive SNR), which forces p_i = snr_1i + snr_2i.
    """
    for s in (snr11, snr12, snr21, snr22):
        if s < 0 or not math.isfinite(s):
            raise ValueError("SNRs must be finite and nonnegative")
    p1 = snr11 + snr21
    p2 = snr12 + snr22
    h11 = math.sqrt(snr11 / p1) if p1 > 0 else 0.0
    h21 = math.sqrt(snr21 / p1) if p1 > 0 else 0.0
    h12 = math.sqrt(snr12 / p2) if p2 > 0 else 0.0
    h22 = math.sqrt(snr22 / p2) if p2 > 0 else 0.0
    return ChannelConfig(h11=h11, h12=h12, h21=h21, h22=h22, p1=p1, p2=p2,
                         noise_correlation=noise_correlation)


def _sqrt_product(a: float, b: float) -> float:
    """sqrt(a * b), as sqrt(a) * sqrt(b) where a * b overflows, or underflows
    while both factors are positive, as the geometric mean does not."""
    prod = a * b
    if math.isinf(prod) or (prod < sys.float_info.min
                            and a > 0.0 and b > 0.0):
        return math.sqrt(a) * math.sqrt(b)
    return math.sqrt(prod)


def max_energy_rate(cfg: ChannelConfig) -> float:
    """Largest feasible average energy rate: fully correlated max-power inputs."""
    s21, s22 = cfg.snr21, cfg.snr22
    return 1.0 + s21 + s22 + 2.0 * _sqrt_product(s21, s22)
