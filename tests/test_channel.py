import math
import sys
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import FixedDraws
from gmac_seit import channel, coder

snrs = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def first_use_energy_rate(cfg, x1, x2):
    """b_hat of a noiseless one-use block with inputs (x1, x2), up to the
    rounding of x_i / sqrt(p_i) * sqrt(p_i): the square of the harvester
    output y2 = h21 x1 + h22 x2.

    Transmitter 1 sends only the energy carrier (beta1 = 0), so
    x1 = sqrt(p1) W_1; transmitter 2 sends only information (beta2 = 1),
    and with rho* = 0 its first input is sqrt(p2) Xi_2 = sqrt(p2) Z_{-2}.
    """
    params = coder.SchemeParams(cfg=cfg, n=1, r1=0.0, r2=0.0,
                                beta1=0.0, beta2=1.0)
    assert params.rho_star() == 0.0
    rng = FixedDraws([x2 / math.sqrt(cfg.p2), 0.0, 0.0, 0.0], np.zeros(4),
                     [x1 / math.sqrt(cfg.p1)])
    batch = coder.simulate_batch(params, coder.coeff_schedule(params),
                                 [(1, 1)], [rng])
    return batch.b_hat[0]


@given(snrs, snrs, snrs, snrs)
@settings(max_examples=200)
def test_from_snr_round_trip(s11, s12, s21, s22):
    cfg = channel.from_snr(s11, s12, s21, s22)
    for got, want in ((cfg.snr11, s11), (cfg.snr12, s12),
                      (cfg.snr21, s21), (cfg.snr22, s22)):
        assert got == pytest.approx(want, rel=1e-12, abs=1e-300)
    assert cfg.h11**2 + cfg.h21**2 <= 1.0 + 1e-12
    assert cfg.h12**2 + cfg.h22**2 <= 1.0 + 1e-12


def test_from_snr_zero_case():
    cfg = channel.from_snr(0, 0, 0, 0)
    assert cfg.p1 == 0.0 and cfg.p2 == 0.0
    assert cfg.snr11 == cfg.snr12 == cfg.snr21 == cfg.snr22 == 0.0


def test_from_snr_mixed_quadruple():
    cfg = channel.from_snr(1, 4, 9, 16)
    assert (cfg.snr11, cfg.snr12, cfg.snr21, cfg.snr22) == \
        pytest.approx((1, 4, 9, 16), rel=1e-12)


@given(finite, finite, st.floats(min_value=-100, max_value=100,
                                 allow_nan=False))
@settings(max_examples=100)
def test_superposition(x1, x2, a):
    # the receiver's y1 has no output of its own; the bitwise replay in
    # test_coder checks it through the inputs of the next use
    cfg = channel.from_snr(3, 5, 7, 2)
    scaled = first_use_energy_rate(cfg, a * x1, a * x2)
    base = first_use_energy_rate(cfg, x1, x2)
    assert scaled == pytest.approx(a * a * base, rel=1e-12, abs=1e-12)


def test_max_energy_rate_values():
    assert channel.max_energy_rate(channel.from_snr(0, 0, 0, 0)) == 1.0
    assert channel.max_energy_rate(channel.from_snr(1, 1, 10, 10)) \
        == pytest.approx(41.0)
    assert channel.max_energy_rate(channel.from_snr(0, 0, 4, 9)) \
        == pytest.approx(26.0)
    # snr21 * snr22 overflows; the rate itself is finite
    cfg = channel.from_snr(1e-12, 1e-12, 1e300, 1e30)
    assert cfg.snr21 * cfg.snr22 == math.inf
    assert channel.max_energy_rate(cfg) == pytest.approx(1e300, rel=1e-12)
    assert channel.max_energy_rate(channel.from_snr(0, 0, 1e200, 1e200)) \
        == pytest.approx(4e200, rel=1e-12)


factor = st.one_of(st.just(0.0),
                   st.floats(min_value=-320.0, max_value=308.0)
                   .map(lambda e: 10.0 ** e))
TINY = 2.0 ** -511  # TINY * TINY is the smallest normal float


@given(factor, factor)
@settings(max_examples=500)
@example(2.0 ** 511, 2.0 ** 512)  # 2**1023, the largest power of 2
@example(2.0 ** 512, 2.0 ** 512)  # 2**1024 overflows
@example(sys.float_info.max, 1.0)
@example(sys.float_info.max, 1.0 + 2.0 ** -52)
@example(TINY, TINY)
@example(TINY, math.nextafter(TINY, 0.0))  # just below the normal range
@example(5e-324, 5e-324)  # underflows to 0
@example(0.0, 1e308)
def test_sqrt_product_contract(a, b):
    got = channel._sqrt_product(a, b)
    prod = a * b
    if sys.float_info.min <= prod < math.inf or 0.0 in (a, b):
        assert got == math.sqrt(prod)
    else:
        with localcontext() as ctx:
            ctx.prec = 50
            want = float((Decimal(a) * Decimal(b)).sqrt())
        assert abs(got - want) <= 2.0 * math.ulp(want)


def test_norm_condition_rejected():
    with pytest.raises(channel.NormConditionError):
        channel.ChannelConfig(h11=0.9, h12=0.1, h21=0.9, h22=0.1,
                              p1=1.0, p2=1.0)
    with pytest.raises(channel.NormConditionError, match="transmitter 2"):
        channel.ChannelConfig(h11=0.1, h12=0.9, h21=0.1, h22=0.9,
                              p1=1.0, p2=1.0)


def test_invalid_fields_rejected():
    with pytest.raises(ValueError, match="h11"):
        channel.ChannelConfig(h11=-1.0, h12=0.5, h21=0.5, h22=0.5,
                              p1=1.0, p2=1.0)
    with pytest.raises(ValueError):
        channel.ChannelConfig(h11=0.5, h12=0.5, h21=0.5, h22=0.5,
                              p1=-1.0, p2=1.0)
    with pytest.raises(ValueError):
        channel.ChannelConfig(h11=0.5, h12=0.5, h21=0.5, h22=0.5,
                              p1=1.0, p2=1.0, noise_correlation=1.5)

