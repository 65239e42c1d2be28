import math
import random
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sliptsim.channel import (
    WATER_PRESETS,
    BeamGeometry,
    LinkParams,
    TurbulenceModel,
    WaterProperties,
    attenuate,
    geometric_capture,
    sample_fading,
)
from sliptsim.energy_store import Battery
from sliptsim.engine import Simulation, rng_stream
from sliptsim.errors import DomainError, GeometryError
from sliptsim.harvester import SolarCell
from sliptsim.policy import NodeProtocol
from sliptsim.scenario import NodeDef, Scenario, TransmitterDef

# Frozen against a 50-digit arbitrary-precision evaluation of I*exp(-a*z).
ATTENUATE_ORACLE = [
    # (intensity, alpha, z, expected)
    (1.0, 1.0, 1.0, 0.36787944117144233),
    (2.0, 0.5, 2.0, 0.7357588823428847),
    (1.0, 0.151, 1.5, 0.7973193423129871),
    (1.0, 0.0, 123.0, 1.0),
    (0.0, 2.0, 3.0, 0.0),
]


@pytest.mark.parametrize("intensity,alpha,z,expected", ATTENUATE_ORACLE)
def test_attenuate_oracle(intensity, alpha, z, expected):
    assert attenuate(intensity, alpha, z) == pytest.approx(expected, rel=1e-15)


def test_attenuate_rejects_negative_inputs():
    for bad in [(-1, 1, 1), (1, -1, 1), (1, 1, -1)]:
        with pytest.raises(DomainError):
            attenuate(*bad)


@given(
    st.floats(0.001, 100.0),
    st.floats(0.0, 3.0),
    st.floats(0.0, 50.0),
    st.floats(0.0, 50.0),
)
def test_attenuate_semigroup(intensity, alpha, z1, z2):
    whole = attenuate(intensity, alpha, z1 + z2)
    split = attenuate(attenuate(intensity, alpha, z1), alpha, z2)
    assert whole == pytest.approx(split, rel=1e-12)


@given(st.floats(0.001, 100.0), st.floats(0.0, 3.0), st.floats(0.0, 10.0), st.floats(0.0, 10.0))
def test_attenuate_monotone_in_distance(intensity, alpha, z, dz):
    assert attenuate(intensity, alpha, z + dz) <= attenuate(intensity, alpha, z) + 1e-18


def test_water_presets_total_attenuation():
    for name, (a, b) in WATER_PRESETS.items():
        w = WaterProperties.preset(name)
        assert w.total_attenuation == a + b
    assert WaterProperties.preset("clear_ocean").total_attenuation == pytest.approx(0.151)


def test_water_preset_unknown():
    with pytest.raises(DomainError):
        WaterProperties.preset("lemonade")


def test_capture_aperture_smaller_than_beam():
    # w = 1mm + 1m * tan(1mrad) ~ 2mm; half-radius aperture -> ~1/4 capture
    g = BeamGeometry(1e-3, 1e-3, 1e-3, 1.0)
    w = g.radius_at_receiver()
    assert geometric_capture(g) == pytest.approx((1e-3 / w) ** 2, rel=1e-15)


def test_capture_clips_at_one():
    g = BeamGeometry(1e-3, 0.0, 50e-3, 1.0)
    assert geometric_capture(g) == 1.0


def test_capture_zero_width_beam():
    with pytest.raises(GeometryError):
        geometric_capture(BeamGeometry(0.0, 0.0, 1e-3, 1.0))


@given(
    st.floats(1e-6, 0.1),
    st.floats(0.0, 0.8),
    st.floats(0.0, 0.5),
    st.floats(0.0, 100.0),
)
def test_capture_is_a_fraction(w0, theta, r_rx, z):
    capture = geometric_capture(BeamGeometry(w0, theta, r_rx, z))
    assert 0.0 <= capture <= 1.0


@settings(max_examples=300)
@given(
    st.floats(0.0, 0.1),
    st.floats(0.0, math.pi / 2, exclude_max=True),
    st.floats(0.0, 0.5),
    st.floats(0.0, 100.0),
    st.floats(0.0, 100.0),
)
def test_capture_at_a_distance_equals_capture_of_the_moved_geometry(w0, theta, r_rx, z, d):
    # the engine evaluates a link at its own distance without building a
    # geometry for it: the capture must be the same float
    def capture(*args):
        try:
            return geometric_capture(*args)
        except GeometryError:  # a zero-width beam, refused either way
            return "zero-width"

    g = BeamGeometry(w0, theta, r_rx, z)
    moved = BeamGeometry(w0, theta, r_rx, d)
    assert g.radius_at_receiver(d) == moved.radius_at_receiver()
    assert capture(g, d) == capture(moved)
    assert capture(g, z) == capture(g)


def test_fading_calm_channel_is_exactly_one():
    rng = random.Random(0)
    state = rng.getstate()
    assert sample_fading(TurbulenceModel(0.0), rng) == 1.0
    # no randomness may be consumed on the calm path
    assert rng.getstate() == state


def test_fading_samples_positive_and_seeded():
    rng1 = random.Random(7)
    rng2 = random.Random(7)
    model = TurbulenceModel(0.25)
    a = [sample_fading(model, rng1) for _ in range(100)]
    b = [sample_fading(model, rng2) for _ in range(100)]
    assert a == b
    assert all(x > 0 for x in a)
    assert len(set(a)) > 90  # essentially all distinct


def test_fading_stream_is_pinned():
    # the seed formula, Random.random() and the draw formula together: a
    # change to any of them moves these floats, not only the golden traces
    rng = rng_stream(42, "fading:tx0:n0")
    model = TurbulenceModel(0.25)
    fades = [sample_fading(model, rng) for _ in range(3)]
    assert all(type(x) is float for x in fades)  # a float subclass would reach the trace
    assert [repr(x) for x in fades] == [
        "0.7332451210552906", "1.1354535819296696", "0.6337613067732488"]


@pytest.mark.parametrize("sigma2", [0.01, 0.25, 1.0])
@pytest.mark.parametrize("k", [1, 2, 3, 1023, 1024, 1025])
def test_fading_block_equals_scalar_draws(k, sigma2):
    # a run of k fades drawn back to back takes exactly 2k uniforms from the
    # stream, u1 then u2 for each fade, through the documented formula
    model = TurbulenceModel(sigma2)
    rng = random.Random(11)
    block = [sample_fading(model, rng) for _ in range(k)]
    uniforms = random.Random(11)
    expected = []
    for _ in range(k):
        u1 = uniforms.random()
        u2 = uniforms.random()
        radius = math.sqrt(-2.0 * math.log(1.0 - u1))
        expected.append(math.exp(model.log_mean
                                 + model.log_sigma * radius * math.cos(math.tau * u2)))
    assert block == expected
    assert rng.getstate() == uniforms.getstate()
    assert all(type(x) is float for x in block)


def test_fading_calm_block_is_ones_without_drawing():
    rng = rng_stream(42, "fading:tx0:n0")
    state = rng.getstate()
    assert [sample_fading(TurbulenceModel(0.0), rng) for _ in range(3)] == [1.0, 1.0, 1.0]
    assert rng.getstate() == state


@settings(max_examples=25, deadline=None)
@given(st.floats(0.01, 2.0))
def test_fading_unit_mean(sigma2):
    n = 20_000
    rng = random.Random(42)
    model = TurbulenceModel(sigma2)
    xs = [sample_fading(model, rng) for _ in range(n)]
    # unit-mean construction: log-variance ln(1+sigma2), mean -logvar/2
    assert statistics.fmean(xs) == pytest.approx(1.0, abs=6 * math.sqrt(sigma2 / n) + 0.02)
    # the variance is sigma2, within 6 standard errors of a sample variance:
    # sqrt((m4 - sigma2^2) / n), m4 = E[(X - 1)^4] = w^6 - 4w^3 + 6w - 3
    # for a unit-mean log-normal X with w = 1 + sigma2
    w = 1.0 + sigma2
    m4 = w ** 6 - 4 * w ** 3 + 6 * w - 3
    tolerance = 6 * math.sqrt((m4 - sigma2 * sigma2) / n)
    assert statistics.pvariance(xs, mu=1.0) == pytest.approx(sigma2, abs=tolerance)


def _received_power(link: LinkParams) -> float:
    """The fade-free power of the link the engine builds for `link`."""
    node = NodeDef("n0", SolarCell(), Battery(capacity=1.0), NodeProtocol(), v_threshold=3.6,
                   enabled_sensors=set(), active_load="sense_and_save", sleep_load="sleep",
                   sense_seconds_per_sensor=2.0, sensor_values={}, uplink_rate=500e3,
                   uplink_load="laser_uplink", record_bits=128, data_demand=False,
                   commands=[])
    tx = TransmitterDef("tx0", link, on_time=0.0, off_time=None, targets=None,
                        dual_data=None, distances={})
    sc = Scenario(1.0, 1, [tx], [node], stimuli=[], scenario_hash="")
    [built] = Simulation(sc).nodes["n0"].links
    return built.base_power


def test_received_power_composes_factors():
    water = WaterProperties.preset("clear_ocean")
    g = BeamGeometry(2e-3, 1e-3, 35e-3, 1.5)
    link = LinkParams(tx_power=1.0, wavelength=430.0, water=water, geometry=g)
    # calm channel, full capture: P_R = exp(-alpha * z) exactly
    assert _received_power(link) == pytest.approx(0.7973193423129871, rel=1e-15)


def test_received_power_identity_in_vacuum_like_limit():
    water = WaterProperties(0.0, 0.0)
    g = BeamGeometry(1e-3, 0.0, 1.0, 5.0)
    link = LinkParams(tx_power=3.25, wavelength=450.0, water=water, geometry=g)
    assert _received_power(link) == 3.25


def test_turbulence_model_rejects_negative_index():
    with pytest.raises(DomainError):
        TurbulenceModel(-0.1)


def test_divergence_of_90_degrees_or_more_refused():
    # tan is negative past 90 deg, so the beam radius would shrink below zero
    for theta in (math.pi / 2, 2.0):
        with pytest.raises(DomainError, match="< 90 deg"):
            BeamGeometry(1e-3, theta, 1e-3, 1.0)
    widest = BeamGeometry(0.0, math.nextafter(math.pi / 2, 0.0), 1e-3, 1.0)
    assert widest.radius_at_receiver() > 0
