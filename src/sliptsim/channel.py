"""Underwater optical channel: attenuation, beam divergence, turbulence.

Received power is modeled as a product of three factors applied to the
transmit power:

    P_R = P_t * capture(geometry) * exp(-alpha * z) * fade

where alpha [1/m] is the total attenuation coefficient (absorption plus
scattering), capture is the fraction of the diverged beam disc falling
on the receiver aperture, and fade is a unit-mean log-normal turbulence
coefficient (exactly 1 when the scintillation index is zero).

All functions are pure; callers own the random stream passed to
sample_fading, so concurrent evaluation is safe as long as each worker
uses its own stream.  A stream is a random.Random, whose random()
sequence CPython keeps for a given seed from one version to the next.
"""

import math
import random

from sliptsim.errors import DomainError, GeometryError

# Literature-typical attenuation presets, per meter at blue-green
# wavelengths.  These are conventional textbook values for water types,
# not measurements tied to any specific experiment.
WATER_PRESETS: dict[str, tuple[float, float]] = {
    # name: (absorption 1/m, scattering 1/m)
    "pure_sea": (0.053, 0.003),
    "clear_ocean": (0.114, 0.037),
    "coastal": (0.179, 0.220),
    "turbid_harbor": (0.295, 1.875),
}


class WaterProperties:
    """Absorption/scattering coefficients of a water column, per meter."""

    def __init__(self, absorption_coeff: float, scattering_coeff: float):
        if absorption_coeff < 0 or scattering_coeff < 0:
            raise DomainError("absorption and scattering coefficients must be >= 0")
        self.absorption_coeff = absorption_coeff
        self.scattering_coeff = scattering_coeff
        self.total_attenuation = absorption_coeff + scattering_coeff

    @classmethod
    def preset(cls, name: str) -> "WaterProperties":
        try:
            absorption, scattering = WATER_PRESETS[name]
        except KeyError:
            raise DomainError(
                f"unknown water preset {name!r} (have: {', '.join(sorted(WATER_PRESETS))})"
            ) from None
        return cls(absorption, scattering)


class BeamGeometry:
    """Beam and receiver geometry for one line-of-sight link.

    initial_radius: beam radius at the transmitter exit [m]
    half_angle_divergence: half-angle of the cone the beam spreads into [rad]
    receiver_aperture_radius: radius of the collecting area [m]
    distance: propagation length through the water [m]
    """

    __slots__ = ("initial_radius", "half_angle_divergence", "receiver_aperture_radius",
                 "distance")

    def __init__(self, initial_radius: float, half_angle_divergence: float,
                 receiver_aperture_radius: float, distance: float):
        self.initial_radius = initial_radius
        self.half_angle_divergence = half_angle_divergence
        self.receiver_aperture_radius = receiver_aperture_radius
        self.distance = distance
        for name in ("initial_radius", "half_angle_divergence", "receiver_aperture_radius",
                     "distance"):
            if getattr(self, name) < 0:
                raise DomainError(f"{name} must be >= 0")
        if half_angle_divergence >= math.pi / 2:  # tan would be negative or infinite
            raise DomainError("half_angle_divergence must be < 90 deg")

    def radius_at_receiver(self, distance: float | None = None) -> float:
        """Beam radius after diverging over the link distance, or `distance` [m]."""
        if distance is None:
            distance = self.distance
        return self.initial_radius + distance * math.tan(self.half_angle_divergence)


class TurbulenceModel:
    """Unit-mean log-normal fading parameterized by the scintillation index.

    scintillation_index is the normalized variance of received-intensity
    fluctuations (sigma^2).  Zero means a calm channel: the fading
    coefficient is the constant 1.  rng_stream_id names the deterministic
    random stream the engine derives for this link from the master seed.
    log_mean and log_sigma are the mean and standard deviation of the
    fade's logarithm, -ln(1 + sigma^2)/2 and sqrt(ln(1 + sigma^2)), worked
    out once here rather than on every draw.
    """

    def __init__(self, scintillation_index: float = 0.0, rng_stream_id: str = ""):
        if scintillation_index < 0:
            raise DomainError("scintillation_index must be >= 0")
        self.scintillation_index = scintillation_index
        self.rng_stream_id = rng_stream_id
        log_var = math.log1p(scintillation_index)
        self.log_mean, self.log_sigma = -log_var / 2.0, math.sqrt(log_var)


class LinkParams:
    """Everything needed to evaluate one optical path; wavelength [nm]
    only feeds the check that a dual pair's beams differ in wavelength."""

    __slots__ = ("tx_power", "wavelength", "water", "geometry", "turbulence")

    def __init__(self, tx_power: float, wavelength: float, water: WaterProperties,
                 geometry: BeamGeometry, turbulence: TurbulenceModel = TurbulenceModel()):
        if tx_power < 0:
            raise DomainError("tx_power must be >= 0")
        self.tx_power = tx_power
        self.wavelength = wavelength
        self.water = water
        self.geometry = geometry
        self.turbulence = turbulence


def attenuate(intensity_in: float, alpha: float, distance: float) -> float:
    """Exponential decay of intensity over a propagation distance.

    Returns intensity_in * exp(-alpha * distance).  Monotone
    non-increasing in both alpha and distance.
    """
    if intensity_in < 0:
        raise DomainError("intensity_in must be >= 0")
    if alpha < 0:
        raise DomainError("alpha must be >= 0")
    if distance < 0:
        raise DomainError("distance must be >= 0")
    return intensity_in * math.exp(-alpha * distance)


def geometric_capture(geometry: BeamGeometry, distance: float | None = None) -> float:
    """Fraction of beam power collected by the receiver aperture at the
    geometry's distance, or at `distance` when given.

    The beam is modeled as a uniform (top-hat) disc of radius
    w(z) = w0 + z*tan(theta); the captured fraction is the aperture/beam
    area ratio, clipped at 1 when the aperture covers the whole disc.
    """
    w = geometry.radius_at_receiver(distance)
    if w == 0.0:
        raise GeometryError("zero-width beam: its radius at the receiver is zero")
    ratio = geometry.receiver_aperture_radius / w
    return min(1.0, ratio * ratio)


def sample_fading(model: TurbulenceModel, rng: random.Random) -> float:
    """Draw one turbulence fading coefficient from the model.

    Samples are log-normal with unit mean and log-variance
    ln(1 + sigma^2), so the sample variance equals the scintillation
    index.  sigma^2 = 0 returns exactly 1.0 without consuming randomness.

    The normal deviate is the Box-Muller cosine branch of two uniforms
    u1 then u2, each one rng.random() call, and the fade is
    exp(mu + (sigma * sqrt(-2 ln(1 - u1))) * cos(2 pi u2)) in exactly that
    order of operations.  1 - u1 lies in (0, 1], so the logarithm is
    finite.  random.gauss and random.lognormvariate are not used: their
    algorithms carry no promise to stay the same across Python versions.
    """
    if model.scintillation_index == 0.0:
        return 1.0
    u1 = rng.random()
    u2 = rng.random()
    radius = math.sqrt(-2.0 * math.log(1.0 - u1))
    return math.exp(model.log_mean + model.log_sigma * radius * math.cos(math.tau * u2))
