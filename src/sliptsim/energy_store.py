"""Battery and supercapacitor energy stores.

Both stores track stored energy in joules and integrate a signed net
power over time, clamping at empty and at capacity.  Charging is
constant-power into an ideal store: no taper, no RC dynamics, so
time-to-full is exact closed-form arithmetic.

The battery maps state of charge to terminal voltage linearly between
v_empty and v_full; the supercapacitor terminal voltage follows
V = sqrt(2E/C).
"""

import math
from dataclasses import dataclass, field

from sliptsim.errors import DomainError, NeverFullError


class EnergyStore:
    """Stored-energy bookkeeping shared by both stores.

    A store has `stored` and `capacity` in joules and its own
    terminal_voltage curve.
    """

    stored: float
    capacity: float

    def soc(self) -> float:
        return self.stored / self.capacity

    def deposit(self, energy: float) -> float:
        """Add signed energy [J], clamping at empty/full; returns the
        energy actually absorbed (positive) or drained (negative)."""
        before = self.stored
        self.stored = min(self.capacity, max(0.0, before + energy))
        return self.stored - before

    def time_to_full(self, net_power: float) -> float:
        """Seconds until full under constant net charging power."""
        if net_power <= 0:
            raise NeverFullError("net power must be > 0 to reach full charge")
        return (self.capacity - self.stored) / net_power


@dataclass
class Battery(EnergyStore):
    """Ideal battery with a linear SOC-to-voltage curve.

    Defaults bracket a single Li-ion cell: 3.0 V empty, 4.2 V full,
    which puts 50% SOC at 3.6 V.
    """

    capacity: float  # J
    stored: float = 0.0  # J
    v_empty: float = 3.0
    v_full: float = 4.2

    def __post_init__(self):
        if self.capacity <= 0:
            raise DomainError("capacity must be > 0")
        if not 0.0 <= self.stored <= self.capacity:
            raise DomainError("stored must be within [0, capacity]")
        if self.v_empty >= self.v_full:
            raise DomainError("v_empty must be < v_full")

    def terminal_voltage(self) -> float:
        return self.v_empty + (self.v_full - self.v_empty) * self.soc()


@dataclass
class Supercapacitor(EnergyStore):
    """Ideal supercapacitor; capacity is the energy at rated voltage."""

    capacitance: float = 5.0  # F
    rated_voltage: float = 5.0  # V
    stored: float = 0.0  # J
    capacity: float = field(init=False)

    def __post_init__(self):
        if self.capacitance <= 0 or self.rated_voltage <= 0:
            raise DomainError("capacitance and rated_voltage must be > 0")
        self.capacity = 0.5 * self.capacitance * self.rated_voltage**2
        if not 0.0 <= self.stored <= self.capacity:
            raise DomainError("stored must be within [0, 0.5*C*V_rated^2]")

    def terminal_voltage(self) -> float:
        return math.sqrt(2.0 * self.stored / self.capacitance)
