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

from sliptsim.errors import DomainError, NeverFullError


class EnergyStore:
    """Stored-energy bookkeeping shared by both stores.

    A store has `stored` and `capacity` in joules, its own
    terminal_voltage curve, and copy(), a new store in the same state.
    Each subclass declares its attributes in __slots__.
    """

    __slots__ = ()

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


class Battery(EnergyStore):
    """Ideal battery with a linear SOC-to-voltage curve; capacity and
    stored in J.

    Defaults bracket a single Li-ion cell: 3.0 V empty, 4.2 V full,
    which puts 50% SOC at 3.6 V.
    """

    __slots__ = ("capacity", "stored", "v_empty", "v_full")

    def __init__(self, capacity: float, stored: float = 0.0, v_empty: float = 3.0,
                 v_full: float = 4.2):
        if capacity <= 0:
            raise DomainError("capacity must be > 0")
        if not 0.0 <= stored <= capacity:
            raise DomainError("stored must be within [0, capacity]")
        if v_empty < 0:
            raise DomainError("v_empty must be >= 0")
        if v_empty >= v_full:
            raise DomainError("v_empty must be < v_full")
        self.capacity = capacity
        self.stored = stored
        self.v_empty = v_empty
        self.v_full = v_full

    def copy(self) -> "Battery":
        return Battery(self.capacity, self.stored, self.v_empty, self.v_full)

    def terminal_voltage(self) -> float:
        return self.v_empty + (self.v_full - self.v_empty) * self.soc()


class Supercapacitor(EnergyStore):
    """Ideal supercapacitor (capacitance in F, rated_voltage in V, stored
    in J); capacity is the energy at rated voltage."""

    __slots__ = ("capacitance", "rated_voltage", "stored", "capacity")

    def __init__(self, capacitance: float = 5.0, rated_voltage: float = 5.0,
                 stored: float = 0.0):
        if capacitance <= 0 or rated_voltage <= 0:
            raise DomainError("capacitance and rated_voltage must be > 0")
        self.capacitance = capacitance
        self.rated_voltage = rated_voltage
        self.stored = stored
        self.capacity = 0.5 * capacitance * rated_voltage**2
        if not 0.0 <= stored <= self.capacity:
            raise DomainError("stored must be within [0, 0.5*C*V_rated^2]")

    def copy(self) -> "Supercapacitor":
        return Supercapacitor(self.capacitance, self.rated_voltage, self.stored)

    def terminal_voltage(self) -> float:
        return math.sqrt(2.0 * self.stored / self.capacitance)
