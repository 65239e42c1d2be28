"""Solar-cell receiver with exclusive harvesting and decoding modes.

The cell is either photovoltaic (sourcing power into an energy store) or
photoconductive (reverse-biased, acting as a photodetector).  A relay
performs the switch; while it settles, the cell does neither.  Decoding
uses a hard sensitivity threshold: at or above it the configured link
rate is delivered error-free, below it the slot is an outage.
"""

import enum

from sliptsim.errors import DomainError

class CellMode(enum.Enum):
    PHOTOVOLTAIC = "photovoltaic"
    PHOTOCONDUCTIVE = "photoconductive"


class SolarCell:
    """One solar cell and its receive-chain parameters.

    conversion_efficiency: optical-to-electrical efficiency in PV mode,
        taken as the max-power-point value (0, 1]
    decode_rate: configured link rate in photoconductive mode [bit/s]
    sensitivity: minimum optical power for error-free decoding [W]
    switch_latency: relay settling time on a mode change [s]
    ready_at: when the relay has settled after the last switch [s]
    """

    __slots__ = ("conversion_efficiency", "decode_rate", "sensitivity", "mode",
                 "switch_latency", "ready_at")

    def __init__(self, conversion_efficiency: float = 0.2, decode_rate: float = 500e3,
                 sensitivity: float = 1e-6, mode: CellMode = CellMode.PHOTOVOLTAIC,
                 switch_latency: float = 5e-3, ready_at: float = 0.0):
        if not 0.0 < conversion_efficiency <= 1.0:
            raise DomainError("conversion_efficiency must be in (0, 1]")
        if switch_latency < 0:
            raise DomainError("switch_latency must be >= 0")
        if decode_rate <= 0:  # a frame lasts 32 bits / decode_rate
            raise DomainError("decode_rate must be > 0")
        if sensitivity <= 0:  # at 0 W, a cell in the dark would decode
            raise DomainError("sensitivity must be > 0")
        self.conversion_efficiency = conversion_efficiency
        self.decode_rate = decode_rate
        self.sensitivity = sensitivity
        self.mode = mode
        self.switch_latency = switch_latency
        self.ready_at = ready_at

    def copy(self) -> "SolarCell":
        """A new cell in the same state, relay included."""
        return SolarCell(self.conversion_efficiency, self.decode_rate, self.sensitivity,
                         self.mode, self.switch_latency, self.ready_at)

    def switch_mode(self, target: CellMode, now: float) -> float:
        """Switch the relay toward `target`; returns when the cell is usable.

        A no-op (same mode) returns `now`.  Otherwise the cell is
        unusable during [now, now + switch_latency).
        """
        if target is self.mode:
            return now
        self.mode = target
        self.ready_at = now + self.switch_latency
        return self.ready_at
