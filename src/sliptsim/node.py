"""Self-powered sensor node: protocol state machine, command codec, loads.

The node sleeps until light hits its solar panel.  It then checks the
store's terminal voltage against the node's v_threshold: below the
threshold it takes sensor measurements, saves them, and goes back to
sleep; at or above it, the panel switches to receiver mode to accept
commands (sensor on/off, send/retransmit saved data), then returns to
harvesting until the store is full, and finally sleeps.

NodeState.step only moves the phase, and light in Sleep runs the voltage
check in the same step.  The engine starts what a phase does (sense
ticks, command frames, the panel switch) when the node enters it.

Command frames are 4 bytes on the wire:

    SYNC(0xAA) | OPCODE | PAYLOAD | CRC8(opcode, payload)

with CRC-8 polynomial 0x07, init 0x00, MSB first.  Payload is a sensor
id for SensorOn/SensorOff and a free byte (conventionally 0) otherwise.
"""

import enum

from sliptsim.energy_store import EnergyStore
from sliptsim.errors import DomainError, FrameError
from sliptsim.harvester import CellMode

SYNC_BYTE = 0xAA
CRC8_POLY = 0x07


class Phase(enum.Enum):
    SLEEP = "sleep"
    SENSE_SAVE = "sense_save"
    COMMAND_RX = "command_rx"
    HARVEST = "harvest"


class Stimulus(enum.Enum):
    LIGHT_DETECTED = "light_detected"
    SENSE_COMPLETE = "sense_complete"
    COMMANDS_COMPLETE = "commands_complete"
    FULL_CHARGE = "full_charge"


class Opcode(enum.Enum):
    SENSOR_ON = 0x01
    SENSOR_OFF = 0x02
    SEND_DATA = 0x03
    RETRANSMIT = 0x04


# Enum members read on every event, here and in the policy and engine
# modules, bound once as globals: reading a member off its class costs a
# descriptor call, about ten times a global name
_SLEEP, _SENSE_SAVE, _COMMAND_RX, _HARVEST = (Phase.SLEEP, Phase.SENSE_SAVE,
                                              Phase.COMMAND_RX, Phase.HARVEST)
_LIGHT_DETECTED, _SENSE_COMPLETE = Stimulus.LIGHT_DETECTED, Stimulus.SENSE_COMPLETE
_COMMANDS_COMPLETE, _FULL_CHARGE = Stimulus.COMMANDS_COMPLETE, Stimulus.FULL_CHARGE
_PV, _PC = CellMode.PHOTOVOLTAIC, CellMode.PHOTOCONDUCTIVE
_SENSOR_ON, _SENSOR_OFF, _SEND_DATA = Opcode.SENSOR_ON, Opcode.SENSOR_OFF, Opcode.SEND_DATA


class Command:
    """One node command; sensor_id doubles as the raw payload byte."""

    __slots__ = ("opcode", "sensor_id")

    def __init__(self, opcode: Opcode, sensor_id: int = 0):
        if not 0 <= sensor_id <= 0xFF:
            raise DomainError("sensor_id must fit in one byte")
        self.opcode = opcode
        self.sensor_id = sensor_id


class SensorRecord:
    """One measurement: timestamp [s], and value in the sensor's physical
    units (degC, NTU, ...)."""

    __slots__ = ("timestamp", "sensor_id", "value")

    def __init__(self, timestamp: float, sensor_id: int, value: float):
        self.timestamp = timestamp
        self.sensor_id = sensor_id
        self.value = value


class LoadProfile:
    """One row of the current-consumption catalog: supply_voltage [V],
    current [A], throughput [bit/s], None if the feature carries no data."""

    def __init__(self, name: str, supply_voltage: float, current: float,
                 throughput: float | None = None):
        self.name = name
        self.supply_voltage = supply_voltage
        self.current = current
        self.throughput = throughput

    @property
    def power(self) -> float:
        return self.supply_voltage * self.current


# Current consumption of a fully awake device by enabled feature set.
# "sleep" (zero draw, wake-up circuit assumed negligible) and
# "laser_uplink" (device-default low-power laser driver) are additions
# for simulation bookkeeping; the others are measured catalog rows.
LOAD_CATALOG: dict[str, LoadProfile] = {
    p.name: p
    for p in [
        LoadProfile("wifi_bluetooth", 3.7, 102e-3, 500e3),
        LoadProfile("iot_clock_10mhz", 3.7, 36e-3, 500e3),
        LoadProfile("soc_mcu_3mhz", 3.7, 11e-3, 115.2e3),
        LoadProfile("video_streaming", 5.0, 110e-3, None),
        LoadProfile("sense_and_save", 3.7, 7e-3, None),
        LoadProfile("video_wifi_bt", 5.0, 236e-3, 500e3),
        LoadProfile("laser_uplink", 3.7, 40e-3, 500e3),
        LoadProfile("sleep", 0.0, 0.0, None),
    ]
}


def load_power(profile_name: str) -> float:
    """Electrical draw [W] of a catalog row; DomainError if unknown."""
    profile = LOAD_CATALOG.get(profile_name)
    if profile is None:
        raise DomainError(f"unknown load profile {profile_name!r} "
                          f"(have: {', '.join(sorted(LOAD_CATALOG))})")
    return profile.power


# -- Command codec -----------------------------------------------------------


def crc8(data: bytes | list[int]) -> int:
    """CRC-8, polynomial 0x07, init 0x00, MSB first, no final XOR."""
    crc = 0
    for byte in data:
        crc ^= byte
        for _ in range(8):
            if crc & 0x80:
                crc = ((crc << 1) ^ CRC8_POLY) & 0xFF
            else:
                crc = (crc << 1) & 0xFF
    return crc


def encode_command(cmd: Command) -> bytes:
    """Serialize a command into its 4-byte frame."""
    body = bytes([cmd.opcode.value, cmd.sensor_id])
    return bytes([SYNC_BYTE]) + body + bytes([crc8(body)])


def decode_command(frame: bytes) -> Command:
    """Parse a 4-byte frame back into a Command.

    Raises FrameError on wrong length, bad sync byte, CRC mismatch, or
    an unknown opcode.
    """
    if len(frame) != 4:
        raise FrameError(f"frame must be 4 bytes, got {len(frame)}")
    if frame[0] != SYNC_BYTE:
        raise FrameError(f"bad sync byte 0x{frame[0]:02X}")
    body = frame[1:3]
    if crc8(body) != frame[3]:
        raise FrameError(
            f"CRC mismatch: received 0x{frame[3]:02X}, computed 0x{crc8(body):02X}"
        )
    try:
        opcode = Opcode(frame[1])
    except ValueError:
        raise FrameError(f"unknown opcode 0x{frame[1]:02X}") from None
    return Command(opcode, frame[2])


# -- Protocol state machine --------------------------------------------------


class NodeState:
    """Protocol state of one node.

    storage is append-only during a run; records leave only through an
    acknowledged data transmission.
    """

    __slots__ = ("phase", "v_threshold", "storage", "enabled_sensors", "last_sent")

    def __init__(self, v_threshold: float, enabled_sensors: set[int]):
        self.phase = Phase.SLEEP
        self.v_threshold = v_threshold
        self.storage: list[SensorRecord] = []
        self.enabled_sensors = enabled_sensors
        self.last_sent: list[SensorRecord] = []

    def step(self, stimulus: Stimulus, store: EnergyStore | None = None) -> bool:
        """Move the phase on one stimulus; False, phase unchanged, if the
        current phase has no transition for it.  LightDetected in Sleep goes
        to CommandRx when the store's terminal voltage >= v_threshold, else
        SenseSave; no other transition reads the store."""
        phase = self.phase
        if stimulus is _LIGHT_DETECTED and phase is _SLEEP:
            if store is None:
                raise DomainError("LightDetected in Sleep requires the store")
            v_b = store.terminal_voltage()
            self.phase = _COMMAND_RX if v_b >= self.v_threshold else _SENSE_SAVE
        elif stimulus is _SENSE_COMPLETE and phase is _SENSE_SAVE:
            self.phase = _SLEEP
        elif stimulus is _COMMANDS_COMPLETE and phase is _COMMAND_RX:
            self.phase = _HARVEST
        elif stimulus is _FULL_CHARGE and phase is _HARVEST:
            self.phase = _SLEEP
        else:
            return False
        return True

    def record_sensor(self, sensor_id: int, value: float, timestamp: float) -> bool:
        """Append one measurement; returns False (no-op) for a disabled sensor."""
        if sensor_id not in self.enabled_sensors:
            return False
        if self.storage and timestamp < self.storage[-1].timestamp:
            raise DomainError("record timestamps must be non-decreasing")
        self.storage.append(SensorRecord(timestamp, sensor_id, value))
        return True

    def execute_command(self, cmd: Command) -> list[SensorRecord]:
        """Apply a decoded command; returns records to transmit, if any.

        SendData hands over the full storage (cleared after the engine
        acknowledges the transmission via ack_transmission); Retransmit
        hands over the last transmitted batch again.
        """
        if cmd.opcode is _SENSOR_ON:
            self.enabled_sensors.add(cmd.sensor_id)
            return []
        if cmd.opcode is _SENSOR_OFF:
            self.enabled_sensors.discard(cmd.sensor_id)
            return []
        if cmd.opcode is _SEND_DATA:
            return list(self.storage)
        return list(self.last_sent)  # RETRANSMIT

    def ack_transmission(self, batch: list[SensorRecord]) -> None:
        """Acknowledge a delivered batch: clear it from storage."""
        self.last_sent = list(batch)
        delivered = set(id(r) for r in batch)
        self.storage = [r for r in self.storage if id(r) not in delivered]
