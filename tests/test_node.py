import pytest
from hypothesis import given
from hypothesis import strategies as st

from sliptsim.errors import DomainError, FrameError
from sliptsim.node import (
    LOAD_CATALOG,
    SYNC_BYTE,
    Command,
    NodeState,
    Opcode,
    Phase,
    Stimulus,
    crc8,
    decode_command,
    encode_command,
    load_power,
)

# -- codec --------------------------------------------------------------------


def test_crc8_standard_check_value():
    # the conventional check string for CRC-8 poly 0x07, init 0x00, MSB first
    assert crc8(b"123456789") == 0xF4


@pytest.mark.parametrize(
    "body,expected",
    [
        ([0x03, 0x00], 0x3F),
        ([0x01, 0x01], 0x12),
        ([0x02, 0x07], 0x3F),
        ([0x04, 0x00], 0x54),
        ([0x00, 0x00], 0x00),
    ],
)
def test_crc8_frame_bodies(body, expected):
    assert crc8(body) == expected


def test_encode_send_data_frame():
    assert encode_command(Command(Opcode.SEND_DATA)) == bytes([0xAA, 0x03, 0x00, 0x3F])


def test_roundtrip_exhaustive():
    for opcode in Opcode:
        for payload in range(256):
            cmd = Command(opcode, payload)
            decoded = decode_command(encode_command(cmd))
            assert (decoded.opcode, decoded.sensor_id) == (opcode, payload)


def test_decode_rejects_bad_frames():
    good = encode_command(Command(Opcode.SENSOR_ON, 1))
    with pytest.raises(FrameError):
        decode_command(good[:3])
    with pytest.raises(FrameError):
        decode_command(bytes([0xAB]) + good[1:])
    with pytest.raises(FrameError):
        decode_command(good[:3] + bytes([good[3] ^ 0x01]))
    # valid CRC over an unknown opcode still fails to decode
    body = bytes([0x7F, 0x00])
    with pytest.raises(FrameError):
        decode_command(bytes([SYNC_BYTE]) + body + bytes([crc8(body)]))


@given(st.sampled_from(list(Opcode)), st.integers(0, 255), st.integers(0, 31))
def test_any_single_bit_flip_is_detected(opcode, payload, bit):
    """Flipping any one bit of the frame always fails to decode.

    Sync flips trip the sync check; body and CRC flips trip the CRC
    (every single-bit error is detectable with this polynomial).
    """
    frame = bytearray(encode_command(Command(opcode, payload)))
    frame[bit // 8] ^= 1 << (bit % 8)
    with pytest.raises(FrameError):
        decode_command(bytes(frame))


# -- load catalog -------------------------------------------------------------


def test_catalog_powers():
    assert LOAD_CATALOG["wifi_bluetooth"].power == pytest.approx(3.7 * 0.102)
    assert LOAD_CATALOG["iot_clock_10mhz"].power == pytest.approx(3.7 * 0.036)
    assert LOAD_CATALOG["soc_mcu_3mhz"].power == pytest.approx(3.7 * 0.011)
    assert LOAD_CATALOG["video_streaming"].power == pytest.approx(5.0 * 0.110)
    assert LOAD_CATALOG["sense_and_save"].power == pytest.approx(0.0259)
    assert LOAD_CATALOG["video_wifi_bt"].power == pytest.approx(5.0 * 0.236)
    assert load_power("sleep") == 0.0


def test_catalog_throughputs():
    assert LOAD_CATALOG["soc_mcu_3mhz"].throughput == 115.2e3
    assert LOAD_CATALOG["wifi_bluetooth"].throughput == 500e3
    assert LOAD_CATALOG["sense_and_save"].throughput is None


def test_unknown_load_profile():
    with pytest.raises(DomainError, match=r"^unknown load profile 'toaster' \(have: "):
        load_power("toaster")


# -- protocol state machine ---------------------------------------------------


class _Store:
    """A store at a fixed terminal voltage that counts its voltage reads."""

    def __init__(self, volts: float):
        self.volts = volts
        self.reads = 0

    def terminal_voltage(self) -> float:
        self.reads += 1
        return self.volts


def test_low_voltage_wake_goes_sensing():
    s = NodeState(v_threshold=3.6, enabled_sensors={1, 3})
    assert s.step(Stimulus.LIGHT_DETECTED, _Store(3.2))  # one step checks the voltage
    assert s.phase is Phase.SENSE_SAVE
    assert s.step(Stimulus.SENSE_COMPLETE)
    assert s.phase is Phase.SLEEP


def test_charged_wake_goes_command_rx():
    s = NodeState(v_threshold=3.6, enabled_sensors=set())
    assert s.step(Stimulus.LIGHT_DETECTED, _Store(3.6))  # boundary: >= threshold qualifies
    assert s.phase is Phase.COMMAND_RX
    assert s.step(Stimulus.COMMANDS_COMPLETE)
    assert s.phase is Phase.HARVEST
    assert s.step(Stimulus.FULL_CHARGE)
    assert s.phase is Phase.SLEEP


def test_wake_needs_the_store_voltage():
    s = NodeState(v_threshold=3.6, enabled_sensors=set())
    with pytest.raises(DomainError):
        s.step(Stimulus.LIGHT_DETECTED)
    assert s.phase is Phase.SLEEP


def test_only_a_wake_reads_the_store_voltage():
    store = _Store(3.9)
    s = NodeState(v_threshold=3.6, enabled_sensors=set())
    for stimulus in (Stimulus.FULL_CHARGE, Stimulus.SENSE_COMPLETE, Stimulus.LIGHT_DETECTED,
                     Stimulus.LIGHT_DETECTED, Stimulus.COMMANDS_COMPLETE,
                     Stimulus.LIGHT_DETECTED, Stimulus.FULL_CHARGE):
        s.step(stimulus, store)
    assert s.phase is Phase.SLEEP
    assert store.reads == 1  # the one LightDetected in Sleep


def test_invalid_stimulus_is_an_error_and_keeps_phase():
    s = NodeState(v_threshold=3.6, enabled_sensors=set())
    assert not s.step(Stimulus.FULL_CHARGE)
    assert s.phase is Phase.SLEEP
    assert not s.step(Stimulus.SENSE_COMPLETE)
    assert s.phase is Phase.SLEEP
    assert s.step(Stimulus.LIGHT_DETECTED, _Store(3.0))
    assert not s.step(Stimulus.COMMANDS_COMPLETE)  # not in CommandRx
    assert s.phase is Phase.SENSE_SAVE
    assert not s.step(Stimulus.LIGHT_DETECTED, _Store(4.0))  # light wakes only a sleeping node
    assert s.phase is Phase.SENSE_SAVE


def test_sensor_commands_mutate_enabled_set():
    s = NodeState(v_threshold=3.6, enabled_sensors={1})
    s.execute_command(Command(Opcode.SENSOR_ON, 2))
    assert s.enabled_sensors == {1, 2}
    s.execute_command(Command(Opcode.SENSOR_OFF, 1))
    assert s.enabled_sensors == {2}
    s.execute_command(Command(Opcode.SENSOR_OFF, 9))  # disabling absent id: no-op
    assert s.enabled_sensors == {2}


def test_record_sensor_respects_enabled_set():
    s = NodeState(v_threshold=3.6, enabled_sensors={1})
    assert s.record_sensor(1, 21.5, 10.0)
    assert not s.record_sensor(2, 0.0, 11.0)
    assert [r.sensor_id for r in s.storage] == [1]
    with pytest.raises(DomainError):
        s.record_sensor(1, 22.0, 9.0)  # time went backwards


def test_send_and_retransmit_lifecycle():
    s = NodeState(v_threshold=3.6, enabled_sensors={1})
    s.record_sensor(1, 20.0, 1.0)
    s.record_sensor(1, 21.0, 2.0)
    batch = s.execute_command(Command(Opcode.SEND_DATA))
    assert len(batch) == 2
    assert len(s.storage) == 2  # nothing cleared until the ack
    s.record_sensor(1, 22.0, 3.0)  # lands while the batch is in flight
    s.ack_transmission(batch)
    assert [r.value for r in s.storage] == [22.0]
    again = s.execute_command(Command(Opcode.RETRANSMIT))
    assert [r.value for r in again] == [20.0, 21.0]
