import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sliptsim.energy_store import Battery, Supercapacitor
from sliptsim.errors import DomainError, NeverFullError


def test_battery_integrate_example():
    b = Battery(capacity=100.0, stored=40.0)
    got = b.deposit(2.0 * 10.0)
    assert got == 20.0
    assert b.stored == 60.0


def test_battery_voltage_endpoints_and_midpoint():
    b = Battery(capacity=3024.0, stored=0.0)
    assert b.terminal_voltage() == 3.0
    b.stored = 1512.0
    assert b.terminal_voltage() == pytest.approx(3.6, rel=1e-15)
    b.stored = 3024.0
    assert b.terminal_voltage() == pytest.approx(4.2, rel=1e-15)


def test_battery_clamps_at_both_ends():
    b = Battery(capacity=10.0, stored=9.0)
    assert b.deposit(1.0 * 5.0) == 1.0  # only 1 J of room
    assert b.stored == 10.0
    assert b.deposit(-1.0 * 50.0) == -10.0
    assert b.stored == 0.0
    assert b.deposit(-1.0 * 1.0) == 0.0


def test_battery_time_to_full():
    b = Battery(capacity=3024.0, stored=0.0)
    assert b.time_to_full(0.40645161290322582) == pytest.approx(7440.0, rel=1e-12)
    with pytest.raises(NeverFullError):
        b.time_to_full(0.0)
    with pytest.raises(NeverFullError):
        b.time_to_full(-0.5)


def test_supercap_capacity_is_half_c_v_squared():
    c = Supercapacitor(capacitance=5.0, rated_voltage=5.0)
    assert c.capacity == 62.5
    assert c.time_to_full(0.011574074074074073) == pytest.approx(5400.0, rel=1e-12)


def test_supercap_voltage_curve():
    c = Supercapacitor(capacitance=5.0, rated_voltage=5.0, stored=62.5)
    assert c.terminal_voltage() == pytest.approx(5.0, rel=1e-15)
    c.stored = 62.5 / 4.0
    assert c.terminal_voltage() == pytest.approx(2.5, rel=1e-15)  # V ~ sqrt(E)
    c.stored = 0.0
    assert c.terminal_voltage() == 0.0


def test_deposit_is_exact_without_clamping():
    b = Battery(capacity=100.0, stored=40.0)
    assert b.deposit(0.125) == 0.125  # dyadic amounts stay exact
    assert b.stored == 40.125
    assert b.deposit(-0.125) == -0.125
    assert b.stored == 40.0


def test_validation():
    with pytest.raises(DomainError):
        Battery(capacity=0.0)
    with pytest.raises(DomainError):
        Battery(capacity=10.0, stored=11.0)
    with pytest.raises(DomainError):
        Battery(capacity=10.0, v_empty=4.2, v_full=3.0)
    with pytest.raises(DomainError, match="v_empty must be >= 0"):
        Battery(capacity=10.0, v_empty=-1e308, v_full=1e308)
    with pytest.raises(DomainError):
        Supercapacitor(capacitance=0.0)


@given(
    st.floats(1.0, 1e4),
    st.floats(0.0, 1.0),
    st.floats(-10.0, 10.0),
    st.floats(0.0, 1e4),
)
def test_store_invariants(capacity, soc, net, dt):
    b = Battery(capacity=capacity, stored=soc * capacity)
    before = b.stored
    delta = b.deposit(net * dt)
    assert 0.0 <= b.stored <= b.capacity
    # delta is exactly the post-clamp change in stored energy
    assert delta == b.stored - before
    # and never exceeds the raw flow by more than one rounding step
    assert abs(delta) <= abs(net) * dt + math.ulp(b.capacity)
    assert 3.0 <= b.terminal_voltage() <= 4.2


@given(st.floats(0.1, 100.0), st.floats(0.1, 50.0), st.floats(0.0, 1.0))
def test_supercap_invariants(capacitance, v_rated, soc):
    c = Supercapacitor(capacitance=capacitance, rated_voltage=v_rated)
    c.stored = soc * c.capacity
    assert 0.0 <= c.terminal_voltage() <= v_rated * (1 + 1e-12)
    # energy recovered from V: E = C V^2 / 2
    v = c.terminal_voltage()
    assert 0.5 * capacitance * v * v == pytest.approx(c.stored, rel=1e-9, abs=1e-12)
