import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sliptsim.errors import DomainError
from sliptsim.harvester import CellMode
from sliptsim.node import Phase
from sliptsim.policy import (
    DualWavelength,
    NodeProtocol,
    PowerSplit,
    SpatialSplit,
    TimeSwitchSchedule,
    TxRole,
    assign_spatial,
    mode_at,
    split,
)

PV = CellMode.PHOTOVOLTAIC
PC = CellMode.PHOTOCONDUCTIVE


def test_schedule_basicities():
    s = TimeSwitchSchedule(0.5, 0.5)
    assert s.period == 1.0
    with pytest.raises(DomainError):
        TimeSwitchSchedule(0.0, 0.0)
    with pytest.raises(DomainError):
        TimeSwitchSchedule(-1.0, 2.0)


def test_mode_at_walks_the_slots():
    s = TimeSwitchSchedule(0.5, 0.5)
    assert mode_at(s, 0.0) is PV
    assert mode_at(s, 0.49) is PV
    assert mode_at(s, 0.5) is PC  # slot boundary belongs to the next slot
    assert mode_at(s, 0.99) is PC
    assert mode_at(s, 1.0) is PV
    assert mode_at(s, 17.25) is PV
    assert mode_at(s, 17.75) is PC
    with pytest.raises(DomainError, match="t must be >= 0"):
        mode_at(s, -1e-9)  # no slot before the run


def test_mode_at_degenerate_schedules():
    assert mode_at(TimeSwitchSchedule(1.0, 0.0), 123.4) is PV
    assert mode_at(TimeSwitchSchedule(0.0, 1.0), 123.4) is PC


def test_mode_at_phase_offset():
    s = TimeSwitchSchedule(0.5, 0.5, phase_offset=0.25)
    assert mode_at(s, 0.25) is PV
    assert mode_at(s, 0.75) is PC


# dyadic slot lengths and times keep t + period exact, so the property
# tests the slot walk rather than float rounding at boundaries
_DYADIC = st.integers(1, 32).map(lambda k: k * 0.25)


@given(_DYADIC, _DYADIC, st.integers(0, 400).map(lambda k: k * 0.25))
def test_mode_at_is_periodic(t1, t2, t):
    s = TimeSwitchSchedule(t1, t2)
    assert mode_at(s, t) is mode_at(s, t + s.period)


def test_power_split_bounds():
    with pytest.raises(DomainError, match=r"must be in \[0, 1\], got -0.01"):
        PowerSplit(-0.01)
    with pytest.raises(DomainError, match=r"must be in \[0, 1\], got 1.01"):
        PowerSplit(1.01)
    assert split(PowerSplit(0.0), 2.0) == (0.0, 2.0)
    assert split(PowerSplit(1.0), 2.0) == (2.0, 0.0)
    with pytest.raises(DomainError, match="incident power must be >= 0"):
        split(PowerSplit(0.25), -1.0)


def test_split_example():
    harvest, decode = split(PowerSplit(0.25), 2.0)
    assert harvest == 0.5
    assert decode == 1.5


@given(st.floats(0.0, 1.0), st.floats(0.0, 1e6))
def test_split_conserves_power_exactly(alpha, p):
    harvest, decode = split(PowerSplit(alpha), p)
    assert harvest + decode == p
    assert harvest >= 0.0 and decode >= 0.0


# -- spatial assignment -------------------------------------------------------


def _powers(rows):
    """rows: {(tx, rx): power}"""
    return rows


def _data_source(a) -> dict[str, str]:
    """Receiver -> the Data transmitter serving it, in the order the data
    stage served them (Data transmitters come first in target)."""
    return {rx: tx for tx, rx in a.target.items() if a.roles[tx] is TxRole.DATA}


def test_two_tx_one_demanding_rx():
    # identical links: Data role goes to the lowest transmitter id
    lp = _powers({("t0", "r0"): 1.0, ("t1", "r0"): 1.0})
    a = assign_spatial(["t0", "t1"], ["r0"], {"r0": True}, lp, {"r0": 1e-6})
    assert a.roles == {"t0": TxRole.DATA, "t1": TxRole.ENERGY}
    assert _data_source(a) == {"r0": "t0"}
    assert a.target == {"t0": "r0", "t1": "r0"}
    assert a.infeasible == []


def test_strongest_feasible_link_wins_data_role():
    lp = _powers({("t0", "r0"): 0.2, ("t1", "r0"): 0.9})
    a = assign_spatial(["t0", "t1"], ["r0"], {"r0": True}, lp, {"r0": 0.0})
    assert a.roles["t1"] is TxRole.DATA
    assert a.roles["t0"] is TxRole.ENERGY


def test_augmenting_path_preserves_feasibility():
    # r0 prefers t1 (0.9), but r1 can only be served by t1; the greedy
    # seed must be reassigned so both demands are met.
    lp = _powers({
        ("t0", "r0"): 0.5, ("t1", "r0"): 0.9,
        ("t0", "r1"): 0.0, ("t1", "r1"): 0.4,
    })
    sens = {"r0": 0.1, "r1": 0.1}
    a = assign_spatial(["t0", "t1"], ["r0", "r1"], {"r0": True, "r1": True}, lp, sens)
    assert a.infeasible == []
    assert _data_source(a) == {"r0": "t0", "r1": "t1"}


def test_truly_infeasible_rx_is_reported():
    lp = _powers({("t0", "r0"): 0.01, ("t0", "r1"): 0.9})
    a = assign_spatial(["t0"], ["r0", "r1"], {"r0": True, "r1": True}, lp,
                       {"r0": 0.1, "r1": 0.1})
    assert a.infeasible == ["r0"]
    assert _data_source(a) == {"r1": "t0"}


def test_energy_txs_point_at_their_best_receiver():
    lp = _powers({
        ("t0", "r0"): 0.3, ("t0", "r1"): 0.8,
        ("t1", "r0"): 0.6, ("t1", "r1"): 0.6,
    })
    a = assign_spatial(["t0", "t1"], ["r0", "r1"], {}, lp, {})
    assert a.roles == {"t0": TxRole.ENERGY, "t1": TxRole.ENERGY}
    assert a.target == {"t0": "r1", "t1": "r0"}  # t1 ties, lowest rx id wins
    assert lp[("t0", "r1")] + lp[("t1", "r0")] == pytest.approx(1.4)


def test_assign_requires_a_transmitter():
    with pytest.raises(DomainError):
        assign_spatial([], ["r0"], {}, {}, {})
    with pytest.raises(DomainError):
        assign_spatial(["t0"], ["r0"], {}, {}, {})  # missing link power


def _frame_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_augmenting_path_through_every_receiver_needs_no_recursion():
    # r_k takes t_k greedily; the last receiver can use only t0, so its
    # augmenting path shifts every earlier r_k on to t_{k+1}.
    n = 300
    txs = [f"t{k:03d}" for k in range(n)]
    rxs = [f"r{k:03d}" for k in range(n)]
    lp = {(tx, rx): 0.0 for tx in txs for rx in rxs}
    for k in range(n - 1):
        lp[(txs[k], rxs[k])] = 3.0
        lp[(txs[k + 1], rxs[k])] = 2.0
    lp[(txs[0], rxs[-1])] = 2.0
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_frame_depth() + 50)  # far below the path length
    try:
        a = assign_spatial(txs, rxs, {rx: True for rx in rxs}, lp,
                           {rx: 1.0 for rx in rxs})
    finally:
        sys.setrecursionlimit(limit)
    assert a.infeasible == []
    source = _data_source(a)
    assert source[rxs[-1]] == txs[0]
    assert all(source[rxs[k]] == txs[k + 1] for k in range(n - 1))


def _assign_data_recursive(txs, rxs, demands, lp, sens):
    """The data stage as a recursive augmenting-path search: the order
    the iterative search must reproduce, dict insertion order included."""
    candidates = {rx: sorted((tx for tx in txs if lp[(tx, rx)] >= sens.get(rx, 0.0)),
                             key=lambda tx: (-lp[(tx, rx)], tx)) for rx in rxs}
    data_tx, taken, infeasible = {}, {}, []

    def try_serve(rx, visited):
        for tx in candidates[rx]:
            if tx in visited:
                continue
            visited.add(tx)
            if tx not in taken or try_serve(taken[tx], visited):
                taken[tx] = rx
                data_tx[rx] = tx
                return True
        return False

    for rx in sorted(rxs):
        if demands.get(rx, False) and not try_serve(rx, set()):
            infeasible.append(rx)
    return list(data_tx.items()), infeasible


@given(st.integers(1, 5), st.integers(1, 5), st.data())
def test_iterative_search_matches_recursive_order(n_tx, n_rx, data):
    txs = [f"t{k}" for k in range(n_tx)]
    rxs = [f"r{k}" for k in range(n_rx)]
    level = st.sampled_from([0.0, 0.5, 1.0, 2.0])
    lp = {(tx, rx): data.draw(level) for tx in txs for rx in rxs}
    demands = {rx: data.draw(st.booleans()) for rx in rxs}
    sens = {rx: 1.0 for rx in rxs}
    a = assign_spatial(txs, rxs, demands, lp, sens)
    data_items, infeasible = _assign_data_recursive(txs, rxs, demands, lp, sens)
    assert list(_data_source(a).items()) == data_items
    assert a.infeasible == infeasible


def test_policy_objects_answer_the_engine():
    ts = TimeSwitchSchedule(1.0, 1.0)
    assert ts.schedule is ts and not ts.protocol and not ts.spatial
    assert SpatialSplit(1.0, 1.0).spatial
    assert NodeProtocol().schedule is None and NodeProtocol().protocol
    assert PowerSplit(0.5).schedule is None and DualWavelength().schedule is None
    # exclusive modes: PV harvests, PC decodes, a settling cell does neither
    assert ts.divide(1.0, 2.0, PV, True, Phase.SLEEP) == (1.0, 0.0, False)
    assert ts.divide(1.0, 2.0, PC, True, Phase.SLEEP) == (0.0, 2.0, True)
    assert ts.divide(1.0, 2.0, PC, False, Phase.SLEEP) == (0.0, 0.0, False)
    # a protocol node decodes only in CommandRx
    assert NodeProtocol().divide(1.0, 2.0, PC, True, Phase.SLEEP) == (0.0, 2.0, False)
    assert NodeProtocol().divide(1.0, 2.0, PC, True, Phase.COMMAND_RX) == (0.0, 2.0, True)
    # simultaneous policies ignore the mode and keep harvesting while settling
    assert PowerSplit(0.25).divide(4.0, 9.0, PC, False, Phase.SLEEP) == (1.0, 3.0, False)
    assert DualWavelength().divide(4.0, 9.0, PV, True, Phase.SLEEP) == (4.0, 9.0, True)
