"""Resource-allocation policies deciding how incident light is used.

One object per node: time switching (the cell alternates between
harvesting and decoding over slots t1/t2), power splitting (a lossless
splitter sends an alpha share to the harvester and the rest to the
decoder, simultaneously), the dual-wavelength arrangement (one
wavelength carries energy, the other data, evaluated as independent
channels), spatial splitting (time switching plus an Energy or Data
role for each transmitter), and the self-powered node protocol, whose
own state machine switches the cell.
"""

import enum
import itertools

from sliptsim.errors import DomainError
from sliptsim.harvester import CellMode
from sliptsim.node import _COMMAND_RX, _PC, _PV, Phase  # members as globals: see node.py


class Policy:
    """What the engine asks of a node's policy.

    schedule: the periodic harvest/decode slot grid, or None.
    protocol: the node runs the protocol state machine (load by phase,
        wake on light, FullCharge hand-off from Harvest to Sleep).
    spatial: transmitters get Energy/Data roles across the nodes.
    """

    schedule = None
    protocol = False
    spatial = False

    def divide(self, harvest_pool: float, decode_pool: float, mode: CellMode,
               ready: bool, phase: Phase) -> tuple[float, float, bool]:
        """(optical W harvested, optical W decoded, decoding?) from the
        incident pools.  By default the cell modes are exclusive: PV
        harvests, PC decodes (a protocol node only in CommandRx), and a
        cell whose relay is still settling (not ready) does neither.
        """
        if not ready:
            return 0.0, 0.0, False
        if mode is _PV:
            return harvest_pool, 0.0, False
        return 0.0, decode_pool, not self.protocol or phase is _COMMAND_RX


class NodeProtocol(Policy):
    """The self-powered node protocol drives the cell mode itself."""

    protocol = True


class TimeSwitchSchedule(Policy):
    """Periodic harvest/decode slots: harvest for t1, decode for t2."""

    def __init__(self, t1: float, t2: float):
        if t1 < 0 or t2 < 0:
            raise DomainError("slot lengths must be >= 0")
        if t1 + t2 <= 0:
            raise DomainError("t1 + t2 must be > 0")
        self.t1 = t1
        self.t2 = t2

    @property
    def schedule(self) -> "TimeSwitchSchedule":
        return self

    @property
    def period(self) -> float:
        return self.t1 + self.t2


class SpatialSplit(TimeSwitchSchedule):
    """Time-switched nodes whose transmitters get Energy/Data roles."""

    spatial = True


def mode_at(schedule: TimeSwitchSchedule, t: float) -> CellMode:
    """Cell mode under the schedule at simulation time t.

    Photovoltaic on [k*T, k*T + t1), photoconductive for the rest of each
    period.  A finite t >= 0 gives an exact t % T below T, so t1 or t2 may be 0.
    """
    if t < 0:
        raise DomainError("t must be >= 0")
    return _PV if t % schedule.period < schedule.t1 else _PC


class PowerSplit(Policy):
    """Lossless splitter ratio: alpha to harvest, 1 - alpha to decode."""

    def __init__(self, alpha: float):
        if not 0.0 <= alpha <= 1.0:
            raise DomainError(f"must be in [0, 1], got {alpha}")
        self.alpha = alpha

    def divide(self, harvest_pool, decode_pool, mode, ready, phase):
        harvest, decode = split(self, harvest_pool)
        return harvest, decode, ready


def split(ps: PowerSplit, incident: float) -> tuple[float, float]:
    """Split incident power into (harvest, decode) shares.

    The shares always sum back to the incident power exactly (the
    splitter is lossless): if rounding the remainder broke the sum,
    the harvest share absorbs the ulp instead.  In that case decode
    >= incident/2, so the re-subtraction is exact by Sterbenz's lemma.
    """
    if incident < 0:
        raise DomainError("incident power must be >= 0")
    harvest = ps.alpha * incident
    decode = incident - harvest
    if harvest + decode != incident:
        harvest = incident - decode
    return harvest, decode


class DualWavelength(Policy):
    """Energy and data beams at distinct wavelengths, used at once."""

    def divide(self, harvest_pool, decode_pool, mode, ready, phase):
        return harvest_pool, decode_pool, ready


class TxRole(enum.Enum):
    ENERGY = "energy"
    DATA = "data"


class SpatialAssignment:
    """Role per transmitter plus the receiver each one points at.

    Each transmitter illuminates exactly one receiver; a receiver may be
    illuminated (and harvest) from many.  target maps a transmitter to
    the receiver it points at, Data transmitters first; receivers whose
    demand no transmitter can feasibly serve are listed in infeasible.
    """

    def __init__(self):
        self.roles: dict[str, TxRole] = {}
        self.target: dict[str, str] = {}
        self.infeasible: list[str] = []


def assign_spatial(
    transmitters: list[str],
    receivers: list[str],
    demands: dict[str, bool],
    link_power: dict[tuple[str, str], float],
    sensitivity: dict[str, float],
) -> SpatialAssignment:
    """Assign Energy/Data roles across transmitters.

    Data stage: each receiver with a demand gets one dedicated Data
    transmitter whose link power meets the receiver's sensitivity.
    Receivers are served in id order, each greedily taking its
    strongest feasible transmitter (ties broken by lowest transmitter
    id); when a receiver finds every feasible transmitter already
    claimed, claimed transmitters are reassigned along an augmenting
    path, so a receiver is left unserved only when no assignment at all
    could serve it.  Energy stage: every remaining transmitter points
    at the receiver where it lands the most power (same tie-break),
    maximizing the summed harvested power.
    """
    if not transmitters:
        raise DomainError("at least one transmitter is required")
    for pair in itertools.product(transmitters, receivers):
        if pair not in link_power:
            raise DomainError(f"link power missing for pair {pair}")

    def feasible(tx: str, rx: str) -> bool:
        return link_power[(tx, rx)] >= sensitivity.get(rx, 0.0)

    # Strongest-link-first candidate order per receiver; stable tie-break
    # on transmitter id keeps the assignment deterministic.
    candidates = {
        rx: sorted(
            (tx for tx in transmitters if feasible(tx, rx)),
            key=lambda tx: (-link_power[(tx, rx)], tx),
        )
        for rx in receivers
    }

    data_tx: dict[str, str] = {}  # rx -> tx
    taken: dict[str, str] = {}  # tx -> rx

    def try_serve(root: str) -> bool:
        """Depth-first search for an augmenting path from root, with an
        explicit stack so the path length is not bound by recursion."""
        visited: set[str] = set()
        stack = [(root, iter(candidates[root]))]  # receivers along the path
        path: list[str] = []  # path[k]: transmitter stack[k] is trying
        while stack:
            options = stack[-1][1]
            tx = next((tx for tx in options if tx not in visited), None)
            if tx is None:  # every candidate failed: back up one step
                stack.pop()
                if path:
                    path.pop()
                continue
            visited.add(tx)
            path.append(tx)
            if tx in taken:  # ask its holder to move to another transmitter
                stack.append((taken[tx], iter(candidates[taken[tx]])))
                continue
            # tx is free: shift every receiver on the path, deepest first
            for (rx_k, _), tx_k in zip(reversed(stack), reversed(path)):
                taken[tx_k] = rx_k
                data_tx[rx_k] = tx_k
            return True
        return False

    assignment = SpatialAssignment()
    for rx in sorted(receivers):
        if not demands.get(rx, False):
            continue
        if not try_serve(rx):
            assignment.infeasible.append(rx)

    for rx, tx in data_tx.items():
        assignment.roles[tx] = TxRole.DATA
        assignment.target[tx] = rx

    for tx in transmitters:
        if tx in assignment.roles:
            continue
        assignment.roles[tx] = TxRole.ENERGY
        if receivers:
            best_power = max(link_power[(tx, rx)] for rx in receivers)
            # ties broken by lowest receiver id
            best_rx = min(rx for rx in receivers if link_power[(tx, rx)] == best_power)
            assignment.target[tx] = best_rx

    return assignment
