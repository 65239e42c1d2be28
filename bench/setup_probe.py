"""Set-up probe: a fresh process that loads a scenario and builds its Simulation.

    python3 bench/setup_probe.py SCENARIO.json

Prints "ready" and the process's CPU seconds so far once
`Simulation(load_scenario(path))` is constructed: the CPU time of a
fresh process from its start to a built simulation.  Tracing is off:
nothing here wraps the program.
"""

import sys
import time

from sliptsim.engine import Simulation
from sliptsim.scenario import load_scenario

Simulation(load_scenario(sys.argv[1]))
sys.stdout.write(f"ready {time.process_time()!r}\n")
sys.stdout.flush()
