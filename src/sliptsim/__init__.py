"""Discrete-event simulator for underwater optical SLIPT networks.

Simulates simultaneous lightwave information and power transfer over
underwater optical links: light propagation through water, solar-cell
receivers that alternate between energy harvesting and data decoding,
device energy budgets, and the duty-cycled protocol of self-powered
IoUT sensor nodes.

The package builds no dataclasses: importing dataclasses loads inspect,
ast, dis and tokenize, and the decorators with that import cost about
30-40 ms of every CLI process start, so each class writes out its __init__.
Import each name from the module that defines it (Simulation from
sliptsim.engine, load_scenario from sliptsim.scenario, the sinks from
sliptsim.trace): the package root binds none, so importing it, or
`python -m sliptsim.cli validate`, loads no module the command does not use.
"""

__version__ = "0.1.0"
