"""compthink — an executable companion to Wing (2008),
"Computational thinking and thinking about computing".

The paper's thesis — computational thinking is **abstraction plus
automation** — is implemented in :mod:`repro.core`; every substrate
and exemplar the paper's argument invokes lives in its own subpackage:

========================  ====================================================
``repro.core``            abstraction, refinement, layers, computers, automation
``repro.adt``             abstract data types with checkable algebraic laws
``repro.machines``        Turing machines, automata, RAM, busy beavers
``repro.parallel``        MPI-style communicator, multicore, schedulers, laws
``repro.netstack``        the layered Internet with its thin waist
``repro.complang``        MiniLang: parser, interpreter, compiler, VM, equivalence
``repro.complexity``      SAT, P-vs-NP asymmetry, reductions, growth fitting
``repro.info``            entropy, Huffman, channel coding
``repro.bio``             shotgun assembly, Adleman DNA computing, gene automata
``repro.econ``            kidney exchange, auctions, reputation
``repro.ml``              naive Bayes, Bayes nets, anomaly detection, Apriori
``repro.devices``         memristors, crossbars, qubits, BB84, Moore, cortex
``repro.society``         Figure 1 drivers, availability, privacy, social nets
``repro.edu``             concept graphs, learners, curricula (Challenge no. 1)
``repro.robotics``        the hallway robot
``repro.data``            sensor nets, the data-deluge loop, federation
``repro.faults``          disk-full / flaky-server edge cases, retry patterns
``repro.util``            seeded RNG, timing/growth fitting, tables
========================  ====================================================

See DESIGN.md for the full inventory and the per-experiment index, and
EXPERIMENTS.md for reproduced-vs-paper results.
"""

from repro.core import (
    AbstractionFunction,
    Computer,
    HumanComputer,
    HybridComputer,
    LayerStack,
    MachineComputer,
    NetworkComputer,
    Refinement,
    SimulationRelation,
    StateMachine,
    automate,
    interleave,
)
from repro.perf import compile_machine, run_compiled
from repro.runtime import run_jobs

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "StateMachine",
    "AbstractionFunction",
    "SimulationRelation",
    "Refinement",
    "LayerStack",
    "Computer",
    "MachineComputer",
    "HumanComputer",
    "HybridComputer",
    "NetworkComputer",
    "automate",
    "interleave",
    "compile_machine",
    "run_compiled",
    "run_jobs",
]
