"""marketforge: exact finite-market engine for information-flow expansion.

Layers, bottom up.  A process is stored atom-major, one value per (time,
atom) of the partitions it lives on, each time's values by column (one
tuple per component, one entry per atom; in exact mode integer numerators
over one denominator per time), and its kernels are one ``map`` per
column, products as contractions over component index pairs.  Only
``space`` and ``calculus`` know that layout: the layers above pass
per-atom tables, per-outcome paths and index pairs, and read processes as
numbers through accessors (values on atoms, first mismatch) and decide on
them through ones that read no number (first failing cell, value keys).

``arith``      two arithmetic backends (exact rationals, tolerant floats)
``linalg``     elimination-based linear algebra over either backend
``space``      sample spaces, filtrations, the atom index (partitions keyed
               off the flow's finest atoms, parent maps, masses, meets,
               transitions), processes, enlargement pairs
``calculus``   compensators, brackets, integrals, stochastic exponentials,
               the per-atom moment solve of both structure flows
``mrp``        representation drivers and the MRP check
``enlarge``    expanded-flow drift (the G-compensator), the gauge (N, phi, u)
``jumpkernel`` one jump-site type and one site solve, whose record is the
               site's whole certificate; the kernel's pass rule
``viability``  structure solves, deflators, and market verdicts
``scenario``   JSON ingestion for scenarios and sites
``report``     deterministic machine reports and human rendering
``selftest``   built-in verification battery
``cli``        the ``marketforge`` command
"""

from .arith import EXACT, FLOAT, Arithmetic
from .calculus import (
    bracket,
    compensator,
    doob_decompose,
    integrate,
    is_martingale,
    pred_bracket,
    stoch_exp,
)
from .enlarge import DriftGauge, check_support_condition, drift, solve_phi
from .jumpkernel import (
    CoercivityFailure,
    KernelError,
    Site,
    SiteChild,
    SiteSolve,
    check_jump_bound,
    energy_bound,
    site_checks,
    solve_site,
    tilt_floor,
    verify_density,
)
from .mrp import Driver, check_mrp, synthesize_driver
from .scenario import BuiltScenario, ScenarioError, load_scenario, load_site
from .space import (
    EnlargementPair,
    Filtration,
    Partition,
    Process,
    RandomTime,
    SampleSpace,
    build_initial_enlargement,
    build_progressive_enlargement,
    natural_filtration,
)
from .viability import (
    ASSUMPTION_VIOLATED,
    NON_VIABLE,
    VIABLE,
    CheckFailed,
    FailureWitness,
    Market,
    StructureSolution,
    Verdict,
    solve_structure_F,
    solve_structure_G,
    verify_deflator,
)

__version__ = "0.1.0"

__all__ = [
    "ASSUMPTION_VIOLATED",
    "Arithmetic",
    "BuiltScenario",
    "CheckFailed",
    "CoercivityFailure",
    "DriftGauge",
    "Driver",
    "EXACT",
    "EnlargementPair",
    "FLOAT",
    "FailureWitness",
    "Filtration",
    "KernelError",
    "Market",
    "NON_VIABLE",
    "Partition",
    "Process",
    "RandomTime",
    "SampleSpace",
    "ScenarioError",
    "Site",
    "SiteChild",
    "SiteSolve",
    "StructureSolution",
    "VIABLE",
    "Verdict",
    "bracket",
    "build_initial_enlargement",
    "build_progressive_enlargement",
    "check_jump_bound",
    "check_mrp",
    "check_support_condition",
    "compensator",
    "doob_decompose",
    "drift",
    "energy_bound",
    "integrate",
    "is_martingale",
    "load_scenario",
    "load_site",
    "natural_filtration",
    "pred_bracket",
    "site_checks",
    "solve_phi",
    "solve_site",
    "solve_structure_F",
    "solve_structure_G",
    "stoch_exp",
    "synthesize_driver",
    "tilt_floor",
    "verify_deflator",
    "verify_density",
]
