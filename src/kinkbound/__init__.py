"""kinkbound: event-driven hard-sphere dynamics and its verification suite.

Exact binary-collision simulation in R^n with collision-strength ledgers,
spacetime mass-momentum graph tensors (with divergence audits), and
determinantal-mass geometry for divergence-free graph vertices.
"""

from .detmass import (AngularMeasure, ConvexPolygon, check_balance,
                      dm_closed_formula, dm_cross, dm_direct_sum, dm_kink,
                      dm_triple, enclosed_area, polygon_from_measure,
                      support_function)
from .dynamics import (CollisionEvent, ConfigurationError, EventBlock, EventLog,
                       GenericityViolation, ParticleState, SimConfig,
                       SimulationBug, StateBlock, read_events_jsonl,
                       run_simulation, validate_configuration,
                       write_events_jsonl)
from .harness import (PackingError, Scenario, SweepSpec, apply_boost,
                      apply_time_scale, gen_explicit, gen_line_1d,
                      gen_random_gas, run_experiment, scenario_from_config,
                      simulate_scenario, sweep)
from .ledger import (BulkInvariants, Hodographs, Ledger, bound_report,
                     build_ledger, build_report, bulk_invariants,
                     hodograph_summaries, write_ledger_csv)
from .tensor import (EdgeBlock, GraphTensor, KinkBlock, KinkSite, VertexBlock,
                     audit_tensor, build_augmented, build_tensor,
                     complement_basis, slice_trace, vertex_balances,
                     weak_divergence)

__version__ = "0.1.0"
# the contact kernel is numpy only; kept for the benchmark records, which
# carry this name
kernel_backend = "python"
