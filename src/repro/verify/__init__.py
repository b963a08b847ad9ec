"""Differential verification: brute-force oracles + trace fuzzing.

Every optimisation in this reproduction (the numpy Mattson stack pass,
the one-pass resize predictor, the closed-form eq. (2)-(6) timeout
mathematics, the incremental drive energy accounting) has a slow,
obviously-correct twin in :mod:`repro.verify.oracles`.  The differential
runner (:mod:`repro.verify.differential`, surfaced on the CLI as
``repro verify``) replays fuzzed workloads through both and delta-debugs
any divergence down to a minimal reproducer;
:mod:`repro.verify.strategies` supplies the fuzzed inputs, both as
Hypothesis strategies and as seed-addressable generators.
"""

from repro.verify.differential import (
    CHECKS,
    CheckOutcome,
    Divergence,
    VerifyReport,
    minimize_accesses,
    run_differential,
)
from repro.verify.optimal import (
    OptReplay,
    compute_next_use,
    naive_opt_replay,
    offline_disk_energy,
    opt_replay,
)
from repro.verify.strategies import VerifyCase, random_case, random_small_machine

__all__ = [
    "CHECKS",
    "CheckOutcome",
    "Divergence",
    "OptReplay",
    "VerifyCase",
    "VerifyReport",
    "compute_next_use",
    "minimize_accesses",
    "naive_opt_replay",
    "offline_disk_energy",
    "opt_replay",
    "random_case",
    "random_small_machine",
    "run_differential",
]
