"""The four benchmark workloads as plain config payloads.

Each workload is one ``dephchain`` config, written out here field by field so
that the independent checks in :mod:`checks` read their physical parameters
from the benchmark, never from the program's defaults. Seed 0 gives the
program's built-in default configs (with the overrides named below); other
seeds change only the interaction values of ``interaction-scan``.

This module imports nothing from ``dephchain`` and no numerical library, so
the worker can read it before the timed import.
"""

from __future__ import annotations

import random

WORKLOADS = ("quench", "interaction-scan", "steady-survey", "pair-map")

# default_config(kind) plus these overrides is the seed-0 payload; the
# benchmark's test holds the two equal.
DEFAULT_KIND = {
    "quench": ("fock-quench", {}),
    "interaction-scan": ("robustness-int", {}),
    "steady-survey": ("concurrence-scan",
                      {"scan": {"sizes": [3, 5, 7, 9, 11], "fillings": [1, 2, 3],
                                "dynamical": True}}),
    "pair-map": ("correlation-map", {"lattice": {"n_sites": 41}}),
}

N_INTERACTIONS = 8
MAX_INTERACTION = 0.5


def _lattice(n_sites: int) -> dict:
    return {"n_sites": n_sites, "tunneling": 1.0, "dephasing_gamma": 1.0,
            "aa_amplitude": 0.0, "trap_amplitude": 0.0, "interaction": 0.0}


def payload(workload: str, seed: int) -> dict:
    """The config payload of one workload; only ``interaction-scan`` depends
    on the seed."""
    if workload == "quench":
        return {
            "kind": "fock-quench",
            "lattice": _lattice(7),
            "initial_state": {"type": "fock", "bitstring": "1010101"},
            "time_grid": {"start": 0.0, "stop": 60.0, "num": 1201},
            "observables": ["corr:1,7"],
            "quench": {"time": 31.1, "trap_amplitude": 2.0, "window": 20.0,
                       "transient": 20.0},
        }
    if workload == "interaction-scan":
        scan = {"n_values": N_INTERACTIONS, "max_value": MAX_INTERACTION, "times": [31.1]}
        if seed != 0:
            rng = random.Random(seed)
            scan["values"] = sorted(rng.uniform(0.0, MAX_INTERACTION)
                                    for _ in range(N_INTERACTIONS))
        return {
            "kind": "robustness-int",
            "lattice": _lattice(7),
            "initial_state": {"type": "fock", "bitstring": "1010101"},
            "scan": scan,
        }
    if workload == "steady-survey":
        return {
            "kind": "concurrence-scan",
            "lattice": _lattice(9),
            "initial_state": {"type": "ground"},
            "scan": {"sizes": [3, 5, 7, 9, 11], "fillings": [1, 2, 3], "dynamical": True},
            "convergence_tol": 1e-9,
        }
    if workload == "pair-map":
        return {
            "kind": "correlation-map",
            "lattice": _lattice(41),
            "initial_state": {"type": "ground"},
        }
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
