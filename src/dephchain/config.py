"""Declarative experiment configs: schema, validation, JSON round-trip.

One JSON document drives one experiment. The ``kind`` selects the pipeline
and determines which blocks are required; scalar fields can be overridden
from the command line with dotted paths (``lattice.n_sites=5``).
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .model import GOLDEN_MEAN, LatticeSpec

EXPERIMENT_KINDS = (
    "evolve",
    "steady",
    "correlation-map",
    "concurrence-scan",
    "fock-quench",
    "robustness-aa",
    "robustness-int",
)


class ConfigError(ValueError):
    """Invalid configuration; message names the offending field."""


@dataclass(frozen=True)
class InitialState:
    """Descriptor: a Fock bitstring, a Slater mode list (1-based,
    ascending-energy bare modes), or the single-particle ground state."""

    type: str
    bitstring: str | None = None
    modes: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.type not in ("fock", "slater", "ground"):
            raise ConfigError(f"initial_state.type: unknown type {self.type!r}")
        if self.type == "fock":
            if not self.bitstring:
                raise ConfigError("initial_state.bitstring: required for type 'fock'")
            if not isinstance(self.bitstring, str) or set(self.bitstring) - {"0", "1"}:
                raise ConfigError(
                    "initial_state.bitstring: expected a string of 0/1 "
                    f"(got {self.bitstring!r}; quote it on the command line)"
                )
        if self.type == "slater" and not self.modes:
            raise ConfigError("initial_state.modes: required for type 'slater'")

    def n_particles(self) -> int:
        if self.type == "fock":
            return self.bitstring.count("1")
        if self.type == "slater":
            return len(self.modes)
        return 1


@dataclass(frozen=True)
class TimeGrid:
    start: float = 0.0
    stop: float = 100.0
    num: int = 401
    points: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.points is not None:
            pts = np.asarray(self.points, dtype=float)
            if pts.size == 0 or np.any(np.diff(pts) <= 0) or pts[0] < 0:
                raise ConfigError("time_grid.points: must be strictly increasing and >= 0")
        else:
            if self.stop < self.start or self.start < 0 or self.num < 1:
                raise ConfigError("time_grid: need 0 <= start <= stop and num >= 1")

    def values(self) -> np.ndarray:
        if self.points is not None:
            return np.asarray(self.points, dtype=float)
        return np.linspace(self.start, self.stop, self.num)


@dataclass(frozen=True)
class QuenchSpec:
    """Trap quench block: the switch-on instant (or "auto" for the first
    post-transient local maximum of the end-to-end correlation), the trap
    strength V/J, and how long to follow the quenched dynamics."""

    time: float | str = 31.1
    trap_amplitude: float = 2.0
    window: float = 20.0
    transient: float = 20.0

    def __post_init__(self):
        if isinstance(self.time, str) and self.time != "auto":
            raise ConfigError(f"quench.time: number or 'auto', got {self.time!r}")
        if self.trap_amplitude < 0 or self.window <= 0:
            raise ConfigError("quench: trap_amplitude >= 0 and window > 0 required")


@dataclass(frozen=True)
class ScanSpec:
    """Grid block for parameter scans and the concurrence survey."""

    values: tuple[float, ...] | None = None
    n_values: int = 8
    max_value: float = 0.5
    times: tuple[float, ...] = ()
    sizes: tuple[int, ...] = (3, 5, 7, 9)
    fillings: tuple[int, ...] = (1, 2, 3)
    dynamical: bool = False

    def grid(self) -> np.ndarray:
        if self.values is not None:
            return np.asarray(self.values, dtype=float)
        return np.linspace(0.0, self.max_value, self.n_values)


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    lattice: LatticeSpec
    initial_state: InitialState
    time_grid: TimeGrid = TimeGrid()
    observables: tuple[str, ...] = ()
    quench: QuenchSpec | None = None
    scan: ScanSpec | None = None
    convergence_tol: float = 1e-9

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ConfigError(f"kind: unknown experiment {self.kind!r}; "
                              f"choose from {', '.join(EXPERIMENT_KINDS)}")
        if self.kind == "fock-quench" and self.quench is None:
            raise ConfigError("quench: block required for kind 'fock-quench'")
        if self.kind == "fock-quench" and self.quench.time != "auto" \
                and self.quench.time < self.time_grid.values()[0]:
            raise ConfigError(f"quench.time: {self.quench.time:g} is earlier than the "
                              f"first time_grid time {self.time_grid.values()[0]:g}")
        if self.kind in ("robustness-aa", "robustness-int", "concurrence-scan") \
                and self.scan is None:
            raise ConfigError(f"scan: block required for kind {self.kind!r}")
        if self.kind == "concurrence-scan" and min(self.scan.sizes, default=3) < 3:
            raise ConfigError(f"scan.sizes: {min(self.scan.sizes)} has no symmetric pair; "
                              "sizes must be >= 3")
        if self.kind in ("robustness-aa", "robustness-int") \
                and self.scan is not None and not self.scan.times:
            raise ConfigError(f"scan.times: required for kind {self.kind!r}")


def _tupled(value):
    return tuple(value) if isinstance(value, (list, tuple)) else value


def config_from_dict(payload: dict) -> ExperimentConfig:
    """Build and validate a config from plain dictionaries."""
    if not isinstance(payload, dict):
        raise ConfigError("config: expected a JSON object")
    known = {"kind", "lattice", "initial_state", "time_grid", "observables",
             "quench", "scan", "convergence_tol"}
    unknown = set(payload) - known
    if unknown:
        raise ConfigError(f"config: unknown fields {sorted(unknown)}")
    try:
        lattice = LatticeSpec(**payload.get("lattice", {}))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"lattice: {exc}") from exc

    def build(cls, key, required=False):
        block = payload.get(key)
        if block is None:
            if required:
                raise ConfigError(f"{key}: required block missing")
            return None
        if not isinstance(block, dict):
            raise ConfigError(f"{key}: expected an object")
        fields = {f.name for f in dataclasses.fields(cls)}
        bad = set(block) - fields
        if bad:
            raise ConfigError(f"{key}: unknown fields {sorted(bad)}")
        coerced = {k: _tupled(v) for k, v in block.items()}
        try:
            return cls(**coerced)
        except TypeError as exc:
            raise ConfigError(f"{key}: {exc}") from exc

    initial = build(InitialState, "initial_state", required=True)
    grid = build(TimeGrid, "time_grid") or TimeGrid()
    quench = build(QuenchSpec, "quench")
    scan = build(ScanSpec, "scan")
    return ExperimentConfig(
        kind=payload.get("kind", ""),
        lattice=lattice,
        initial_state=initial,
        time_grid=grid,
        observables=tuple(payload.get("observables", ())),
        quench=quench,
        scan=scan,
        convergence_tol=float(payload.get("convergence_tol", 1e-9)),
    )


def config_to_dict(config: ExperimentConfig) -> dict:
    def plain(obj):
        if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            return {k: plain(v) for k, v in dataclasses.asdict(obj).items()
                    if v is not None}
        if isinstance(obj, tuple):
            return [plain(v) for v in obj]
        return obj

    payload = {
        "kind": config.kind,
        "lattice": plain(config.lattice),
        "initial_state": plain(config.initial_state),
        "time_grid": plain(config.time_grid),
        "observables": list(config.observables),
        "convergence_tol": config.convergence_tol,
    }
    if config.quench is not None:
        payload["quench"] = plain(config.quench)
    if config.scan is not None:
        payload["scan"] = plain(config.scan)
    return payload


def load_config(path: str | Path) -> ExperimentConfig:
    with open(path, encoding="utf-8") as handle:
        return config_from_dict(json.load(handle))


def save_config(config: ExperimentConfig, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(config_to_dict(config), handle, indent=2, sort_keys=True)
        handle.write("\n")


def apply_overrides(payload: dict, overrides) -> dict:
    """Apply ``key.path=value`` overrides to a config dictionary; values are
    parsed as JSON with bare-string fallback."""
    result = json.loads(json.dumps(payload))
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r}: expected key=value")
        dotted, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = result
        parts = dotted.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override {item!r}: {part} is not an object")
        node[parts[-1]] = value
    return result


def default_config(kind: str) -> ExperimentConfig:
    """Built-in desk-scale defaults reproducing each figure panel."""
    if kind == "evolve":
        return config_from_dict({
            "kind": "evolve",
            "lattice": {"n_sites": 9},
            "initial_state": {"type": "ground"},
            "time_grid": {"start": 0.0, "stop": 100.0, "num": 501},
            "observables": ["corr:1,9", "corr:1,2", "charge", "number"],
        })
    if kind == "steady":
        return config_from_dict({
            "kind": "steady",
            "lattice": {"n_sites": 3},
            "initial_state": {"type": "fock", "bitstring": "010"},
            "observables": ["occ:2"],
        })
    if kind == "correlation-map":
        return config_from_dict({
            "kind": "correlation-map",
            "lattice": {"n_sites": 9},
            "initial_state": {"type": "ground"},
        })
    if kind == "concurrence-scan":
        return config_from_dict({
            "kind": "concurrence-scan",
            "lattice": {"n_sites": 9},
            "initial_state": {"type": "ground"},
            "scan": {"sizes": [3, 5, 7, 9], "fillings": [1, 2, 3]},
        })
    if kind == "fock-quench":
        return config_from_dict({
            "kind": "fock-quench",
            "lattice": {"n_sites": 7},
            "initial_state": {"type": "fock", "bitstring": "1010101"},
            "time_grid": {"start": 0.0, "stop": 60.0, "num": 1201},
            "observables": ["corr:1,7"],
            "quench": {"time": 31.1, "trap_amplitude": 2.0, "window": 20.0},
        })
    if kind == "robustness-aa":
        return config_from_dict({
            "kind": "robustness-aa",
            "lattice": {"n_sites": 9, "aa_frequency": GOLDEN_MEAN},
            "initial_state": {"type": "ground"},
            "scan": {"n_values": 8, "max_value": 0.5, "times": [100.0, 1000.0]},
        })
    if kind == "robustness-int":
        return config_from_dict({
            "kind": "robustness-int",
            "lattice": {"n_sites": 7},
            "initial_state": {"type": "fock", "bitstring": "1010101"},
            "scan": {"n_values": 8, "max_value": 0.5, "times": [31.1]},
        })
    raise ConfigError(f"kind: unknown experiment {kind!r}")
