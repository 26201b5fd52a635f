"""Declarative experiment configs: schema, validation, JSON round-trip.

One JSON document drives one experiment. The ``kind`` selects the pipeline
and determines which blocks are required; scalar fields can be overridden
from the command line with dotted paths (``lattice.n_sites=5``).
"""

from __future__ import annotations

import dataclasses
import json
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import fock
from .lindblad import (BLOCK_JUMP_TOL, DEPHASING_RATE_LIMIT, ENERGY_SCALE_LIMIT,
                       STEADY_RESIDUAL_TOL)
from .model import GOLDEN_MEAN, LatticeSpec, is_finite_number

# The built-in desk-scale default of each experiment kind, reproducing its
# figure panel; the kinds are this table's keys, in order.
_DEFAULTS = {
    "evolve": {
        "lattice": {"n_sites": 9},
        "initial_state": {"type": "ground"},
        "time_grid": {"start": 0.0, "stop": 100.0, "num": 501},
        "observables": ["corr:1,9", "corr:1,2", "charge", "number"],
    },
    "steady": {
        "lattice": {"n_sites": 3},
        "initial_state": {"type": "fock", "bitstring": "010"},
    },
    "correlation-map": {
        "lattice": {"n_sites": 9},
        "initial_state": {"type": "ground"},
    },
    "concurrence-scan": {
        "lattice": {"n_sites": 9},
        "initial_state": {"type": "ground"},
        "scan": {"sizes": [3, 5, 7, 9], "fillings": [1, 2, 3]},
    },
    "fock-quench": {
        "lattice": {"n_sites": 7},
        "initial_state": {"type": "fock", "bitstring": "1010101"},
        "time_grid": {"start": 0.0, "stop": 60.0, "num": 1201},
        "observables": ["corr:1,7"],
        "quench": {"time": 31.1, "trap_amplitude": 2.0, "window": 20.0},
    },
    "robustness-aa": {
        "lattice": {"n_sites": 9, "aa_frequency": GOLDEN_MEAN},
        "initial_state": {"type": "ground"},
        "scan": {"n_values": 8, "max_value": 0.5, "times": [100.0, 1000.0]},
    },
    "robustness-int": {
        "lattice": {"n_sites": 7},
        "initial_state": {"type": "fock", "bitstring": "1010101"},
        "scan": {"n_values": 8, "max_value": 0.5, "times": [31.1]},
    },
}
EXPERIMENT_KINDS = tuple(_DEFAULTS)


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
        if self.type == "fock" and not self.bitstring:
            raise ConfigError("initial_state.bitstring: required for type 'fock'")
        if self.type == "slater" and not self.modes:
            raise ConfigError("initial_state.modes: required for type 'slater'")
        bits, modes = self.bitstring, self.modes
        if bits is not None and (not isinstance(bits, str) or set(bits) - {"0", "1"}):
            raise ConfigError("initial_state.bitstring: expected a string of 0/1 "
                              f"(got {bits!r}; quote it on the command line)")
        if modes is not None and (not modes or not isinstance(modes, tuple) or not all(
                type(m) is int and m >= 1 for m in modes) or len(set(modes)) != len(modes)):
            raise ConfigError(f"initial_state.modes: need distinct integers >= 1, got {modes!r}")

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
        points = () if self.points is None else self.points
        for name, values in (("start", (self.start,)), ("stop", (self.stop,)), ("points", points)):
            if not isinstance(values, tuple) or not all(map(is_finite_number, values)):
                raise ConfigError(f"time_grid.{name}: need finite numbers, got {getattr(self, name)!r}")
        if self.points is not None:
            pts = np.asarray(self.points, dtype=float)
            if pts.size == 0 or np.any(np.diff(pts) <= 0) or pts[0] < 0:
                raise ConfigError("time_grid.points: must be strictly increasing and >= 0")
        elif type(self.num) is not int or not 0 <= self.start <= self.stop or self.num < 1:
            raise ConfigError("time_grid: need 0 <= start <= stop and an integer num >= 1")

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
        if self.time != "auto" and not is_finite_number(self.time):
            raise ConfigError(f"quench.time: finite number or 'auto', got {self.time!r}")
        for name in ("trap_amplitude", "window", "transient"):
            if not is_finite_number(getattr(self, name)):
                raise ConfigError(f"quench.{name}: need a finite number, got {getattr(self, name)!r}")
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

    def __post_init__(self):
        if type(self.n_values) is not int or self.n_values < 1:
            raise ConfigError(f"scan.n_values: need an integer >= 1, got {self.n_values!r}")
        if not is_finite_number(self.max_value) or self.max_value < 0:
            raise ConfigError(f"scan.max_value: need a finite number >= 0, got {self.max_value!r}")
        if self.values is not None and (not self.values or not isinstance(self.values, tuple) or not all(
                is_finite_number(v) and v >= 0 for v in self.values)):
            raise ConfigError("scan.values: need a non-empty list of finite numbers >= 0, "
                              f"got {self.values!r}")
        if type(self.dynamical) is not bool:
            raise ConfigError(f"scan.dynamical: need true or false, got {self.dynamical!r}")
        sizes, fillings, times = self.sizes, self.fillings, self.times
        if not sizes or not isinstance(sizes, tuple) or not all(
                type(n) is int and n >= 3 and n % 2 for n in sizes):
            raise ConfigError(f"scan.sizes: need a non-empty list of odd integers >= 3 "
                              f"(a centre site and a symmetric pair), got {sizes!r}")
        if not fillings or not isinstance(fillings, tuple) or not all(
                type(k) is int and k >= 1 for k in fillings):
            raise ConfigError("scan.fillings: need a non-empty list of integers >= 1, "
                              f"got {fillings!r}")
        if not isinstance(times, tuple) or not all(is_finite_number(t) and t >= 0 for t in times):
            raise ConfigError(f"scan.times: need a list of finite times >= 0, got {times!r}")
        if any(later < earlier for earlier, later in zip(times, times[1:])):
            raise ConfigError(f"scan.times: need non-decreasing times, got {times!r}")

    def grid(self) -> np.ndarray:
        if self.values is not None:
            return np.asarray(self.values, dtype=float)
        return np.linspace(0.0, self.max_value, self.n_values)


# The observables by name: the number of 1-based sites each takes, and the
# builder of its readout of ``lindblad.evolve_scan`` from a basis and those
# sites.
_OBSERVABLES = {"corr": (2, fock.bilinear_operator), "occ": (1, fock.number_operator),
                "charge": (0, fock.charge_operator), "number": (0, fock.total_number_operator),
                "purity": (0, lambda basis: "purity")}


def parse_observable(name: str, n_sites: int) -> tuple[Callable, tuple[int, ...]]:
    """An observable entry as the builder of its readout and its sites:
    ``corr:i,j`` for <f!_i f_j>, ``occ:i``, ``charge``, ``number`` or
    ``purity``. Raises :class:`ConfigError` naming the entry when it is none
    of these or names a site outside 1..``n_sites``."""
    kind, colon, rest = name.partition(":") if isinstance(name, str) else ("", "", "")
    arity, build = _OBSERVABLES.get(kind, (None, None))
    try:
        sites = tuple(int(part) for part in rest.split(",")) if colon else ()
    except ValueError:
        sites = None
    if arity is None or sites is None or len(sites) != arity \
            or not all(1 <= site <= n_sites for site in sites):
        raise ConfigError(f"observables: {name!r} is not one of corr:i,j, occ:i, charge, "
                          f"number, purity with sites in 1..{n_sites}")
    return build, sites


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
        if not isinstance(self.observables, tuple):
            raise ConfigError(f"observables: need a list of names, got {self.observables!r}")
        if self.kind == "evolve":       # the one kind that reads its observables
            for name in self.observables:
                parse_observable(name, self.lattice.n_sites)
        if self.kind == "correlation-map" and self.lattice.interaction:
            raise ConfigError("lattice.interaction: correlation-map needs a quadratic model "
                              f"(interaction = 0), got {self.lattice.interaction}")
        bits, modes = self.initial_state.bitstring, self.initial_state.modes
        n_sites = self.lattice.n_sites
        if modes is not None and max(modes) > n_sites:
            raise ConfigError(f"initial_state.modes: need distinct integers in 1..{n_sites}, "
                              f"got {modes!r}")
        for block in ("quench", "scan"):     # required where the kind's default has one
            if block in _DEFAULTS[self.kind] and getattr(self, block) is None:
                raise ConfigError(f"{block}: block required for kind {self.kind!r}")
        first = (self.time_grid.points or (self.time_grid.start,))[0]     # builds no grid
        if self.kind == "fock-quench" and self.quench.time != "auto" and self.quench.time < first:
            raise ConfigError(f"quench.time: {self.quench.time:g} is earlier than the "
                              f"first time_grid time {first:g}")
        if self.kind == "concurrence-scan":
            sizes, fillings = self.scan.sizes, self.scan.fillings
            scanned = [n for n in sizes if any(2 * k <= n + 1 for k in fillings)]
            if not scanned:
                raise ConfigError(f"scan.fillings: none of {fillings!r} is at most (size + 1) / 2 "
                                  f"for a size in {sizes!r}; nothing to scan")
            center = self.lattice.trap_center
            if center is not None and center > min(scanned):
                raise ConfigError(f"lattice.trap_center: site {center} lies beyond the "
                                  f"smallest scanned size {min(scanned)}")
        if self.kind in ("robustness-aa", "robustness-int"):
            if self.lattice.n_sites < 3:
                raise ConfigError(f"lattice.n_sites: kind {self.kind!r} needs an end-to-end pair, "
                                  f"so at least 3 sites, got {self.lattice.n_sites}")
            if not self.scan.times:
                raise ConfigError(f"scan.times: required for kind {self.kind!r}")
            if self.kind == "robustness-int" and len(self.scan.times) > 1:
                raise ConfigError("scan.times: robustness-int samples one time, "
                                  f"got {self.scan.times!r}")
        if bits is not None and len(bits) != n_sites:
            raise ConfigError(f"initial_state.bitstring: {bits!r} has {len(bits)} sites, "
                              f"but lattice.n_sites is {n_sites}")
        if self.kind == "correlation-map" and not self.initial_state.n_particles():
            raise ConfigError("initial_state.bitstring: correlation-map needs at least one "
                              f"particle, got {bits!r}")
        gamma = self.lattice.dephasing_gamma
        if gamma > DEPHASING_RATE_LIMIT and (self.kind in ("steady", "correlation-map") or (
                self.kind == "concurrence-scan" and self.scan.dynamical)):
            raise ConfigError(
                f"lattice.dephasing_gamma: {gamma:g} is beyond {DEPHASING_RATE_LIMIT:.3g}, where "
                "the rounding of the steady state no longer meets its residual tolerance "
                f"{STEADY_RESIDUAL_TOL:g}")
        for lattice, particles, sources in self._diagonalized():
            terms = lattice.energy_terms(particles)
            if sum(terms.values()) > ENERGY_SCALE_LIMIT:
                name = max(terms, key=terms.get)
                raise ConfigError(
                    f"{sources.get(name, 'lattice.' + name)}: {getattr(lattice, name):g} bounds "
                    f"||H|| by {sum(terms.values()):.3g} with {particles} particle(s) on "
                    f"{lattice.n_sites} sites, beyond {ENERGY_SCALE_LIMIT:.3g}, where eigh's "
                    f"rounding no longer meets the symmetry-block tolerance {BLOCK_JUMP_TOL:g}")

    def _diagonalized(self) -> list[tuple[LatticeSpec, int, dict[str, str]]]:
        """Each lattice whose Hamiltonian the run diagonalizes (of a scan, the
        one with the largest scanned value), with its particle number and the
        config path of each lattice field that the kind sets from another block."""
        lattice, particles = self.lattice, self.initial_state.n_particles()
        if self.kind == "correlation-map":      # the two-point equation's one-particle H
            return [(lattice, 1, {})]
        if self.kind == "concurrence-scan":
            return [(dataclasses.replace(lattice, n_sites=n), k, {}) for n in self.scan.sizes
                    for k in self.scan.fillings if self.scan.dynamical and 2 * k <= n + 1]
        if self.kind == "fock-quench":
            trapped = dataclasses.replace(lattice, trap_amplitude=self.quench.trap_amplitude)
            return [(lattice, particles, {}),
                    (trapped, particles, {"trap_amplitude": "quench.trap_amplitude"})]
        if self.kind in ("robustness-aa", "robustness-int"):
            name = "aa_amplitude" if self.kind == "robustness-aa" else "interaction"
            source = {name: "scan.max_value" if self.scan.values is None else "scan.values"}
            scan = self.scan        # the largest of grid(), which may be too long to build
            largest = float(max(scan.values) if scan.values is not None
                            else scan.max_value * (scan.n_values > 1))
            return [(dataclasses.replace(lattice, **{name: largest}), particles, source)]
        return [(lattice, particles, {})]


def _tupled(value):
    return tuple(value) if isinstance(value, (list, tuple)) else value


def config_from_dict(payload: dict) -> ExperimentConfig:
    """Build and validate a config from plain dictionaries."""
    if not isinstance(payload, dict):
        raise ConfigError("config: expected a JSON object")
    unknown = set(payload) - {f.name for f in dataclasses.fields(ExperimentConfig)}
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
    tol = payload.get("convergence_tol", 1e-9)
    if not is_finite_number(tol) or tol <= 0:
        raise ConfigError(f"convergence_tol: need a positive finite number, got {tol!r}")
    return ExperimentConfig(
        kind=payload.get("kind", ""),
        lattice=lattice,
        initial_state=initial,
        time_grid=grid,
        observables=_tupled(payload.get("observables", ())),
        quench=quench,
        scan=scan,
        convergence_tol=float(tol),
    )


def config_to_dict(config: ExperimentConfig) -> dict:
    """The plain-JSON form of ``config`` that :func:`config_from_dict` reads
    back: unset (``None``) fields are left out and tuples become lists."""
    def plain(obj):
        if isinstance(obj, dict):
            return {k: plain(v) for k, v in obj.items() if v is not None}
        if isinstance(obj, tuple):
            return [plain(v) for v in obj]
        return obj

    return plain(dataclasses.asdict(config))


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
    if kind not in _DEFAULTS:
        raise ConfigError(f"kind: unknown experiment {kind!r}")
    return config_from_dict({"kind": kind, **_DEFAULTS[kind]})
