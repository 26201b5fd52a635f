"""Every payload either runs or is a config error that names its field.

Two properties over config payloads, run through ``cli.main`` in-process:
one-field mutations of each kind's default, checked with ``--dump-config``,
and small bounded payloads that run to the end.
"""

import contextlib
import io
import json
import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from dephchain.cli import main
from dephchain.config import _DEFAULTS, EXPERIMENT_KINDS, config_from_dict, config_to_dict

# Every field of every block, whether or not a kind reads it, an unknown key
# in each block, and the top-level fields.
FIELDS = [
    *(f"lattice.{name}" for name in ("n_sites", "tunneling", "dephasing_gamma", "aa_amplitude",
                                     "aa_frequency", "trap_amplitude", "trap_center",
                                     "interaction")),
    "initial_state.type", "initial_state.bitstring", "initial_state.modes",
    "time_grid.start", "time_grid.stop", "time_grid.num", "time_grid.points",
    "quench.time", "quench.trap_amplitude", "quench.window", "quench.transient",
    *(f"scan.{name}" for name in ("values", "n_values", "max_value", "times", "sizes",
                                  "fillings", "dynamical")),
    *(f"{block}.bogus" for block in ("lattice", "initial_state", "time_grid", "quench", "scan")),
    "observables", "convergence_tol", "kind", "bogus",
]

# Wrong types, non-finite, negative, zero, fractional and huge numbers, and
# lists that are empty or hold the wrong content.
BAD_VALUES = [
    True, False, None, "x", "", "0101", "auto", math.nan, math.inf, -math.inf,
    -1, -0.5, 0, 0.0, 0.5, 2.5, 4, 1e300, 2 ** 62,
    [], ["x"], [0], [1], [4], [1, 1], [99], [1.5], [-1.0], [5.0, -1.0], [math.nan], [True],
    [[1]], {}, {"a": 1},
]


def _cli(*argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _mutated(kind: str, field: str, value) -> dict:
    payload = json.loads(json.dumps({"kind": kind, **_DEFAULTS[kind]}))
    *blocks, name = field.split(".")
    node = payload
    for block in blocks:
        node = node.setdefault(block, {})
    node[name] = value
    return payload


@settings(max_examples=500, deadline=None, derandomize=True)
@given(kind=st.sampled_from(EXPERIMENT_KINDS), field=st.sampled_from(FIELDS),
       value=st.sampled_from(BAD_VALUES))
@example(kind="evolve", field="scan.sizes", value=[4])
@example(kind="steady", field="initial_state.modes", value=[0])
def test_a_mutated_payload_validates_or_is_a_config_error_naming_its_field(
        tmp_path_factory, kind, field, value):
    path = tmp_path_factory.getbasetemp() / "mutated.json"
    path.write_text(json.dumps(_mutated(kind, field, value)))
    code, out, err = _cli(kind, "--config", str(path), "--dump-config")
    if code == 0:
        dumped = json.loads(out)
        assert config_to_dict(config_from_dict(dumped)) == dumped
    else:
        assert code == 2 and err.startswith("config error:"), (code, err)
        assert field.split(".")[0] in err, err      # the field, or at least its block


def _small_grid(draw) -> dict:
    start = draw(st.floats(0.0, 20.0))
    return {"start": start, "stop": draw(st.floats(start + 1.0, 40.0)),
            "num": draw(st.integers(1, 41))}


@st.composite
def small_payloads(draw) -> dict:
    """A payload of any kind on 3 or 5 sites with bounded values: gamma <= 20,
    amplitudes <= 2, times <= 40 and grids of at most 41 points."""
    kind = draw(st.sampled_from(EXPERIMENT_KINDS))
    n = draw(st.sampled_from([3, 5]))
    amplitude = st.just(0.0) | st.floats(0.0, 2.0)
    times = st.lists(st.floats(0.0, 40.0), min_size=1, max_size=3).map(sorted)
    payload = {
        "kind": kind,
        "lattice": {"n_sites": n, "dephasing_gamma": draw(st.floats(0.0, 20.0)),
                    "aa_amplitude": draw(amplitude), "trap_amplitude": draw(amplitude),
                    "trap_center": draw(st.none() | st.integers(1, n)),
                    "interaction": draw(amplitude)},
        "initial_state": {"type": draw(st.sampled_from(["ground", "fock", "slater"]))},
        "time_grid": _small_grid(draw),
    }
    state = payload["initial_state"]
    if state["type"] == "fock":
        state["bitstring"] = draw(st.text("01", min_size=n, max_size=n))
    if state["type"] == "slater":
        state["modes"] = draw(st.lists(st.integers(1, n), min_size=1, max_size=n, unique=True))
    if kind == "evolve":
        payload["observables"] = draw(st.lists(st.sampled_from(
            [f"corr:1,{n}", "occ:1", "charge", "number", "purity"]), unique=True))
    if kind == "fock-quench":
        payload["quench"] = {"time": draw(st.just("auto") | st.floats(0.0, 40.0)),
                             "trap_amplitude": draw(amplitude),
                             "window": draw(st.floats(0.5, 40.0)),
                             "transient": draw(st.floats(0.0, 40.0))}
    if kind == "concurrence-scan":
        payload["scan"] = {
            "sizes": draw(st.lists(st.sampled_from([3, 5]), min_size=1, unique=True)),
            "fillings": draw(st.lists(st.integers(1, 3), min_size=1, unique=True)),
            "dynamical": draw(st.booleans())}
    if kind.startswith("robustness"):
        payload["scan"] = {"n_values": draw(st.integers(1, 4)), "max_value": draw(amplitude),
                           "times": draw(times)[:1 if kind == "robustness-int" else 3]}
    return payload


@settings(max_examples=50, deadline=None, derandomize=True)
@given(payload=small_payloads())
@example(payload={  # no sample after the transient has a neighbour on both sides
    "kind": "fock-quench", "lattice": {"n_sites": 5},
    "initial_state": {"type": "fock", "bitstring": "10101"},
    "time_grid": {"start": 0.0, "stop": 10.0, "num": 101},
    "quench": {"time": "auto", "transient": 9.99}})
def test_a_small_payload_runs_or_is_a_config_error(tmp_path_factory, payload):
    base = tmp_path_factory.getbasetemp()
    (base / "small.json").write_text(json.dumps(payload))
    code, _, err = _cli(payload["kind"], "--config", str(base / "small.json"),
                        "--out", str(base / "small-run"))
    assert code in (0, 1, 3) or (code == 2 and err.startswith("config error:")), (code, err)
