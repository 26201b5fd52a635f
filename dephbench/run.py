"""Run one dephchain benchmark workload, check its outputs, print its metrics.

    python3 dephbench/run.py --workload quench --seed 0 --seconds 5 --trace 0

Each round runs the workload's config through ``dephchain.experiments.run``
in a fresh worker process (``worker.py``) built from ``src/`` of this
checkout, with as many BLAS threads as the process may use cores, and writes
the outputs under ``dephbench/out/<workload>/``. Every round is one
operation: it fails when the worker fails, and its outputs are then checked
against the independent references in ``checks.py``.

``--trace 0`` runs rounds until ``--seconds`` have passed (at least one) and
reports the end-to-end metrics: the median ``setup_s`` over several
set-up-only workers and the rounds, and the median ``run_s`` and
``peak_rss_mb`` over the rounds. ``--trace 1`` runs one untraced and one
traced round and reports the per-layer metrics of the traced one.

Each metric is printed by name and unit; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. The exit code is 0 when a result is printed, 1 when no round
succeeded and 2 when the checkout has no ``src/dephchain``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_PROBES = 4
DEADLINE_S = 170.0
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _worker(payload: Path, deadline: float, *extra: str) -> dict | None:
    """Run worker.py to completion (killed at the deadline); its JSON record,
    or None when it failed."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--payload", str(payload), *extra],
        env=env, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dephchain" / "__init__.py").is_file():
        print(f"no dephchain sources at {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    threads = str(len(os.sched_getaffinity(0)))
    os.environ.update({var: threads for var in BLAS_VARS})
    import checks
    import tracing

    payload = workloads.payload(args.workload, args.seed)
    out = OUT / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    payload_path = out / "config.json"
    payload_path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    def probe(count: int) -> list:
        return [] if args.trace else [_worker(payload_path, deadline, "--setup-only")
                                      for _ in range(count)]

    # Set-up probes before and after the rounds, so that their median spans
    # the whole run rather than one moment of the machine's load.
    probes = probe(SETUP_PROBES // 2)
    rounds, problems, attempted, failed = [], [], 0, 0
    started = time.monotonic()
    while True:
        round_dir = out / f"round-{attempted}"
        traced = bool(args.trace) and attempted == 1
        extra = ["--out", str(round_dir / "outputs")]
        if traced:
            extra += ["--spans", str(round_dir / "spans.json")]
        t0 = time.monotonic()
        record = _worker(payload_path, deadline, *extra)
        attempted += 1
        if record is None:
            failed += 1
        else:
            try:
                found = checks.CHECKS[args.workload](payload, round_dir / "outputs")
            except Exception as exc:  # a malformed output is a wrong output
                found = [f"check raised {exc!r}"]
            problems += [f"round {attempted - 1}: {p}" for p in found]
            record["traced"] = traced
            rounds.append(record)
        now = time.monotonic()
        if args.trace:
            if attempted == 2:
                break
        elif now - started >= args.seconds or now + (now - t0) > deadline:
            break

    probes += probe(SETUP_PROBES - SETUP_PROBES // 2)
    plain = [r for r in rounds if not r["traced"]]
    if not plain or (args.trace and len(rounds) < 2):
        print(f"{args.workload}: {failed} of {attempted} rounds failed; no metrics",
              file=sys.stderr)
        return 1
    if args.trace:
        spans = json.loads((out / "round-1" / "spans.json").read_text(encoding="utf-8"))
        metrics, self_total = tracing.layer_metrics(spans["spans"], spans["counters"])
        traced_run = rounds[1]["run_s"]
        if abs(self_total - traced_run) > 1e-3 * traced_run + 1e-3:
            problems.append(f"layer self times sum to {self_total:.6f} s, "
                            f"traced run_s is {traced_run:.6f} s")
        metrics["trace.overhead_s"] = (traced_run - plain[0]["run_s"], "s")
    else:
        setups = [p["setup_s"] for p in probes if p] + [r["setup_s"] for r in plain]
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "run_s": (statistics.median(r["run_s"] for r in plain), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in plain), "MB"),
        }

    for problem in problems:
        print(f"CHECK FAILED {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    run_record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "env": plain[0]["env"], "rounds": rounds, "problems": problems}
    print("environment: " + json.dumps(run_record["env"], sort_keys=True))
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    (out / "run.json").write_text(json.dumps({**run_record, **result}, indent=2) + "\n",
                                  encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
