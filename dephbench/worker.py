"""One benchmark round in a fresh process.

    python3 worker.py --payload config.json --out DIR [--spans FILE] [--setup-only]

Times ``import dephchain`` plus building the config (``setup_s``), then one
``dephchain.experiments.run`` call that writes its outputs to ``--out``
(``run_s``), and reports the process's peak resident memory. With
``--spans`` every public call into the layers is traced and the spans are
written to that file at the end. Prints one JSON record as its last line.
Only the standard library is imported before the timed import.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "scipy": sys.modules["scipy"].__version__,
        "cores": len(os.sched_getaffinity(0)),
        "blas_threads": {k: v for k, v in sorted(os.environ.items())
                         if k.endswith("_NUM_THREADS")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--payload", required=True)
    parser.add_argument("--out")
    parser.add_argument("--spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    payload = json.loads(Path(args.payload).read_text(encoding="utf-8"))

    start = time.perf_counter()
    import dephchain
    from dephchain import config, experiments
    cfg = config.config_from_dict(payload)
    record = {"setup_s": time.perf_counter() - start}
    if Path(dephchain.__file__).resolve().parent.parent != SRC:
        print(f"dephchain imported from {dephchain.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    record["env"] = environment()

    if not args.setup_only:
        tracer = None
        if args.spans:
            import tracing
            tracer = tracing.Tracer()
            tracing.install(tracer)
        start = time.perf_counter()
        experiments.run(cfg, out_dir=args.out)
        record["run_s"] = time.perf_counter() - start
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            tracer.dump(Path(args.spans))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
