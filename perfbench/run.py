"""Benchmark of the SEMINAL reproduction on the paper's workload.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fig7-corpus --seed 2007 --seconds 18 --trace 0

Workloads, each made from ``--seed`` (the program sees only the inputs):

``fig7-corpus``
    Every representative of two ``generate_corpus(scale=1.0, ...)`` study
    corpora drawn from the seed: the files the paper's Fig. 7 times, about
    340.  Parsed during set-up and passed to ``explain()`` as ASTs, one at
    a time (closed loop, one caller).  About 58 oracle calls per 13-16 decl
    file, so per-check overhead dominates.
``deep-weak``
    48 programs of 60-200 decls, every fifth binding a weak ``ref []`` and
    one ill-typed decl, in the first fifth for a third of the files and the
    last fifth for the rest.  Given to ``explain()`` as source text,
    serially.  The reuse tiers, the keyer and the parser carry this one.
``course-batch``
    80 recompile loops of a course, 16 from each of its five assignments
    (two files each, in timestamp order), as source text, through ``explain_many`` into a fresh empty
    store, the path of ``repro explain --store DIR FILE...``.  Every second
    file repeats an earlier source, so store reads sit beside store
    writes.  Timed at ``jobs=1``; the traced run adds one
    ``jobs=<cpus>`` pass for the fan-out metrics.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones from a traced run.  Each metric is printed by name with its unit; the
last line of standard output is the JSON result.  End-to-end timings are
scaled to a reference machine speed measured next to the program (see
``calibrate.py``); the unscaled figures are printed above them.  Every
answer is checked against a from-scratch reference after the timed region.
Exit status is 0 when the run completed (check ``correct`` for the
answers), 2 on bad arguments or when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"


def _use_checkout_source() -> None:
    """Import the program from this checkout's ``src``, never from elsewhere."""
    if not (SOURCE / "repro" / "__init__.py").is_file():
        raise ImportError(f"no program sources at {SOURCE}")
    sys.path.insert(0, str(SOURCE))
    import repro

    if Path(repro.__file__).resolve().parent != SOURCE / "repro":
        raise ImportError(f"repro was imported from {repro.__file__}, not {SOURCE}")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("fig7-corpus", "deep-weak", "course-batch"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def result_json(result) -> str:
    """The one-line JSON result the last line of output carries."""
    return json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result.metrics.items()
        },
    })


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        _use_checkout_source()
    except ImportError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    from workloads import run_workload

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for line in result.notes:
        print(line)
    for name, (value, unit) in result.metrics.items():
        print(f"{name:<24} {value:14.6f} {unit}")
    print(f"{'failed_frac':<24} {result.failed / result.attempted:14.6f} ratio "
          f"({result.failed} of {result.attempted} attempts)")
    for problem in result.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(result_json(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
