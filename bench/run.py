"""Benchmark of shipat: cold-process workloads, end-to-end and per-layer metrics.

Usage, from the repository root:

    python3 bench/run.py --workload brute-avoid --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --smoke            # every workload at small sizes

Load shape: a closed loop driven by this process.  Each repetition is one
fresh worker interpreter (``worker.py``), and only one runs at a time, so
every repetition pays the cold cost a CLI user pays: the containment memo
and the ``lru_cache`` of ``shipat`` start empty.  Repetitions continue
until ``--seconds`` have passed (at least three, four when traced); the
end-to-end metrics are medians over them.  The only extra parallelism is
the CLI's own ``--jobs 2`` in ``cli-verify``.

Workloads (the inputs come from ``--seed``; shipat only sees words,
patterns and sizes):

* ``brute-avoid``: ``count_avoiders_brute`` for every family at k = 2, 3
  and n = 0..6, then ``enumerate_paths`` streamed over prefix shards.
  One operation is one host path tested, by a brute count or the stream.
* ``poset-queries``: lower and upper covers and their closed counts for
  uniform paths of semilength 30, 60 and 90 and one path per dispatch
  branch, then single ``contains_pattern`` queries on unrelated pairs.
  One operation is one cover set (lower or upper, with its closed count)
  or one containment answered; the number of covers emitted varies with
  the seed, so it is a per-layer count instead.
* ``closed-scale``: ``count_avoiders_closed`` at n ~ 200 for all families,
  ``bounded_height_count`` at n ~ 600, ``f_count`` and the closed cover
  counts on paths of semilength 1000..1600.  One operation is one value.
* ``cli-verify``: ``python -m shipat.cli`` subprocesses (verify and brute
  counting with --jobs 1 and 2, both-method counting, poset, covers, and
  misuse that must exit 2).  One operation is one command.

End-to-end metrics (``--trace 0``), medians over the repetitions:
``run_s`` (timed phase of one repetition), ``ops_per_s``, ``setup_s``
(worker spawn to ready; for ``cli-verify`` one bare
``python -c "import shipat.cli"``) and ``peak_rss_mb`` (the worker's own
RUSAGE_SELF maximum; for ``cli-verify`` the largest wait4 maximum of one
command, which covers that command's own workers).  ops_failed_ratio is
``failed / attempted`` of the result line.  Every output is checked
against an oracle after the timed phase.

Times are in reference seconds.  The speed of a small shared machine
drifts by a fifth or more over tens of seconds, which no median within one
run removes.  So each worker times a reference right before and after its
timed phase (a fixed pure-Python loop, or a bare ``python -c pass`` for
``cli-verify``), and each time is scaled to a machine on which that
reference takes its nominal duration (``worker.REFERENCES``).  The plain
wall-time medians are printed as well.

Per-layer metrics (``--trace 1``): repetitions alternate untraced and
traced; spans placed around the benchmark's own calls into each layer give
self times and counts, and ``trace.overhead_s`` is the traced minus the
untraced median ``run_s``.  A layer a workload does not touch reads 0.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import corpus
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

END_TO_END = {"run_s": "s", "ops_per_s": "1/s", "setup_s": "s",
              "peak_rss_mb": "MB"}

CLI_COMMANDS = ("verify_j1", "verify_j2", "count_avoiders_brute_j1",
                "count_avoiders_brute_j2", "count_avoiders_both", "poset",
                "covers_both", "misuse")
PER_LAYER = {
    "core.parse_s": "s", "core.parse_calls": "count",
    "core.enumerate_s": "s", "core.paths_enumerated": "count",
    "avoidance.brute_s": "s", "avoidance.brute_hosts": "count",
    "avoidance.brute_avoiders": "count",
    "poset.lower_covers_s": "s", "poset.lower_covers_out": "count",
    "poset.upper_covers_s": "s", "poset.upper_covers_out": "count",
    "poset.contains_s": "s", "poset.contains_calls": "count",
    "poset.contains_true": "count",
    "covers.classify_s": "s", "covers.count_lower_s": "s",
    "covers.count_upper_s": "s",
    **{f"covers.branch.{b}": "count" for b in corpus.BRANCHES},
    "avoidance.closed_s": "s", "avoidance.closed_calls": "count",
    "avoidance.f_count_s": "s", "avoidance.bounded_height_s": "s",
    **{f"cli.{c}_s": "s" for c in CLI_COMMANDS},
    "cli.jobs1_s": "s", "cli.jobs2_speedup": "ratio",
    "verify.checks_passed": "count",
    "trace.overhead_s": "s",
}

WORKLOADS = tuple(workloads.WORKLOADS)
REP_TIMEOUT_S = 120


def run_rep(workload: str, seed: int, scale: str, traced: bool,
            env: dict[str, str]) -> dict:
    argv = [sys.executable, str(BENCH / "worker.py"), workload, str(seed),
            scale, "1" if traced else "0"]
    spawned = time.monotonic()
    proc = subprocess.run(argv + [repr(spawned)], env=env, stdout=subprocess.PIPE,
                          text=True, timeout=REP_TIMEOUT_S)
    if proc.returncode:
        raise RuntimeError(f"{workload} worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def reference_scaled(rep: dict) -> tuple[float, float]:
    """(set-up, timed phase) of one repetition in reference seconds.

    Each wall time is multiplied by the nominal duration of the worker's
    reference and divided by the reference as timed next to it.
    """
    nominal = rep["ref_nominal_s"]
    around = (rep["ref_before_s"] + rep["ref_after_s"]) / 2
    return (rep["setup_s"] * nominal / rep["ref_before_s"],
            rep["run_s"] * nominal / around)


def measure(workload: str, seed: int, seconds: float, trace: bool,
            scale: str, env: dict[str, str]) -> dict:
    """Closed loop of cold repetitions; returns the result object."""
    min_reps = (2 if trace else 1) if scale == "smoke" else (4 if trace else 3)
    reps: list[tuple[bool, dict]] = []
    start = time.monotonic()
    while len(reps) < min_reps or time.monotonic() - start < seconds:
        traced = trace and len(reps) % 2 == 1
        reps.append((traced, run_rep(workload, seed, scale, traced, env)))
    attempted = sum(rep["attempted"] for _, rep in reps)
    failed = sum(rep["failed"] for _, rep in reps)
    plain = [rep for traced, rep in reps if not traced]
    setup_ref, run_ref = zip(*map(reference_scaled, plain))
    if trace:
        traced_reps = [rep for traced, rep in reps if traced]
        metrics = {name: statistics.median_low(rep["layers"].get(name, 0)
                                               for rep in traced_reps)
                   for name in PER_LAYER}
        metrics["trace.overhead_s"] = statistics.median(
            reference_scaled(rep)[1] for rep in traced_reps) - statistics.median(run_ref)
        units = PER_LAYER
    else:
        metrics = {
            "run_s": statistics.median(run_ref),
            "ops_per_s": statistics.median(rep["attempted"] / run
                                           for rep, run in zip(plain, run_ref)),
            "setup_s": statistics.median(setup_ref),
            "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in plain),
        }
        units = END_TO_END
    wall = {name: statistics.median(rep[name] for rep in plain)
            for name in ("run_s", "setup_s", "ref_before_s")}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()},
            "repetitions": len(reps), "wall": wall}


def report(workload: str, result: dict) -> None:
    """Human-readable lines, then the result object as the last line."""
    for name, metric in result["metrics"].items():
        print(f"{workload} {name} {metric['value']} {metric['unit']}")
    ratio = result["failed"] / result["attempted"]
    print(f"{workload} ops_failed_ratio {ratio} ratio "
          f"({result['failed']}/{result['attempted']} operations, "
          f"{result.pop('repetitions')} cold repetitions)")
    for name, value in result.pop("wall").items():
        print(f"{workload} wall median {name} {value} s")
    print(json.dumps(result))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload once at small sizes")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if not (ROOT / "src" / "shipat" / "__init__.py").is_file():
        print(f"error: no shipat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    # Compile the sources once, untimed, so no repetition pays for it.
    subprocess.run([sys.executable, "-c", "import shipat.cli"], env=env, check=True)
    correct = True
    for workload in WORKLOADS if args.smoke else (args.workload,):
        result = measure(workload, args.seed, 0 if args.smoke else args.seconds,
                         bool(args.trace), "smoke" if args.smoke else "full", env)
        correct &= result["correct"]
        report(workload, result)
    return 0 if correct or not args.smoke else 1


if __name__ == "__main__":
    sys.exit(main())
