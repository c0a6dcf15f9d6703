"""One repetition of one workload, in a fresh interpreter.

Usage: worker.py WORKLOAD SEED SCALE TRACE SPAWNED

SPAWNED is the ``time.monotonic()`` reading ``run.py`` took just before
starting this process, so set-up time covers interpreter start, imports
and input generation.  Prints one JSON object: the wall times of set-up
and of the timed phase, the reference passes around the timed phase,
peak_rss_mb, attempted, failed and the tracer summary.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time

from spans import Tracer
from workloads import SIZES, WORKLOADS, make_rng, spawn


def reference_pass() -> float:
    """Seconds taken by a fixed pure-Python loop of string and dict work.

    It calls nothing from shipat, so its time tracks only how fast the
    machine runs the interpreter at that moment.
    """
    start = time.perf_counter()
    seen: dict[str, int] = {}
    word = ""
    for i in range(250_000):
        word = (word + ("U" if i % 3 else "D"))[-24:]
        seen[word] = seen.get(word, 0) + word.count("U") - i % 5
    return time.perf_counter() - start


def reference_spawn() -> float:
    """Median seconds to start and stop a bare ``python -c pass``, of three.

    The CLI workload's time is mostly interpreter start-up, which drifts
    apart from in-process work, so it is scaled by this instead.
    """
    return statistics.median(
        spawn([sys.executable, "-c", "pass"], os.environ)[0] for _ in range(3))


# The reference of each kind of workload and its nominal duration: run.py
# reports times scaled to a machine on which the reference takes
# exactly the nominal seconds.
REFERENCES = {"in-process": (reference_pass, 0.1), "cli": (reference_spawn, 0.08)}


def main(argv: list[str]) -> int:
    workload, seed, scale, trace, spawned = argv
    setup, run, check = WORKLOADS[workload]
    tracer = Tracer(trace == "1")
    rng = make_rng(int(seed), workload)
    reference, nominal = REFERENCES["cli" if workload == "cli-verify" else "in-process"]
    inputs = setup(rng, SIZES[workload][scale], tracer)
    if workload == "cli-verify":
        env = dict(os.environ)
        setup_s, code, _, _ = spawn([sys.executable, "-c", "import shipat.cli"], env)
        if code:
            print("importing shipat.cli failed", file=sys.stderr)
            return 1
        ref_before = reference()
        start = time.perf_counter()
        outputs = run(inputs, tracer, env)
        run_s = time.perf_counter() - start
        peak_rss_mb = max(rss for _, _, rss, _ in outputs["results"])
    else:
        setup_s = time.monotonic() - float(spawned)
        ref_before = reference()
        start = time.perf_counter()
        outputs = run(inputs, tracer)
        run_s = time.perf_counter() - start
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ref_after = reference()
    attempted, failed = check(inputs, outputs)
    layers = tracer.summary()
    if workload == "cli-verify" and tracer.enabled:
        jobs1 = layers["cli.verify_j1_s"] + layers["cli.count_avoiders_brute_j1_s"]
        jobs2 = layers["cli.verify_j2_s"] + layers["cli.count_avoiders_brute_j2_s"]
        layers["cli.jobs1_s"] = jobs1
        layers["cli.jobs2_speedup"] = jobs1 / jobs2
    print(json.dumps({"setup_s": setup_s, "run_s": run_s,
                      "ref_before_s": ref_before, "ref_after_s": ref_after,
                      "ref_nominal_s": nominal,
                      "peak_rss_mb": peak_rss_mb, "attempted": attempted,
                      "failed": failed, "layers": layers}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
