"""The four benchmark workloads.

Each workload is three functions, run by ``worker.py`` in a fresh
interpreter so that the process-global caches of ``shipat`` start cold:

* ``setup(rng, size, tracer)`` draws the inputs from the seed and parses them;
* ``run(inputs, tracer)`` makes the timed calls through the public API and
  returns the outputs; a call that raises yields ``None``;
* ``check(inputs, outputs)`` compares the outputs with the oracles after
  the timed phase and returns (operations attempted, operations failed).

``cli-verify`` runs the CLI as subprocesses instead; see ``cli_run``.
Spans and counters go to the tracer, whose names become the per-layer
metrics.
"""

from __future__ import annotations

import hashlib
import os
import random
import subprocess
import sys
import time

import corpus
import oracles

# Sizes of the full benchmark and of the smoke mode.
SIZES = {
    "brute-avoid": {
        "full": {"n_max": 6, "prefix_len": 5},
        "smoke": {"n_max": 4, "prefix_len": 3},
    },
    "poset-queries": {
        "full": {"uniform": (30, 60, 90), "shaped": 40, "deletion_host": 12,
                 "deletion_pairs": 200, "family_host": 11, "family_pairs": 40},
        "smoke": {"uniform": (8, 12), "shaped": 6, "deletion_host": 7,
                  "deletion_pairs": 4, "family_host": 7, "family_pairs": 4},
    },
    "closed-scale": {
        "full": {"avoid_n": (198, 202), "height_n": (595, 605),
                 "strip_m": (1400, 1500), "strip_k": (5, 6), "strips": 3,
                 "uniform": (1000, 1200, 1400, 1600), "shaped": 1000},
        "smoke": {"avoid_n": (20, 25), "height_n": (30, 40),
                  "strip_m": (30, 40), "strip_k": (2, 8), "strips": 2,
                  "uniform": (20,), "shaped": 10},
    },
    "cli-verify": {
        "full": {"verify_n": 4, "brute_n": 7, "both_n": 6, "poset_size": 6,
                 "covers_s": 60},
        "smoke": {"verify_n": 3, "brute_n": 4, "both_n": 4, "poset_size": 3,
                  "covers_s": 8},
    },
}

# sha256 of the stdout of `verify --suite all --n-max N` and of
# `poset --max-size N`, as printed by the seed version of shipat.
VERIFY_SHA256 = {
    3: "005c6383ad1fbb50340b4d0d90ba36729d7ea24116d2a7c947e54ab4b7acf791",
    4: "b538a922266f400ae1876abe134b9875ddce2f6f4ee741e6390d26eb89a108ac",
}
POSET_SHA256 = {
    3: "51b864397921adeb983e4dfd73acdc448d082dc983bc249fc26cb72813b843a3",
    6: "cc5906fb1d860fd20d1aca04b661971ce5a65aa84082245b17a8ef305e8646de",
}


def _attempt(fn, *args):
    """Call fn; a raised exception becomes ``None`` (a failed operation)."""
    try:
        return fn(*args)
    except Exception as exc:  # the benchmark counts it and keeps going
        print(f"operation {fn.__name__}{args!r} raised {exc!r}", file=sys.stderr)
        return None


def _parse(words, tracer):
    from shipat import core
    paths = []
    for word in words:
        with tracer.span("core.parse"):
            paths.append(core.parse_path(word))
    tracer.count("core.parse_calls", len(words))
    return paths


def _census(paths, tracer):
    """Classify every path (timed), counting the paths per dispatch branch."""
    from shipat import covers
    for p in paths:
        with tracer.span("covers.classify"):
            branch = covers.classify_branch(p)
        tracer.count("covers.branch." + branch)


# ---------------------------------------------------------------------------
# brute-avoid: brute avoider counts, then a sharded path enumeration
# ---------------------------------------------------------------------------


def brute_setup(rng, size, tracer):
    # Every (family, k) once, in seeded order: a pattern repeated within one
    # process would be answered from the warm containment memo.
    queries = [(tag, k) for tag in corpus.FAMILIES for k in (2, 3)]
    rng.shuffle(queries)
    patterns = _parse([corpus.family_word(tag, k) for tag, k in queries], tracer)
    s = size["n_max"] + 1
    prefixes = corpus.dyck_prefixes(s, size["prefix_len"])
    rng.shuffle(prefixes)
    return {"queries": queries, "patterns": patterns, "n_max": size["n_max"],
            "s": s, "prefixes": prefixes}


def brute_run(inp, tracer):
    from shipat import avoidance, core
    counts = []
    for q in inp["patterns"]:
        row = []
        for n in range(inp["n_max"] + 1):
            with tracer.span("avoidance.brute"):
                value = _attempt(avoidance.count_avoiders_brute, q, n)
            tracer.count("avoidance.brute_hosts", oracles.catalan(n + 1))
            tracer.count("avoidance.brute_avoiders", value or 0)
            row.append(value)
        counts.append(row)
    shards = []
    for prefix in inp["prefixes"]:
        with tracer.span("core.enumerate"):
            streamed = _attempt(
                lambda: sum(1 for p in core.enumerate_paths(inp["s"], prefix)
                            if p.word.startswith(prefix)))
        tracer.count("core.paths_enumerated", streamed or 0)
        shards.append(streamed)
    return {"counts": counts, "shards": shards}


def brute_check(inp, out):
    from shipat import avoidance
    attempted = failed = 0
    for (tag, k), row in zip(inp["queries"], out["counts"]):
        for n, value in enumerate(row):
            hosts = oracles.catalan(n + 1)
            expected = {oracles.avoider_count(tag, k, n),
                        avoidance.count_avoiders_closed(tag, k, n)}
            if k == 2:
                expected.add(2 ** n if tag in ("te", "tf")
                             else n * (n + 1) // 2 + 1)
            attempted += hosts
            if expected != {value}:
                failed += hosts
    for prefix, streamed in zip(inp["prefixes"], out["shards"]):
        expected = oracles.completions(prefix, inp["s"])
        attempted += expected
        if streamed != expected:
            failed += expected
    return attempted, failed


# ---------------------------------------------------------------------------
# poset-queries: covers of long single paths, then unrelated containments
# ---------------------------------------------------------------------------


def poset_setup(rng, size, tracer):
    words = [corpus.uniform_dyck_word(rng, s) for s in size["uniform"]]
    words += [corpus.shaped_word(rng, b, size["shaped"]) for b in corpus.BRANCHES]
    # Hosts are small and deletions few because the search time per query
    # is heavy-tailed; many light queries keep the run-to-run spread low.
    pairs = []
    for _ in range(size["deletion_pairs"]):
        host = corpus.uniform_dyck_word(rng, size["deletion_host"])
        pattern = corpus.bounce_deletions(rng, host, rng.randint(2, 3))
        pairs.append((host, pattern, None))
    for _ in range(size["family_pairs"]):
        tag, k = rng.choice(corpus.FAMILIES), rng.choice((2, 3))
        host = corpus.uniform_dyck_word(rng, size["family_host"])
        pairs.append((host, corpus.family_word(tag, k), (tag, k)))
    rng.shuffle(pairs)
    paths = _parse(words, tracer)
    hosts = _parse([h for h, _, _ in pairs], tracer)
    patterns = _parse([q for _, q, _ in pairs], tracer)
    return {"words": words, "paths": paths, "pairs": pairs,
            "parsed_pairs": list(zip(hosts, patterns))}


def poset_run(inp, tracer):
    from shipat import covers, poset
    _census(inp["paths"], tracer)
    rows = []
    for p in inp["paths"]:
        with tracer.span("poset.lower_covers"):
            lower = _attempt(poset.lower_covers, p)
        with tracer.span("poset.upper_covers"):
            upper = _attempt(poset.upper_covers, p)
        count_lower = None
        if p.semilength:  # lower covers are undefined for the empty path
            with tracer.span("covers.count_lower"):
                count_lower = _attempt(covers.count_lower_covers, p)
        with tracer.span("covers.count_upper"):
            count_upper = _attempt(covers.count_upper_covers, p)
        tracer.count("poset.lower_covers_out", len(lower or ()))
        tracer.count("poset.upper_covers_out", len(upper or ()))
        rows.append((lower, upper, count_lower, count_upper))
    answers = []
    for host, pattern in inp["parsed_pairs"]:
        with tracer.span("poset.contains"):
            answer = _attempt(poset.contains_pattern, host, pattern)
        tracer.count("poset.contains_calls")
        tracer.count("poset.contains_true", answer is True)
        answers.append(answer)
    return {"rows": rows, "answers": answers}


def _words(paths):
    return None if paths is None else {p.word for p in paths}


def poset_check(inp, out):
    from shipat import avoidance, core
    failed = 0
    for word, (lower, upper, count_lower, count_upper) in zip(inp["words"], out["rows"]):
        want_lower = oracles.lower_cover_words(word)
        want_upper = oracles.upper_cover_words(word)
        failed += (_words(lower) != want_lower
                   or bool(word) and count_lower != len(want_lower))
        failed += _words(upper) != want_upper or count_upper != len(want_upper)
    for (host, _, family), answer in zip(inp["pairs"], out["answers"]):
        expected = (True if family is None else
                    not avoidance.avoids_characterized(core.parse_path(host), *family))
        failed += answer is not expected
    return 2 * len(inp["words"]) + len(inp["pairs"]), failed


# ---------------------------------------------------------------------------
# closed-scale: closed formulas at large sizes, no poset search
# ---------------------------------------------------------------------------


def closed_setup(rng, size, tracer):
    # The seed permutes the sizes k among the families rather than drawing
    # them freely, so the work per run (set mostly by the largest k of the
    # shared bounded-height memo) does not swing with the seed.
    sizes = dict(zip(("te", "tg", "tf"), rng.sample((4, 5, 6), 3)))
    sizes.update(zip(("tor", "tv"), rng.sample((4, 5), 2)))
    avoid = [(tag, sizes[tag], rng.randint(*size["avoid_n"]))
             for tag in corpus.FAMILIES]
    avoid += [("tv", k, n) for k in (5, 6) for n in range(14)]
    heights = [(rng.randint(*size["height_n"]), 5)]
    strips = []
    for _ in range(size["strips"]):
        m, k = rng.randint(*size["strip_m"]), rng.randint(*size["strip_k"])
        strips.append((m, m + rng.randint(0, k), k))
    words = [corpus.uniform_dyck_word(rng, s) for s in size["uniform"]]
    words += [corpus.shaped_word(rng, b, size["shaped"]) for b in corpus.BRANCHES]
    return {"avoid": avoid, "heights": heights, "strips": strips,
            "words": words, "paths": _parse(words, tracer)}


def closed_run(inp, tracer):
    from shipat import avoidance, covers
    avoid = []
    for tag, k, n in inp["avoid"]:
        with tracer.span("avoidance.closed"):
            avoid.append(_attempt(avoidance.count_avoiders_closed, tag, k, n))
    tracer.count("avoidance.closed_calls", len(inp["avoid"]))
    heights = []
    for n, k in inp["heights"]:
        with tracer.span("avoidance.bounded_height"):
            heights.append(_attempt(avoidance.bounded_height_count, n, k))
    strips = []
    for m, n, k in inp["strips"]:
        with tracer.span("avoidance.f_count"):
            strips.append(_attempt(avoidance.f_count, m, n, k))
    _census(inp["paths"], tracer)
    cover_counts = []
    for p in inp["paths"]:
        count_lower = None
        if p.semilength:  # lower covers are undefined for the empty path
            with tracer.span("covers.count_lower"):
                count_lower = _attempt(covers.count_lower_covers, p)
        with tracer.span("covers.count_upper"):
            count_upper = _attempt(covers.count_upper_covers, p)
        cover_counts.append((count_lower, count_upper))
    return {"avoid": avoid, "heights": heights, "strips": strips,
            "covers": cover_counts}


def closed_check(inp, out):
    from shipat import avoidance
    published = {5: oracles.TV5_TERMS, 6: oracles.TV6_TERMS}
    expected, got = [], []
    for (tag, k, n), value in zip(inp["avoid"], out["avoid"]):
        want = {oracles.avoider_count(tag, k, n)}
        if tag == "tv" and k in published and n < len(published[k]):
            want.add(published[k][n])
        expected.append(want)
        got.append(value)
    for (n, k), value in zip(inp["heights"], out["heights"]):
        expected.append({oracles.bounded_height(n, k)})
        got.append(value)
    for (m, n, k), value in zip(inp["strips"], out["strips"]):
        expected.append({avoidance.f_count_oracle(m, n, k)})
        got.append(value)
    for word, (count_lower, count_upper) in zip(inp["words"], out["covers"]):
        if word:
            expected.append({len(oracles.lower_cover_words(word))})
            got.append(count_lower)
        expected.append({len(oracles.upper_cover_words(word))})
        got.append(count_upper)
    failed = sum(want != {value} for want, value in zip(expected, got))
    return len(expected), failed


# ---------------------------------------------------------------------------
# cli-verify: one `python -m shipat.cli` subprocess per command
# ---------------------------------------------------------------------------


def spawn(argv, env):
    """Run argv to completion; return (seconds, exit code, stdout, max RSS in MB).

    The RSS comes from wait4 on this child alone (it includes the child's
    own waited-for workers), not from the running RUSAGE_CHILDREN maximum.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, env=env)
    stdout = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (time.perf_counter() - start, proc.returncode, stdout,
            usage.ru_maxrss / 1024)


def cli_setup(rng, size, tracer):
    """Draw the command list; no shipat import happens in this process."""
    brute = (rng.choice(corpus.FAMILIES), rng.choice((2, 3)))
    both = (rng.choice(corpus.FAMILIES), rng.choice((2, 3)))
    path = corpus.uniform_dyck_word(rng, size["covers_s"])
    bad_path = corpus.uniform_dyck_word(rng, 6)[:-1]
    verify = ["verify", "--suite", "all", "--n-max", str(size["verify_n"])]
    brute_args = ["count-avoiders", "--family", brute[0], "--k", str(brute[1]),
                  "--n-max", str(size["brute_n"]), "--method", "brute"]
    commands = [
        ("verify_j1", verify + ["--jobs", "1"], 0),
        ("verify_j2", verify + ["--jobs", "2"], 0),
        ("count_avoiders_brute_j1", brute_args + ["--jobs", "1"], 0),
        ("count_avoiders_brute_j2", brute_args + ["--jobs", "2"], 0),
        ("count_avoiders_both", ["count-avoiders", "--family", both[0],
                                 "--k", str(both[1]), "--n-max",
                                 str(size["both_n"]), "--method", "both"], 0),
        ("poset", ["poset", "--max-size", str(size["poset_size"])], 0),
        ("covers_both", ["covers", "--path", path, "--dir", "upper",
                         "--method", "both"], 0),
        ("misuse", ["covers", "--path", bad_path, "--dir", "lower"], 2),
        ("misuse", ["count-avoiders", "--family", brute[0], "--k", "1",
                    "--n-max", "3"], 2),
        ("misuse", ["poset", "--max-size", "0"], 2),
        ("misuse", ["region", "--area", "0,2"], 2),
    ]
    return {"size": size, "brute": brute, "both": both, "path": path,
            "commands": commands}


def cli_run(inp, tracer, env):
    """Time every command; returns per-command results and the peak RSS."""
    results = []
    for name, argv, _ in inp["commands"]:
        with tracer.span("cli." + name):
            seconds, code, stdout, rss = spawn(
                [sys.executable, "-m", "shipat.cli", *argv], env)
        results.append((code, stdout, rss, seconds))
        if name == "verify_j1":
            last = stdout.decode(errors="replace").strip().splitlines()[-1:]
            if last and last[0].endswith("checks passed"):
                tracer.count("verify.checks_passed", int(last[0].split("/")[0]))
    return {"results": results}


def _avoider_csv(tag, k, n_max, both):
    lines = ["n,count,count_brute,agree" if both else "n,count"]
    for n in range(n_max + 1):
        value = oracles.avoider_count(tag, k, n)
        lines.append(f"{n},{value},{value},AGREE" if both else f"{n},{value}")
    return "\n".join(lines) + "\n"


def cli_expected_stdout(inp):
    """sha256 of the stdout each command must print, in command order."""
    size = inp["size"]
    brute = _avoider_csv(*inp["brute"], size["brute_n"], both=False)
    both = _avoider_csv(*inp["both"], size["both_n"], both=True)
    upper = len(oracles.upper_cover_words(inp["path"]))

    def sha(text):
        return hashlib.sha256(text.encode()).hexdigest()

    by_name = {
        "verify_j1": VERIFY_SHA256[size["verify_n"]],
        "verify_j2": VERIFY_SHA256[size["verify_n"]],
        "count_avoiders_brute_j1": sha(brute),
        "count_avoiders_brute_j2": sha(brute),
        "count_avoiders_both": sha(both),
        "poset": POSET_SHA256[size["poset_size"]],
        "covers_both": sha(f"count_closed,{upper}\ncount_brute,{upper}\nAGREE\n"),
        "misuse": sha(""),
    }
    return [by_name[name] for name, _, _ in inp["commands"]]


def cli_check(inp, out):
    failed = 0
    for (_, _, code), want, (got_code, stdout, _, _) in zip(
            inp["commands"], cli_expected_stdout(inp), out["results"]):
        failed += (got_code != code
                   or hashlib.sha256(stdout).hexdigest() != want)
    return len(inp["commands"]), failed


WORKLOADS = {
    "brute-avoid": (brute_setup, brute_run, brute_check),
    "poset-queries": (poset_setup, poset_run, poset_check),
    "closed-scale": (closed_setup, closed_run, closed_check),
    "cli-verify": (cli_setup, cli_run, cli_check),
}


def make_rng(seed: int, workload: str) -> random.Random:
    return random.Random(f"{workload}:{seed}")
