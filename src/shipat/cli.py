"""Command-line front end.

Subcommands expose the library with deterministic, scriptable output:

    shipat covers --path UUDUDD --dir lower --method both
    shipat count-avoiders --family tv --k 5 --n-max 13 --method closed
    shipat zeta --path UDUDUD
    shipat poset --max-size 4
    shipat region --area 0,0,1
    shipat verify --suite all --n-max 7

Exit codes: 0 success, 1 check or resource failure, 2 usage or parse error,
3 method disagreement in ``both`` mode.  Command handlers return nothing and
raise instead of reporting: :func:`main` alone decides exit codes and
returns them, never exits: 2 when argparse rejects the command line (the
usage is already on stderr), 3, with nothing on stderr, when the two methods
of ``both`` mode disagree (``DISAGREE`` is already on stdout), and otherwise,
after ``error: <message>`` on stderr, 1 for
:class:`~shipat.core.ResourceLimit` or a failed ``verify`` check and 2 for
``ValueError``, the type of every parse, family, size and flag error.  Every
cap, that of ``poset --max-size`` among them, is a library constant checked
before any work by the one guard of :mod:`shipat.core`, whose
``ResourceLimit`` reads ``<work> capped at <unit> <cap>``;
``count-avoiders --method brute`` and ``both`` check the family size
``--k`` against the brute cap before the pattern is built.

``count-avoiders --method closed`` takes every row from one call of
:func:`~shipat.avoidance.avoider_rows`: the rows of every family come off
one walk of a strip, and the size cap is checked before it starts.

Each command imports only what it runs: :mod:`shipat.verify` is imported by
``verify`` alone, and its process pool only for ``verify --jobs N`` with
N > 1, so a cold process for any other command loads neither.
"""

from __future__ import annotations

import argparse
import sys

from . import avoidance, covers, poset
from .core import ResourceLimit, ShiTableau, parse_path, region_inequalities


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shipat",
        description="Pattern order on Shi tableaux / Dyck paths")
    sub = parser.add_subparsers(dest="command", required=True)

    p_covers = sub.add_parser("covers", help="list or count covers of a path")
    p_covers.add_argument("--path", required=True)
    p_covers.add_argument("--dir", required=True, choices=["lower", "upper"])
    p_covers.add_argument("--method", default="brute",
                          choices=["brute", "closed", "both"])

    p_av = sub.add_parser("count-avoiders", help="avoider counts per tableau size")
    p_av.add_argument("--family", required=True, choices=list(avoidance.FAMILY_TAGS))
    p_av.add_argument("--k", type=int, required=True)
    p_av.add_argument("--n-max", type=int, required=True)
    p_av.add_argument("--method", default="closed",
                      choices=["brute", "closed", "both"])
    p_av.add_argument("--format", default="csv", choices=["csv", "oeis"])
    p_av.add_argument("--jobs", type=int, default=1,
                      help="accepted for compatibility; brute counting runs "
                           "in one process")

    p_zeta = sub.add_parser("zeta", help="apply the zeta map")
    p_zeta.add_argument("--path", required=True)

    p_poset = sub.add_parser("poset", help="emit the cover graph")
    p_poset.add_argument("--max-size", type=int, required=True)

    p_region = sub.add_parser("region", help="Shi region inequalities of a tableau")
    p_region.add_argument("--area", required=True,
                          help="comma-separated area vector, e.g. 0,0,1")

    p_verify = sub.add_parser("verify", help="run the oracle-equivalence suites")
    p_verify.add_argument("--suite", default="all",
                          choices=["core", "covers", "avoidance", "all"])
    p_verify.add_argument("--n-max", type=int, default=7)
    p_verify.add_argument("--jobs", type=int, default=1)

    return parser


class _CheckFailed(Exception):
    """Some ``verify`` check failed; its lines are already on stdout."""


class _Disagreement(Exception):
    """The two methods of ``both`` mode disagree; DISAGREE is already on stdout."""


def _cmd_covers(args) -> None:
    path = parse_path(args.path)
    brute_set = closed = None
    if args.method in ("brute", "both"):
        brute_set = sorted(
            q.word for q in (poset.lower_covers(path) if args.dir == "lower"
                             else poset.upper_covers(path)))
    if args.method in ("closed", "both"):
        closed = (covers.count_lower_covers(path) if args.dir == "lower"
                  else covers.count_upper_covers(path))
    if args.method == "brute":
        for word in brute_set:
            print(word)
    elif args.method == "closed":
        print(closed)
    else:
        print(f"count_closed,{closed}")
        print(f"count_brute,{len(brute_set)}")
        if closed != len(brute_set):
            print("DISAGREE")
            raise _Disagreement
        print("AGREE")


def _check_ranges(args) -> None:
    """Reject a negative ``--n-max`` or a ``--jobs`` below 1."""
    if args.n_max < 0:
        raise ValueError("--n-max must be >= 0")
    if args.jobs < 1:
        raise ValueError("--jobs must be >= 1")


def _cmd_count_avoiders(args) -> None:
    if args.k < 2:
        raise ValueError("--k must be >= 2")
    _check_ranges(args)
    if args.format == "oeis" and args.method == "both":
        raise ValueError("oeis format needs a single method")
    if args.method in ("brute", "both"):
        avoidance._check_brute_size(args.k)
        brute = avoidance.brute_avoider_counts(
            avoidance.pattern(args.family, args.k), args.n_max)
    if args.method in ("closed", "both"):
        closed = avoidance.avoider_rows(args.family, args.k, args.n_max)
    if args.method == "both":
        print("n,count,count_brute,agree")
        for n, (c, b) in enumerate(zip(closed, brute)):
            print(f"{n},{c},{b},{'AGREE' if c == b else 'DISAGREE'}")
        if closed != brute:
            raise _Disagreement
        return
    counts = closed if args.method == "closed" else brute
    if args.format == "oeis":
        sys.stdout.write(avoidance.sequence_oeis(counts))
    else:
        sys.stdout.write(avoidance.sequence_csv(counts))


def _cmd_zeta(args) -> None:
    print(avoidance.zeta(parse_path(args.path)).word)


def _cmd_poset(args) -> None:
    graph = poset.hasse(args.max_size)
    sys.stdout.write(poset.export_dot(graph))


def _cmd_region(args) -> None:
    try:
        area = tuple(int(chunk) for chunk in args.area.split(","))
    except ValueError:
        raise ValueError("--area needs comma-separated integers, "
                         f"got {args.area!r}") from None
    for line in region_inequalities(ShiTableau(area)):
        print(line)


def _cmd_verify(args) -> None:
    _check_ranges(args)
    from . import verify  # here, not at the top: see the module docstring

    results = verify.run_suite(args.suite, n_max=args.n_max, jobs=args.jobs)
    for result in results:
        print(result.line())
    failed = [r for r in results if not r.ok]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    if failed:
        raise _CheckFailed(f"{len(failed)} of {len(results)} checks failed")


_HANDLERS = {
    "covers": _cmd_covers,
    "count-avoiders": _cmd_count_avoiders,
    "zeta": _cmd_zeta,
    "poset": _cmd_poset,
    "region": _cmd_region,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    """Run one command; the only place that turns an error into an exit code."""
    try:
        args = _build_parser().parse_args(argv)
        _HANDLERS[args.command](args)
    except SystemExit as exc:  # argparse: usage error or --help, printed
        return exc.code
    except _Disagreement:
        return 3
    except (ResourceLimit, _CheckFailed, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ValueError) else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
