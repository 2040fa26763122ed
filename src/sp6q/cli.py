"""Command-line front end.

Commands
  kpf     --alpha m,n,k [--oracle]           q-partition function
  mult    --lam m,n,k --mu x,y,z             q-multiplicity
  altset  --lam m,n,k --mu x,y,z             Weyl alternation set
  census  pipeline | sweep | verify          classification runs

Weights are given as comma-separated fundamental-weight coefficients;
kpf alone takes simple-root coordinates, matching its natural domain.
Every result goes to stdout: text, or with --json the JSON payload, which
is schema-stable ("schema_version"); save it with `--json > FILE`. Census
results carry a run manifest whose digest covers everything except timing.

Each flag is taken only by its whole name; a prefix such as --la is a usage
error.  The library refuses a bad value the parser cannot see (a height,
a box, a fixture) with ValueError before any output, and main turns every
such refusal into exit 2 in one handler.

Exit codes: 0 success, 2 usage error, 3 internal cross-check failure,
4 fixture mismatch, 141 stdout closed by its reader (as in `sp6q ... | head`).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import re
import sys
import time
from typing import NoReturn

from . import __version__, census, multiplicity, partition
from .qpoly import eval_at_one
from .root_system import WeightFW

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CROSSCHECK = 3
EXIT_FIXTURE = 4
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a command that SIGPIPE killed


# The one grammar of a triple, read by _parse_triple and _normalize_argv:
# three ASCII integers, comma-separated, with optional ASCII whitespace around each.
_TRIPLE_RE = re.compile(r"\s*(-?[0-9]+)\s*,\s*(-?[0-9]+)\s*,\s*(-?[0-9]+)\s*", re.ASCII)


def _parse_triple(text: str) -> tuple[int, int, int]:
    match = _TRIPLE_RE.fullmatch(text)
    if match is None:
        raise argparse.ArgumentTypeError(f"expected three comma-separated integers, got {text!r}")
    return tuple(map(int, match.groups()))


def _usage_error(message: str) -> NoReturn:
    """Report a bad value found after parsing on one line, and exit 2."""
    print(f"sp6q: error: {message}", file=sys.stderr)
    raise SystemExit(EXIT_USAGE)


def _manifest(args_list, params, result, elapsed) -> dict:
    canonical = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return {
        "tool": "sp6q",
        "version": __version__,
        "command": args_list,
        "parameters": params,
        "elapsed_seconds": round(elapsed, 3),
        "result_digest": hashlib.sha256(canonical.encode("utf-8")).hexdigest(),
    }


def _emit(args, payload, text, code=EXIT_OK) -> int:
    """Print one command's result and return its exit code: the JSON payload
    with its schema header under --json, otherwise the text."""
    if args.json:
        command = f"census {args.census_command}" if args.command == "census" else args.command
        payload = {"schema_version": SCHEMA_VERSION, "command": command, **payload}
        text = json.dumps(payload, indent=1, sort_keys=True)
    print(text)
    return code


def _cmd_kpf(args, _argv) -> int:
    # the oracle first: its bound is the lower one, so it refuses before any work
    reference = partition.kpf_q_oracle(*args.alpha) if args.oracle else None
    value = partition.kpf_q(*args.alpha)
    payload = {
        "alpha": list(args.alpha),
        "kpf_q": value.to_json(),
        "kpf": eval_at_one(value),
    }
    if not args.oracle:
        return _emit(args, payload, str(value))
    if reference != value:
        print(f"cross-check failed: formula {value} != oracle {reference}", file=sys.stderr)
        return EXIT_CROSSCHECK
    payload["oracle"] = reference.to_json()
    return _emit(args, payload, f"{value}\n{reference}")


def _cmd_mult(args, _argv) -> int:
    lam, mu = WeightFW(*args.lam), WeightFW(*args.mu)
    if args.method != "direct" and not (lam.is_dominant() and mu.is_dominant()):
        _usage_error(f"--method {args.method} needs dominant --lam and --mu (the 45 cases hold only there)")
    methods = ("direct", "cases") if args.method == "both" else (args.method,)
    routes = {"direct": multiplicity.mult_q_direct, "cases": multiplicity.mult_q_cases}
    results = {name: routes[name](lam, mu) for name in methods}
    shown = results[methods[0]]
    payload = {
        "lam": list(args.lam),
        "mu": list(args.mu),
        "method": args.method,
        "mult_q": {name: p.to_json() for name, p in results.items()},
        "mult": eval_at_one(shown),
    }
    if not multiplicity.root_lattice_parity(lam, mu):
        print("note: weight difference is outside the root lattice; multiplicity is 0", file=sys.stderr)
    if args.method == "both" and results["direct"] != results["cases"]:
        print(
            f"cross-check failed: direct {results['direct']} != cases {results['cases']}",
            file=sys.stderr,
        )
        return EXIT_CROSSCHECK
    text = str(eval_at_one(shown)) if args.at_one else "\n".join(map(str, results.values()))
    return _emit(args, payload, text)


def _cmd_altset(args, _argv) -> int:
    aset = multiplicity.alternation_set(WeightFW(*args.lam), WeightFW(*args.mu))
    payload = {
        "lam": list(args.lam),
        "mu": list(args.mu),
        "set": aset.to_json(),
    }
    return _emit(args, payload, str(aset))


def _census(args, argv, params, compute, render) -> int:
    """Time compute() and print render(its result) -> (body, text, code),
    with the body in the census envelope beside its run manifest."""
    t0 = time.perf_counter()
    result = compute()
    elapsed = time.perf_counter() - t0
    body, text, code = render(result)
    return _emit(args, {"result": body, "manifest": _manifest(argv, params, body, elapsed)}, text, code)


def _cmd_census_pipeline(args, argv) -> int:
    def render(result):
        names = ("stage1", "stage2", "final")
        families = {
            name: [census.AlternationSet.from_mask(mask).to_json() for mask in masks]
            for stage, (name, masks) in enumerate(zip(names, result.masks), 1)
            if args.stage in (None, stage)
        }
        counts = {"candidates": 1 << 17, **dict(zip(names, result.counts))}
        text = " -> ".join(map(str, counts.values()))
        return {"counts": counts, "families": families}, text, EXIT_OK

    return _census(args, argv, {"stage": args.stage}, census.filter_pipeline, render)


def _cmd_census_sweep(args, argv) -> int:
    box = {"lam_max": args.lam_max, "mu_max": args.mu_max}

    def render(entries):
        body = {
            **box,
            "distinct_sets": len(entries),
            "entries": [
                {"set": e.altset.to_json(), "lam": list(e.lam.coeffs()), "mu": list(e.mu.coeffs())}
                for e in entries
            ],
        }
        lines = [f"{len(entries)} distinct alternation sets"]
        lines += [f"{str(e.altset):<70} lam={e.lam.coeffs()} mu={e.mu.coeffs()}" for e in entries]
        return body, "\n".join(lines), EXIT_OK

    return _census(args, argv, box, lambda: census.sweep_census(**box), render)


def _cmd_census_verify(args, argv) -> int:
    def render(report):
        lines = [f"[{'PASS' if c.passed else 'FAIL'}] {c.name}: {c.detail}" for c in report.checks]
        return report.to_json(), "\n".join(lines), EXIT_OK if report.all_passed else EXIT_FIXTURE

    box = {"lam_max": args.lam_max, "mu_max": args.mu_max}
    return _census(args, argv, box, lambda: census.verify_census(args.fixtures, **box), render)


# Every parser, the subcommands' too, takes a flag only by its whole name, as _TRIPLE_FLAGS does.
_Parser = functools.partial(argparse.ArgumentParser, allow_abbrev=False)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sp6q",
        description="Exact q-analog Kostant partition function, Weyl alternation sets, "
        "and weight q-multiplicities for sp6(C).",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    box_help = (f"a box charged over {census.SWEEP_MAX_PAIRS:.0e} (lam, mu) pairs, each block of "
                f"{census.SWEEP_BLOCK_PAIRS} counted in full, is refused")

    p_kpf = sub.add_parser("kpf", help="q-partition function of m*a1 + n*a2 + k*a3")
    p_kpf.add_argument("--alpha", type=_parse_triple, required=True, metavar="m,n,k", help=f"m+n+k at most {partition.KPF_MAX_HEIGHT}")
    p_kpf.add_argument("--oracle", action="store_true", help=f"also run the brute-force oracle and compare; m+n+k at most {partition.KPF_ORACLE_MAX_HEIGHT}")
    p_kpf.add_argument("--json", action="store_true")
    p_kpf.set_defaults(run=_cmd_kpf)

    p_mult = sub.add_parser("mult", help="weight q-multiplicity m_q(lam, mu)")
    p_mult.add_argument("--lam", type=_parse_triple, required=True, metavar="m,n,k")
    p_mult.add_argument("--mu", type=_parse_triple, required=True, metavar="x,y,z")
    p_mult.add_argument("--method", choices=("direct", "cases", "both"), default="direct", help="cases and both need dominant weights")
    p_mult.add_argument("--at-one", action="store_true", help="print the plain multiplicity")
    p_mult.add_argument("--json", action="store_true")
    p_mult.set_defaults(run=_cmd_mult)

    p_alt = sub.add_parser("altset", help="Weyl alternation set of (lam, mu)")
    p_alt.add_argument("--lam", type=_parse_triple, required=True, metavar="m,n,k")
    p_alt.add_argument("--mu", type=_parse_triple, required=True, metavar="x,y,z")
    p_alt.add_argument("--json", action="store_true")
    p_alt.set_defaults(run=_cmd_altset)

    p_census = sub.add_parser("census", help="alternation-set classification")
    csub = p_census.add_subparsers(dest="census_command", required=True, parser_class=_Parser)

    p_pipe = csub.add_parser("pipeline", help="run the contradiction filter over all 2^17 candidates")
    p_pipe.add_argument("--stage", type=int, choices=(1, 2, 3), help="restrict JSON family output to one stage")
    p_pipe.add_argument("--json", action="store_true")
    p_pipe.set_defaults(run=_cmd_census_pipeline)

    p_sweep = csub.add_parser("sweep", help="enumerate alternation sets over a weight box")
    p_sweep.add_argument("--lam-max", type=int, required=True, help=box_help)
    p_sweep.add_argument("--mu-max", type=int, required=True, help=box_help)
    p_sweep.add_argument("--json", action="store_true")
    p_sweep.set_defaults(run=_cmd_census_sweep)

    p_verify = csub.add_parser("verify", help="diff pipeline and sweep against the shipped fixtures")
    p_verify.add_argument("--fixtures", metavar="DIR", default=None,
                          help="fixture directory (default: the packaged data)")
    p_verify.add_argument("--lam-max", type=int, default=10, help=box_help)
    p_verify.add_argument("--mu-max", type=int, default=10, help=box_help)
    # accepted and ignored: the census benchmark (benchmarks/workloads.py) runs `census verify --jobs 1`
    p_verify.add_argument("--jobs", type=int, choices=(1,), help=argparse.SUPPRESS)
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(run=_cmd_census_verify)

    return parser


_TRIPLE_FLAGS = {"--lam", "--mu", "--alpha"}


def _normalize_argv(argv):
    """Join triple flags with values that start with a minus sign, which
    argparse would otherwise mistake for option names."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _TRIPLE_FLAGS and i + 1 < len(argv) and _TRIPLE_RE.fullmatch(argv[i + 1]):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    argv = _normalize_argv(list(sys.argv[1:] if argv is None else argv))
    args = build_parser().parse_args(argv)
    try:
        code = args.run(args, argv)
        sys.stdout.flush()  # a closed stdout shows here, not in the flush at exit
    except BrokenPipeError:
        # the reader has gone: send what is left to devnull so the flush at exit cannot fail too
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except ValueError as exc:  # a library refusal: a height, a box or a fixture, refused before any output
        _usage_error(str(exc))
    return code


if __name__ == "__main__":
    sys.exit(main())
