"""Command-line front end.

Commands
  kpf     --alpha m,n,k [--oracle]           q-partition function
  mult    --lam m,n,k --mu x,y,z             q-multiplicity
  altset  --lam m,n,k --mu x,y,z             Weyl alternation set
  census  pipeline | sweep | verify          classification runs

Weights are given as comma-separated fundamental-weight coefficients;
kpf alone takes simple-root coordinates, matching its natural domain.
JSON output is schema-stable ("schema_version"); census results carry a
run manifest whose digest covers everything except timing.

Exit codes: 0 success, 2 usage error, 3 internal cross-check failure,
4 fixture mismatch.
"""

from __future__ import annotations

import argparse
import hashlib
import json
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


def _parse_triple(text: str) -> tuple[int, int, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected three comma-separated integers, got {text!r}")
    try:
        vals = tuple(int(p.strip()) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected integers, got {text!r}") from None
    return vals


def _usage_error(message: str) -> NoReturn:
    """Report a bad value found after parsing on one line, and exit 2."""
    print(f"sp6q: error: {message}", file=sys.stderr)
    raise SystemExit(EXIT_USAGE)


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _digest(result) -> str:
    return hashlib.sha256(_canonical_json(result).encode("utf-8")).hexdigest()


def _manifest(args_list, params, result, elapsed) -> dict:
    return {
        "tool": "sp6q",
        "version": __version__,
        "command": args_list,
        "parameters": params,
        "elapsed_seconds": round(elapsed, 3),
        "result_digest": _digest(result),
    }


def _emit_json(payload, out_path=None):
    text = json.dumps(payload, indent=1, sort_keys=True)
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            _usage_error(f"cannot write --out file: {exc}")
    else:
        print(text)


def _cmd_kpf(args) -> int:
    try:
        # the oracle first: its bound is the lower one, so it refuses before any work
        reference = partition.kpf_q_oracle(*args.alpha) if args.oracle else None
        value = partition.kpf_q(*args.alpha)
    except ValueError as exc:  # height above partition.KPF_MAX_HEIGHT or KPF_ORACLE_MAX_HEIGHT
        _usage_error(str(exc))
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "kpf",
        "alpha": list(args.alpha),
        "kpf_q": value.to_json(),
        "kpf": eval_at_one(value),
    }
    lines = [str(value)]
    if args.oracle:
        payload["oracle"] = reference.to_json()
        lines.append(str(reference))
        if reference != value:
            print(f"cross-check failed: formula {value} != oracle {reference}", file=sys.stderr)
            return EXIT_CROSSCHECK
    if args.json:
        _emit_json(payload)
    else:
        print("\n".join(lines))
    return EXIT_OK


def _cmd_mult(args) -> int:
    lam, mu = WeightFW(*args.lam), WeightFW(*args.mu)
    if args.method != "direct" and not (lam.is_dominant() and mu.is_dominant()):
        _usage_error(f"--method {args.method} needs dominant --lam and --mu (the 45 cases hold only there)")
    results = {}
    try:
        if args.method in ("direct", "both"):
            results["direct"] = multiplicity.mult_q_direct(lam, mu)
        if args.method in ("cases", "both"):
            results["cases"] = multiplicity.mult_q_cases(lam, mu)
    except ValueError as exc:  # a term above partition.KPF_MAX_HEIGHT
        _usage_error(str(exc))
    shown = results.get("direct", results.get("cases"))
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "mult",
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
    if args.json:
        _emit_json(payload)
    elif args.at_one:
        print(eval_at_one(shown))
    else:
        for name in ("direct", "cases"):
            if name in results:
                print(str(results[name]))
    return EXIT_OK


def _cmd_altset(args) -> int:
    aset = multiplicity.alternation_set(WeightFW(*args.lam), WeightFW(*args.mu))
    if args.json:
        _emit_json(
            {
                "schema_version": SCHEMA_VERSION,
                "command": "altset",
                "lam": list(args.lam),
                "mu": list(args.mu),
                "set": aset.to_json(),
            }
        )
    else:
        print(str(aset))
    return EXIT_OK


def _cmd_census_pipeline(args, argv) -> int:
    t0 = time.perf_counter()
    result = census.filter_pipeline()
    elapsed = time.perf_counter() - t0
    families = {
        "stage1": [census.AlternationSet.from_letters(s).to_json() for s in result.stage1],
        "stage2": [census.AlternationSet.from_letters(s).to_json() for s in result.stage2],
        "final": [census.AlternationSet.from_letters(s).to_json() for s in result.final],
    }
    if args.stage:
        key = {1: "stage1", 2: "stage2", 3: "final"}[args.stage]
        families = {key: families[key]}
    counts = result.counts
    body = {"counts": {"candidates": 1 << 17, "stage1": counts[0], "stage2": counts[1], "final": counts[2]}, "families": families}
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "census pipeline",
        "result": body,
        "manifest": _manifest(argv, {"stage": args.stage}, body, elapsed),
    }
    if args.json or args.out:
        _emit_json(payload, args.out)
    else:
        print(f"{1 << 17} -> {counts[0]} -> {counts[1]} -> {counts[2]}")
    return EXIT_OK


def _cmd_census_sweep(args, argv) -> int:
    t0 = time.perf_counter()
    try:
        entries = census.sweep_census(args.lam_max, args.mu_max, jobs=args.jobs)
    except ValueError as exc:  # a box or --jobs that census.check_sweep_box refuses, before any work
        _usage_error(str(exc))
    elapsed = time.perf_counter() - t0
    body = {
        "lam_max": args.lam_max,
        "mu_max": args.mu_max,
        "distinct_sets": len(entries),
        "entries": [
            {"set": e.altset.to_json(), "lam": list(e.lam.coeffs()), "mu": list(e.mu.coeffs())}
            for e in entries
        ],
    }
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "census sweep",
        "result": body,
        "manifest": _manifest(argv, {"lam_max": args.lam_max, "mu_max": args.mu_max}, body, elapsed),
    }
    if args.json or args.out:
        _emit_json(payload, args.out)
    else:
        print(f"{len(entries)} distinct alternation sets")
        for e in entries:
            print(f"{str(e.altset):<70} lam={e.lam.coeffs()} mu={e.mu.coeffs()}")
    return EXIT_OK


def _cmd_census_verify(args, argv) -> int:
    t0 = time.perf_counter()
    try:
        report = census.verify_census(
            fixtures_dir=args.fixtures, lam_max=args.lam_max, mu_max=args.mu_max, jobs=args.jobs
        )
    except ValueError as exc:  # a refused box or --jobs, or a census.FixtureError, before any work
        _usage_error(str(exc))
    elapsed = time.perf_counter() - t0
    body = report.to_json()
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "census verify",
        "result": body,
        "manifest": _manifest(argv, {"lam_max": args.lam_max, "mu_max": args.mu_max}, body, elapsed),
    }
    if args.json or args.out:
        _emit_json(payload, args.out)
    else:
        for c in report.checks:
            print(f"[{'PASS' if c.passed else 'FAIL'}] {c.name}: {c.detail}")
    return EXIT_OK if report.all_passed else EXIT_FIXTURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sp6q",
        description="Exact q-analog Kostant partition function, Weyl alternation sets, "
        "and weight q-multiplicities for sp6(C).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    jobs_help = (f"worker threads (default and upper limit: all cores); a box charged over "
                 f"{census.SWEEP_MAX_PAIRS:.0e} (lam, mu) pairs, each block of "
                 f"{census.SWEEP_BLOCK_PAIRS} counted in full, is refused")

    p_kpf = sub.add_parser("kpf", help="q-partition function of m*a1 + n*a2 + k*a3")
    p_kpf.add_argument("--alpha", type=_parse_triple, required=True, metavar="m,n,k", help=f"m+n+k at most {partition.KPF_MAX_HEIGHT}")
    p_kpf.add_argument("--oracle", action="store_true", help=f"also run the brute-force oracle and compare; m+n+k at most {partition.KPF_ORACLE_MAX_HEIGHT}")
    p_kpf.add_argument("--json", action="store_true")

    p_mult = sub.add_parser("mult", help="weight q-multiplicity m_q(lam, mu)")
    p_mult.add_argument("--lam", type=_parse_triple, required=True, metavar="m,n,k")
    p_mult.add_argument("--mu", type=_parse_triple, required=True, metavar="x,y,z")
    p_mult.add_argument("--method", choices=("direct", "cases", "both"), default="direct", help="cases and both need dominant weights")
    p_mult.add_argument("--at-one", action="store_true", help="print the plain multiplicity")
    p_mult.add_argument("--json", action="store_true")

    p_alt = sub.add_parser("altset", help="Weyl alternation set of (lam, mu)")
    p_alt.add_argument("--lam", type=_parse_triple, required=True, metavar="m,n,k")
    p_alt.add_argument("--mu", type=_parse_triple, required=True, metavar="x,y,z")
    p_alt.add_argument("--json", action="store_true")

    p_census = sub.add_parser("census", help="alternation-set classification")
    csub = p_census.add_subparsers(dest="census_command", required=True)

    p_pipe = csub.add_parser("pipeline", help="run the contradiction filter over all 2^17 candidates")
    p_pipe.add_argument("--stage", type=int, choices=(1, 2, 3), help="restrict JSON family output to one stage")
    p_pipe.add_argument("--out", metavar="FILE.json")
    p_pipe.add_argument("--json", action="store_true")

    p_sweep = csub.add_parser("sweep", help="enumerate alternation sets over a weight box")
    p_sweep.add_argument("--lam-max", type=int, required=True)
    p_sweep.add_argument("--mu-max", type=int, required=True)
    p_sweep.add_argument("--jobs", type=int, default=None, help=jobs_help)
    p_sweep.add_argument("--out", metavar="FILE.json")
    p_sweep.add_argument("--json", action="store_true")

    p_verify = csub.add_parser("verify", help="diff pipeline and sweep against the shipped fixtures")
    p_verify.add_argument("--fixtures", metavar="DIR", default=None,
                          help=f"fixture directory (default: packaged data, or ${census.FIXTURE_ENV_VAR})")
    p_verify.add_argument("--lam-max", type=int, default=10)
    p_verify.add_argument("--mu-max", type=int, default=10)
    p_verify.add_argument("--jobs", type=int, default=None, help=jobs_help)
    p_verify.add_argument("--out", metavar="FILE.json")
    p_verify.add_argument("--json", action="store_true")

    return parser


_TRIPLE_FLAGS = {"--lam", "--mu", "--alpha"}
_TRIPLE_RE = re.compile(r"-?\d+\s*,\s*-?\d+\s*,\s*-?\d+$")


def _normalize_argv(argv):
    """Join triple flags with values that start with a minus sign, which
    argparse would otherwise mistake for option names."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _TRIPLE_FLAGS and i + 1 < len(argv) and _TRIPLE_RE.fullmatch(argv[i + 1].strip()):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    argv = _normalize_argv(list(sys.argv[1:] if argv is None else argv))
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "kpf":
        return _cmd_kpf(args)
    if args.command == "mult":
        return _cmd_mult(args)
    if args.command == "altset":
        return _cmd_altset(args)
    if args.command == "census":
        if args.census_command == "pipeline":
            return _cmd_census_pipeline(args, argv)
        if args.census_command == "sweep":
            return _cmd_census_sweep(args, argv)
        if args.census_command == "verify":
            return _cmd_census_verify(args, argv)
    parser.error("unknown command")
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
