"""Mutation check: every listed mutant of the package must fail a test.

    python tools/mutants.py

Each mutant replaces one exact snippet of one file under src/ with another.
The runner copies src/ and tests/ into a temporary directory, runs the
union of the listed test files once on the unchanged copy (they must
pass, or no failure below would mean anything), then applies one mutant
at a time and runs

    python -m pytest -x -q -p no:cacheprovider <the mutant's test files>

in the copy.  A mutant is killed when a test fails.  The exit status is 1
if a snippet does not occur exactly once in its file, if the unchanged
copy fails, or if a mutant survives; else 0.

EQUIVALENT holds mutants that change no behaviour, each with the reason;
they are listed so that their snippets stay checked, and are not run.
tests/test_mutants.py checks every snippet, so a change to the code must
update this list.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    id: str
    file: str  # relative to the repository root
    snippet: str  # occurs exactly once in file
    replacement: str
    tests: tuple[str, ...]  # test files, one of which fails on the mutant


CENSUS, MULT, PART, QPOLY, WEYL, CLI = (
    f"src/sp6q/{m}.py" for m in ("census", "multiplicity", "partition", "qpoly", "weyl", "cli")
)
T_CENSUS, T_CLI, T_MULT, T_PART, T_QPOLY, T_WEYL = (
    f"tests/test_{m}.py" for m in ("census", "cli", "multiplicity", "partition", "qpoly", "weyl")
)

MUTANTS: tuple[Mutant, ...] = (
    # census: the filter stages and the family order
    Mutant("family-order-key", CENSUS, "np.lexsort((-reversed_masks,", "np.lexsort((reversed_masks,",
           (T_CENSUS, T_CLI)),
    Mutant("stage2-no-clash", CENSUS, "_STAGE2_RULES]), _clash(patterns)),",
           "_STAGE2_RULES]), np.zeros(1 << 14, bool)),", (T_CENSUS,)),
    Mutant("stage3-no-clash", CENSUS, "(closure, _clash(closure)),", "(closure, np.zeros(1 << 14, bool)),",
           (T_CENSUS,)),
    Mutant("covered-terms-writable", CENSUS, "covered.flags.writeable = False", "covered.flags.writeable = True",
           (T_CENSUS,)),
    Mutant("forced-table-writable", CENSUS, "forced.flags.writeable = False", "forced.flags.writeable = True",
           (T_CENSUS,)),
    Mutant("stage-tables-writable", CENSUS, "array.flags.writeable = False", "array.flags.writeable = True",
           (T_CENSUS,)),
    # census: the sweep
    Mutant("sign-table-clip", CENSUS, "np.clip(parts, -1, top)", "np.clip(parts, 0, top)", (T_CENSUS,)),
    Mutant("sweep-overwrites-first", CENSUS, "np.minimum.at(first, signs.ravel(), flat.ravel())",
           "first[signs.ravel()] = flat.ravel()", (T_CENSUS,)),
    Mutant("mu-block-width", CENSUS, "mu_step = min(n_mu, 16 * side,", "mu_step = min(n_mu, 8 * side,", (T_CENSUS,)),
    Mutant("lam-block-width", CENSUS, "lam_step = min(16 * side,", "lam_step = min(8 * side,", (T_CENSUS,)),
    Mutant("sweep-bound", CENSUS, "SWEEP_MAX_PAIRS = 10**9", "SWEEP_MAX_PAIRS = 10**10", (T_CENSUS,)),
    # census: fixtures and the report
    Mutant("fixture-not-an-array", CENSUS, "        if type(rows) is not list:", "        if False:", (T_CLI,)),
    Mutant("fixture-set-not-a-list", CENSUS, "    if type(names) is not list:", "    if False:", (T_CLI,)),
    Mutant("family-counts-ignored", CENSUS, "gs == ws and len(got) == len(want)", "gs == ws", (T_CLI,)),
    Mutant("family-extra-unsorted", CENSUS, "sorted(gs - ws, key=lambda a: (len(a), sorted(a.indices)))", "gs - ws",
           (T_CLI,)),
    Mutant("family-missing-unsorted", CENSUS, "sorted(ws - gs, key=lambda a: (len(a), sorted(a.indices)))",
           "ws - gs", (T_CLI,)),
    Mutant("witness-got-want-swapped", CENSUS, "got {got}, want {want_set}", "got {want_set}, want {got}", (T_CLI,)),
    # multiplicity: sigma_table and its guards
    Mutant("sigma-mu-part-unchecked", MULT, "if affine[row][3:6] != tuple(-c for c in mu_alpha[i]):", "if False:",
           (T_MULT,)),
    Mutant("sigma-profile-rows-unchecked", MULT, "if profile.setdefault(field, row) != row:",
           "if profile.setdefault(field, row) is None:", (T_MULT,)),
    Mutant("sigma-identities-unchecked", MULT, "    if diffs != [", "    if not diffs and diffs != [", (T_MULT,)),
    Mutant("sigma-mu-alpha-sign-unchecked", MULT, "if min(c for row in mu_alpha for c in row) < 0:", "if False:",
           (T_MULT,)),
    Mutant("sigma-type1-rows-unchecked", MULT, "    if type1 != [", "    if False and type1 != [", (T_MULT,)),
    Mutant("sigma-terms-unchecked", MULT, "if tuple(idx for idx, _sign, _ids in dominant) != terms:",
           "if False:", (T_MULT,)),
    Mutant("sigma-identity-parity-unchecked", MULT, "    if parity != [", "    if False and parity != [", (T_MULT,)),
    Mutant("sigma-dominance-bound-unchecked", MULT,
           "if any(c > t or (c - t) & 1 for c, t in zip(rows[r][:4], top)):", "if False:", (T_MULT,)),
    # multiplicity: the weight check and the coefficient profile
    Mutant("weight-check-weakened", MULT,
           "if not type(m) is type(n) is type(k) is type(x) is type(y) is type(z) is int:",
           "if not isinstance(m + n + k + x + y + z, int):", (T_MULT,)),
    Mutant("profile-wrong-coordinate", MULT, "[part - alpha[i] for part,", "[part - alpha[i - 1] for part,", (T_MULT,)),
    # multiplicity: the per-lam index and the row mask
    Mutant("row-mask-bisect-right", MULT, "n0[bisect_left(v0, a0)]", "n0[__import__('bisect').bisect_right(v0, a0)]",
           (T_MULT,)),
    Mutant("nonzero-term-at-zero", MULT, "n1[bisect_left(v1, a1)]", "n1[bisect_left(v1, a1 + 1)]", (T_MULT,)),
    Mutant("prefix-mask-off-by-one", MULT, "tuple(accumulate(bits, or_, initial=0))",
           "(0, *accumulate(bits, or_, initial=0))[:-1]", (T_MULT,)),
    Mutant("element-mask-missing-row", MULT, "elements if r in ids)", "elements if r in ids[:2])", (T_MULT,)),
    Mutant("element-bits-unshifted", MULT, "sum(1 << (26 + idx) for", "sum(1 << idx for", (T_MULT,)),
    # multiplicity: the alternation set as an element mask
    Mutant("altset-gate-dropped", MULT, "    if not root_lattice_parity(lam, mu):\n        return AlternationSet(0)\n",
           "", (T_MULT,)),
    Mutant("from-mask-middle-chunk-shift", MULT, "mid[mask >> 6 & 63]", "mid[mask >> 5 & 63]", (T_MULT,)),
    Mutant("contains-next-bit", MULT, "self.mask >> weyl.canonical_index(el) & 1",
           "self.mask >> weyl.canonical_index(el) + 1 & 1", (T_MULT,)),
    # multiplicity: the alternating sum and the case dispatch
    Mutant("scan-gate-dropped", MULT, "    if not root_lattice_parity(lam, mu):\n        return iter(())\n", "",
           (T_MULT,)),
    Mutant("cases-parity-unchecked", MULT, "    if not root_lattice_parity(lam, mu):\n        return QPoly()\n", "",
           (T_MULT,)),
    Mutant("sign-pattern-13-bits", MULT, "case_table()[ok & 0x3FFF]", "case_table()[ok & 0x1FFF]", (T_MULT,)),
    Mutant("terms-wrong-coordinate", MULT, "((parts[r0] - a0) >> 1, (parts[r1] - a1) >> 1,",
           "((parts[r0] - a1) >> 1, (parts[r1] - a0) >> 1,", (T_MULT,)),
    Mutant("case-elements-bit-shifted", MULT, "1 << weyl.CANONICAL_WORDS.index(t.word) for",
           "1 << weyl.CANONICAL_WORDS.index(t.word) + (t.letter == 'Q') for", (T_MULT,)),
    Mutant("case-table-skips-sub-0", MULT,
           "                table[nonneg | sub] = number\n                if not sub:\n                    break\n",
           "                if not sub:\n                    break\n                table[nonneg | sub] = number\n",
           (T_MULT,)),
    # multiplicity: Freudenthal
    Mutant("lam-dominance-unchecked", MULT, "    if min(lam) < 0:", "    if min(lam) < -1:", (T_MULT,)),
    Mutant("freudenthal-no-default", MULT, "if nu == mu_eps), 0)", "if nu == mu_eps))", (T_MULT,)),
    Mutant("freudenthal-b-unflipped", MULT, "    if b < 0:\n        b, r2 = -b, -r2\n", "", (T_MULT,)),
    Mutant("freudenthal-c-unflipped", MULT, "    if c < 0:\n        c, r3 = -c, -r3\n", "", (T_MULT,)),
    Mutant("freudenthal-first-swap-dropped", MULT,
           "    if a < b:\n        a, b, r1, r2 = b, a, r2, r1\n    if b < c:", "    if b < c:", (T_MULT,)),
    Mutant("wall-cap-1", MULT, "_WALL_CAP = 2", "_WALL_CAP = 1", (T_MULT,)),
    Mutant("step-root-index-ignored", MULT, "c - nu[2], i))", "c - nu[2], _POSITIVE_EPS.index(root)))", (T_MULT,)),
    Mutant("key-width-guard-by-one", MULT, "if L1 + 2 >= 1 << _KEY_BITS:", "if L1 + 2 > 1 << _KEY_BITS:",
           (T_MULT,)),
    Mutant("freudenthal-indivisible-accepted", MULT, "            if acc % denom:", "            if False:",
           (T_MULT,)),
    Mutant("floor-raised", MULT, "_freudenthal_pass(_lam_eps(lam), (0, 0, 0))",
           "_freudenthal_pass(_lam_eps(lam), (1, 0, 0))", (T_MULT,)),
    # partition
    Mutant("check-int-accepts-bool", PART, "if type(v) is not int:", "if type(v) not in (int, bool):", (T_PART,)),
    Mutant("stride2-parity-zero", PART, "runs2[total & 1::2] = accumulate(runs2[total & 1::2])",
           "runs2[0::2] = accumulate(runs2[0::2])", (T_PART,)),
    Mutant("f-star-unclamped", PART, "            if fs < 0:\n                fs = 0\n", "", (T_PART,)),
    Mutant("f-star-by-one", PART, "fs = d0 - a0 + c0", "fs = d0 - a0 + c0 + 1", (T_PART,)),
    Mutant("upper-run-end-by-one", PART, "d3[b + 2 - d0] += 1", "d3[b + 3 - d0] += 1", (T_PART,)),
    Mutant("ramp-height-by-one", PART, "mk2 -= top + 1", "mk2 -= top", (T_PART,)),
    Mutant("peel-sign", PART, "theta - (both << PACK_BITS)", "theta + (both << PACK_BITS)", (T_PART,)),
    Mutant("peel-guard", PART, "if m >= 1 and n >= 2 and k >= 1:", "if m > 1 and n >= 2 and k >= 1:", (T_PART,)),
    Mutant("peel-theta-guard", PART, "if m >= 2 else 0", "if m >= 1 else 0", (T_PART,)),
    Mutant("peel-gamma-theta-guard", PART, "if m >= 3 and n >= 4 and k >= 2 else 0", "if m >= 3 and n >= 4 else 0",
           (T_PART,)),
    Mutant("peel-gamma-theta-unshifted", PART, "- (both << PACK_BITS)) << PACK_BITS", "- both) << PACK_BITS",
           (T_PART,)),
    # qpoly
    Mutant("qpoly-not-normalised", QPOLY, "        while end and c[end - 1] == 0:\n            end -= 1\n", "", (T_QPOLY,)),
    Mutant("qpoly-keeps-a-trailing-zero", QPOLY, "c[-1] != 0)", "c[-1] is not None)", (T_QPOLY,)),
    Mutant("signed-sum-any-sign", QPOLY, "op = _SIGNED.get(s)", "op = _SIGNED.get(s, add)", (T_QPOLY,)),
    Mutant("signed-sum-copies-a-negative-first-term", QPOLY, "if not out and op is add:", "if not out:", (T_QPOLY,)),
    Mutant("pack-negative-digit-unborrowed", QPOLY, "    if not data[7::8].isascii():", "    if False:", (T_QPOLY,)),
    Mutant("unpack-borrow-dropped", QPOLY, "d + (below < 0) for", "d for", (T_QPOLY,)),
    Mutant("unpack-fast-path-on-a-negative-digit", QPOLY, "        if data[7::8].isascii():", "        if True:",
           (T_QPOLY,)),
    # weyl
    Mutant("weyl-words-degenerate-unchecked", WEYL, "        if el in by_element:", "        if False:", (T_WEYL,)),
    Mutant("weyl-group-order-unchecked", WEYL, "    if len(elements) != 48:", "    if False:", (T_WEYL,)),
    # cli: exit codes
    Mutant("exit-fixture", CLI, "EXIT_OK if report.all_passed else EXIT_FIXTURE", "EXIT_OK", (T_CLI,)),
    Mutant("exit-crosscheck-mult", CLI, "            file=sys.stderr,\n        )\n        return EXIT_CROSSCHECK",
           "            file=sys.stderr,\n        )\n        return EXIT_OK", (T_CLI,)),
    # cli: usage errors
    Mutant("subcommand-flag-prefixes", CLI, 'add_subparsers(dest="command", required=True, parser_class=_Parser)',
           'add_subparsers(dest="command", required=True)', (T_CLI,)),
    Mutant("usage-handler-narrowed", CLI, "    except ValueError as exc:", "    except ArithmeticError as exc:", (T_CLI,)),
)

EQUIVALENT: tuple[tuple[Mutant, str], ...] = (
    (Mutant("parity-not-odd", MULT, "(m + k + x + z) % 2 == 0", "(m + k + x + z) % 2 != 1", ()),
     "an int % 2 is 0 or 1, so == 0 and != 1 agree on every input"),
    (Mutant("type1-constant-nonpositive", MULT, "and c1 < 0 for", "and c1 <= 0 for", ()),
     "no row of sigma_table has a lam part with every coefficient <= 0 and a constant of 0"),
    (Mutant("group-tuple-shared", WEYL, "return list(_tables()[0])", "return _tables()[0]", ()),
     "no caller mutates the list enumerate_group returns"),
    (Mutant("case-table-reversed", MULT, "alternatives in _CASE_MASKS:", "alternatives in reversed(_CASE_MASKS):", ()),
     "the 45 cases are pairwise disjoint, so no pattern is written twice and the order does not matter"),
    (Mutant("freudenthal-parity-dropped", MULT, "    if (sum(lam_eps) - sum(mu_eps)) % 2:", "    if False:", ()),
     "the pass yields only weights of lam's coset, so a mu+ in the other coset still gets 0; only the time changes"),
    (Mutant("f-star-clamp-lowered", PART, "if fs < 0:", "if fs < -2:", ()),
     "unclamped, f* = -s adds s at m+k+1 and at m+k+s and -2 at each of m+k+1..m+k+s to the second differences, "
     "which cancel for s = 1 and s = 2"),
)


def snippet_problems() -> list[str]:
    """One line per listed snippet that does not occur exactly once in its file."""
    problems = []
    for m in MUTANTS + tuple(m for m, _reason in EQUIVALENT):
        count = (ROOT / m.file).read_text("utf-8").count(m.snippet)
        if count != 1:
            problems.append(f"{m.id}: the snippet occurs {count} times in {m.file}")
    return problems


def _pytest(copy: Path, tests) -> tuple[int, float]:
    """Exit code and wall time of pytest on the test files, run in the copy on its own src/."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
                          cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return proc.returncode, time.perf_counter() - start


def main() -> int:
    start = time.perf_counter()
    problems = snippet_problems()
    for line in problems:
        print(line)
    if problems:
        return 1
    survivors = []
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for d in ("src", "tests"):
            shutil.copytree(ROOT / d, copy / d, ignore=shutil.ignore_patterns("__pycache__"))
        code, seconds = _pytest(copy, sorted({t for m in MUTANTS for t in m.tests}))
        print(f"unchanged copy: pytest exit {code} ({seconds:.1f} s)")
        if code:
            return 1
        for m in MUTANTS:
            path = copy / m.file
            original = path.read_text("utf-8")
            path.write_text(original.replace(m.snippet, m.replacement), "utf-8")
            code, seconds = _pytest(copy, m.tests)
            path.write_text(original, "utf-8")
            # 1 is a failed test; any other code (an import or collection error, no tests) is no kill
            verdict = "killed" if code == 1 else f"SURVIVED (pytest exit {code})"
            print(f"{verdict:<10} {m.id} ({seconds:.1f} s)")
            if code != 1:
                survivors.append(m.id)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed, {len(EQUIVALENT)} equivalent not run, "
          f"{time.perf_counter() - start:.0f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
