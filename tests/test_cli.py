import contextlib
import io
import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import sp6q
from sp6q import census, cli, partition
from sp6q.qpoly import QPoly

_PACKAGED = pathlib.Path(census.__file__).parent / "data"


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_kpf_trivial(capsys):
    code, out, _ = run(capsys, "kpf", "--alpha", "0,0,0")
    assert code == 0
    assert out.strip() == "1"


def test_kpf_oracle_mismatch_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(partition, "kpf_q_oracle", lambda m, n, k: QPoly((9,)))
    code, _out, err = run(capsys, "kpf", "--alpha", "1,0,0", "--oracle")
    assert code == 3
    assert "cross-check failed" in err


def test_mult_at_one(capsys):
    code, out, _ = run(capsys, "mult", "--lam", "0,0,2", "--mu", "1,0,1", "--at-one")
    assert code == 0
    assert out.strip() == "1"


def test_mult_mismatch_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(cli.multiplicity, "mult_q_cases", lambda lam, mu: QPoly((5,)))
    code, _out, err = run(capsys, "mult", "--lam", "2,0,0", "--mu", "0,0,0", "--method", "both")
    assert code == 3
    assert "cross-check failed" in err


def test_census_sweep_trivial(capsys):
    code, out, _ = run(capsys, "census", "sweep", "--lam-max", "0", "--mu-max", "0")
    assert code == 0
    assert "{1}" in out
    assert "1 distinct" in out


def test_census_sweep_json_digest_stable(capsys):
    _code, out1, _ = run(capsys, "census", "sweep", "--lam-max", "1", "--mu-max", "1", "--json")
    _code, out2, _ = run(capsys, "census", "sweep", "--lam-max", "1", "--mu-max", "1", "--json")
    p1, p2 = json.loads(out1), json.loads(out2)
    assert p1["result"] == p2["result"]
    assert p1["manifest"]["result_digest"] == p2["manifest"]["result_digest"]
    # the manifest differs at most in timing
    p1["manifest"].pop("elapsed_seconds")
    p2["manifest"].pop("elapsed_seconds")
    assert p1 == p2


@pytest.mark.parametrize("argv, digest", [
    (["census", "pipeline"], "1aeb48807b76aff3fe340d0e3b41e05d7659aa484588363693535197280da756"),
    (["census", "sweep", "--lam-max", "10", "--mu-max", "10"],
     "29a31c9c81c443126885c81b5f58cfd069880da1ada95854721f85eebc7dc3f7"),
    (["census", "verify"], "22f2859767850f15e4ee5decb48c2d7db27fabe7f96bbd521718dff69bd0ed9e"),
], ids=["pipeline", "sweep", "verify"])
def test_census_result_digests_are_pinned(capsys, argv, digest):
    # the same outputs across refactors: each census result, as its manifest digest
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    assert json.loads(out)["manifest"]["result_digest"] == digest


def test_census_pipeline_json_stage_filter(capsys):
    code, out, _ = run(capsys, "census", "pipeline", "--stage", "3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["counts"]["final"] == 46
    assert list(payload["result"]["families"]) == ["final"]
    assert len(payload["result"]["families"]["final"]) == 46


def test_census_verify_fixture_mismatch_exit_code(capsys, tmp_path):
    # corrupt fixtures: drop one set from every family file
    for stage, fname in (
        ("stage1", "alt_sets_stage1.json"),
        ("stage2", "alt_sets_stage2.json"),
        ("final", "alt_sets_final.json"),
    ):
        fam = [a.to_json() for a in census.load_family_fixture(stage)]
        (tmp_path / fname).write_text(json.dumps(fam[:-1]))
    shutil.copy(_PACKAGED / "witness_pairs.json", tmp_path)
    code, out, _ = run(
        capsys, "census", "verify", "--fixtures", str(tmp_path),
        "--lam-max", "2", "--mu-max", "2",
    )
    assert code == 4
    assert "FAIL" in out
    # two witness rows with their sets swapped: witness-rows alone fails,
    # naming both pairs with the set each gives and the set its row wants
    witnesses = json.loads((_PACKAGED / "witness_pairs.json").read_text())
    witnesses[0]["set"], witnesses[1]["set"] = witnesses[1]["set"], witnesses[0]["set"]
    swapped = _fixture_copy(tmp_path / "swapped", "witness_pairs.json", json.dumps(witnesses))
    code, out, _ = run(capsys, "census", "verify", "--fixtures", swapped)
    assert code == 4
    assert out.splitlines() == [
        "[PASS] pipeline-stage1: 1124 sets",
        "[PASS] pipeline-stage2: 150 sets",
        "[PASS] pipeline-final: 46 sets",
        "[FAIL] witness-rows: (0, 0, 0),(0, 0, 2): got {}, want {1}; (0, 0, 0),(0, 0, 0): got {1}, want {}",
        "[PASS] sweep-family: 46 sets from sweep(10,10)",
        "[PASS] pipeline-vs-sweep: families agree",
    ]
    # one final set listed twice: the same sets, so the detail names both counts
    final = json.loads((_PACKAGED / "alt_sets_final.json").read_text())
    doubled = _fixture_copy(tmp_path / "doubled", "alt_sets_final.json", json.dumps(final[:11] + final[10:]))
    code, out, _ = run(capsys, "census", "verify", "--fixtures", doubled)
    assert code == 4
    assert [line for line in out.splitlines() if line.startswith("[FAIL]")] == [
        "[FAIL] pipeline-final: got 46 sets, want 47",
        "[FAIL] sweep-family: got 46 sets, want 47",
    ]
    # three sets of two sizes dropped: the extra sets are listed by size, then by members
    stage1 = json.loads((_PACKAGED / "alt_sets_stage1.json").read_text())
    dropped = [row for row in stage1 if row not in (["1"], ["1", "s1"], ["s2"])]
    assert len(dropped) == len(stage1) - 3
    short = _fixture_copy(tmp_path / "short", "alt_sets_stage1.json", json.dumps(dropped))
    code, out, _ = run(capsys, "census", "verify", "--fixtures", short)
    assert code == 4
    assert [line for line in out.splitlines() if line.startswith("[FAIL]")] == [
        "[FAIL] pipeline-stage1: extra=['{1}', '{s2}', '{1, s1}'] missing=[]",
    ]


def test_negative_coefficients_accepted(capsys):
    # non-dominant weights are legal inputs; leading minus signs must not
    # be mistaken for option names
    code, out, _ = run(capsys, "mult", "--lam", "2,0,0", "--mu", "-2,0,0", "--at-one")
    assert code == 0
    assert out.strip() == "1"
    code, out, _ = run(capsys, "altset", "--lam", "-3,-3,-3", "--mu", "-3,-3,-3")
    assert code == 0
    assert "s1*s2*s3" in out


def _fixture_copy(directory, fname, text):
    """The packaged fixtures in directory, with fname's text replaced."""
    shutil.copytree(_PACKAGED, directory)
    (directory / fname).write_text(text)
    return str(directory)


def test_usage_errors_exit_2(capsys, tmp_path):
    (tmp_path / "alt_sets_stage1.json").write_text("[[")
    witnesses = json.loads((_PACKAGED / "witness_pairs.json").read_text())
    bad_rows = []  # fixture dirs whose first witness row has one malformed value
    for i, (key, value) in enumerate((
        ("set", "1"),  # a string, not an array of Weyl words
        ("lam", [1, 2]), ("lam", [1.0, 0, 0]), ("mu", [0, 0, True]), ("lam", None),  # not three integers
    )):
        rows = [dict(witnesses[0], **{key: value})] + witnesses[1:]
        bad_rows.append(["census", "verify", "--fixtures",
                         _fixture_copy(tmp_path / f"witness{i}", "witness_pairs.json", json.dumps(rows))])
    for argv in (
        ["kpf", "--alpha", "1,2"],
        ["kpf", "--alpha", "a,b,c"],
        [],
        ["census", "sweep", "--lam-max", "-1", "--mu-max", "0"],
        ["census", "verify", "--mu-max", "-3"],
        # census sweep has no --jobs, and census verify accepts only --jobs 1
        ["census", "sweep", "--lam-max", "0", "--mu-max", "0", "--jobs", "1"],
        ["census", "sweep", "--lam-max", "0", "--mu-max", "0", "--jobs", "0"],
        ["census", "verify", "--jobs", "-1"],
        ["census", "verify", "--jobs", "2"],
        ["census", "verify", "--fixtures", str(tmp_path / "missing")],
        ["census", "verify", "--fixtures", str(tmp_path)],
        # fixtures holding the JSON string "1" or an object, not an array; the malformed witness rows
        ["census", "verify", "--fixtures", _fixture_copy(tmp_path / "stage", "alt_sets_stage1.json", '"1"')],
        ["census", "verify", "--fixtures", _fixture_copy(tmp_path / "stage-object", "alt_sets_stage2.json", "{}")],
        ["census", "verify", "--fixtures", _fixture_copy(tmp_path / "witness-object", "witness_pairs.json", "{}")],
        *bad_rows,
        # a triple is three ASCII integers: no underscores, no other digits
        ["mult", "--lam=-1_0,0,0", "--mu", "0,0,0"],
        ["kpf", "--alpha", "1_0,0,0"],
        ["altset", "--lam", "\u0661,0,0", "--mu", "0,0,0"],
        ["mult", "--lam", "0,0,0", "--mu", "-4,-4,-4", "--method", "both"],
        ["mult", "--lam", "0,0,0", "--mu", "-4,-4,-4", "--method", "cases"],
        # above the kpf_q and kpf_q_oracle height bounds and the sweep pair cap
        ["kpf", "--alpha", "99999999999999999999999,0,0"],
        ["kpf", "--alpha", "200,300,200", "--oracle"],
        ["mult", "--lam", "99999999999999999999998,0,0", "--mu", "0,0,0"],
        ["census", "sweep", "--lam-max", "1000", "--mu-max", "1000"],
        ["census", "sweep", "--lam-max", "40", "--mu-max", "40"],
        ["census", "sweep", "--lam-max", "999", "--mu-max", "0"],
        ["census", "verify", "--lam-max", "999", "--mu-max", "0"],
        # a flag given by a prefix of its name
        ["mult", "--la", "-1,0,0", "--mu", "0,0,0"],
        ["kpf", "--al", "1,2,3"],
        ["census", "sweep", "--lam", "1", "--mu", "1"],
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2, argv
        err = capsys.readouterr().err
        assert "error:" in err.splitlines()[-1] and "Traceback" not in err, argv


def test_census_help_states_the_box_bound(capsys):
    # the refusal bound is shown on both box flags of both commands; the
    # hidden census verify --jobs is not
    bound = f"charged over {census.SWEEP_MAX_PAIRS:.0e} (lam, mu) pairs, each block of {census.SWEEP_BLOCK_PAIRS}"
    for command in ("sweep", "verify"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["census", command, "--help"])
        assert exc.value.code == 0
        out = " ".join(capsys.readouterr().out.split())
        assert out.count(bound) == 2 and "--jobs" not in out, command


def test_fixture_words_in_any_spelling(capsys, tmp_path):
    # a fixture word may spell its element any way; it loads as the canonical
    # word, and the memoized lookup never caches a malformed one
    text = (_PACKAGED / "alt_sets_final.json").read_text()
    assert '"s1*s2*s1"' in text
    respelled = _fixture_copy(tmp_path / "respelled", "alt_sets_final.json",
                              text.replace('"s1*s2*s1"', '" s2 * s1 * s2 "'))
    assert census.load_family_fixture("final", respelled) == census.load_family_fixture("final")
    assert sum("s1*s2*s1" in a.to_json() for a in census.load_family_fixture("final", respelled)) == 16
    assert run(capsys, "census", "verify", "--fixtures", respelled)[0] == 0
    malformed = _fixture_copy(tmp_path / "malformed", "alt_sets_final.json",
                              text.replace('"s1*s2*s1"', '"s2*s1*s4"'))
    for _ in range(2):
        with pytest.raises(census.FixtureError, match="s4"):
            census.load_family_fixture("final", malformed)
        with pytest.raises(SystemExit) as exc:
            cli.main(["census", "verify", "--fixtures", malformed])
        assert exc.value.code == 2
        assert "malformed Weyl word" in capsys.readouterr().err


def test_verify_reads_fixtures_before_pipeline(monkeypatch, capsys, tmp_path):
    def no_pipeline():
        raise AssertionError("filter_pipeline ran before the fixtures were read")

    monkeypatch.setattr(census, "filter_pipeline", no_pipeline)
    with pytest.raises(SystemExit) as exc:
        cli.main(["census", "verify", "--fixtures", str(tmp_path / "missing")])
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


_KPF_Q = ["0", "1", "2", "4", "2", "1"]
_KPF_TEXT = "q + 2*q^2 + 4*q^3 + 2*q^4 + q^5\n"
_MULT_Q = [str(c) for c in (0, 0, 0, 0, 1, 0, 3, 1, 6, 3, 8, 4, 8, 4, 6, 3, 3, 1, 1)]
_MULT_TEXT = "q^4 + 3*q^6 + q^7 + 6*q^8 + 3*q^9 + 8*q^10 + 4*q^11 + 8*q^12 + 4*q^13 + 6*q^14 + 3*q^15 + 3*q^16 + q^17 + q^18\n"
_SWEEP_1 = [  # (set, lam, mu) of census sweep --lam-max 1 --mu-max 1
    (["1"], [0, 0, 0], [0, 0, 0]),
    ([], [0, 0, 0], [0, 1, 0]),
    (["1", "s2"], [0, 0, 1], [1, 0, 0]),
    (["1", "s1", "s2", "s3", "s3*s1"], [0, 1, 0], [0, 0, 0]),
    (["1", "s1", "s2"], [0, 1, 1], [0, 0, 1]),
    (["1", "s1", "s2", "s3", "s2*s1", "s3*s1"], [0, 1, 1], [1, 0, 0]),
    (["1", "s2", "s3"], [1, 1, 0], [1, 0, 0]),
]
_MISSING_AT_2 = (
    "extra=[] missing=['{1, s2, s3, s2*s3}', '{1, s2, s3, s3*s2}', '{1, s2, s3, s2*s3, s3*s2}', "
    "'{1, s1, s2, s3, s3*s1, s3*s2}', '{1, s1, s2, s1*s2, s2*s1, s1*s2*s1}']"
)


def _census_payload(argv, params, digest, result):
    """A census JSON payload as printed, less its manifest's elapsed_seconds."""
    manifest = {"command": argv, "parameters": params, "result_digest": digest, "tool": "sp6q",
                "version": sp6q.__version__}
    return {"command": " ".join(argv[:2]), "manifest": manifest, "result": result, "schema_version": "1"}


_PIPELINE_3 = ["census", "pipeline", "--stage", "3", "--json"]
_SWEEP_1_JSON = ["census", "sweep", "--lam-max", "1", "--mu-max", "1", "--json"]
# (argv, exit code, stdout, stderr); a dict stands for a JSON stdout
_GOLDEN = [
    (["kpf", "--alpha", "2,2,1"], 0, _KPF_TEXT, ""),
    (["kpf", "--alpha", "2,2,1", "--json"], 0,
     {"alpha": [2, 2, 1], "command": "kpf", "kpf": 10, "kpf_q": _KPF_Q, "schema_version": "1"}, ""),
    (["kpf", "--alpha", "2,2,1", "--oracle"], 0, _KPF_TEXT * 2, ""),
    (["kpf", "--alpha", "2,2,1", "--oracle", "--json"], 0,
     {"alpha": [2, 2, 1], "command": "kpf", "kpf": 10, "kpf_q": _KPF_Q, "oracle": _KPF_Q, "schema_version": "1"},
     ""),
    (["mult", "--lam", "2,0,0", "--mu", "0,0,0"], 0, "q + q^3 + q^5\n", ""),
    (["mult", "--lam", "4,2,0", "--mu", "0,0,0", "--at-one"], 0, "52\n", ""),
    (["mult", "--lam", "4,2,0", "--mu", "0,0,0", "--method", "both"], 0, _MULT_TEXT * 2, ""),
    (["mult", "--lam", "4,2,0", "--mu", "0,0,0", "--method", "both", "--json"], 0,
     {"command": "mult", "lam": [4, 2, 0], "method": "both", "mu": [0, 0, 0], "mult": 52,
      "mult_q": {"cases": _MULT_Q, "direct": _MULT_Q}, "schema_version": "1"}, ""),
    (["mult", "--lam", "8,0,0", "--mu", "0,0,2", "--method", "both"], 0, "q^7 + q^9 + q^11\n" * 2, ""),
    (["mult", "--lam", "1,0,0", "--mu", "0,0,0"], 0, "0\n",
     "note: weight difference is outside the root lattice; multiplicity is 0\n"),
    (["altset", "--lam", "2,1,0", "--mu", "0,0,0"], 0, "{1, s1, s2, s3, s2*s3, s3*s1}\n", ""),
    (["altset", "--lam", "2,1,0", "--mu", "0,0,0", "--json"], 0,
     {"command": "altset", "lam": [2, 1, 0], "mu": [0, 0, 0], "schema_version": "1",
      "set": ["1", "s1", "s2", "s3", "s2*s3", "s3*s1"]}, ""),
    (["census", "pipeline"], 0, "131072 -> 1124 -> 150 -> 46\n", ""),
    (_PIPELINE_3, 0, _census_payload(
        _PIPELINE_3, {"stage": 3}, "635976d648329fa69d5d8507927fcb7f1e391e359c8727e48e4b98878accba9a",
        {"counts": {"candidates": 131072, "final": 46, "stage1": 1124, "stage2": 150},
         "families": {"final": [a.to_json() for a in census.load_family_fixture("final")]}}), ""),
    (["census", "sweep", "--lam-max", "1", "--mu-max", "1"], 0,
     "7 distinct alternation sets\n"
     "{1}                                                                    lam=(0, 0, 0) mu=(0, 0, 0)\n"
     "{}                                                                     lam=(0, 0, 0) mu=(0, 1, 0)\n"
     "{1, s2}                                                                lam=(0, 0, 1) mu=(1, 0, 0)\n"
     "{1, s1, s2, s3, s3*s1}                                                 lam=(0, 1, 0) mu=(0, 0, 0)\n"
     "{1, s1, s2}                                                            lam=(0, 1, 1) mu=(0, 0, 1)\n"
     "{1, s1, s2, s3, s2*s1, s3*s1}                                          lam=(0, 1, 1) mu=(1, 0, 0)\n"
     "{1, s2, s3}                                                            lam=(1, 1, 0) mu=(1, 0, 0)\n", ""),
    (_SWEEP_1_JSON, 0, _census_payload(
        _SWEEP_1_JSON, {"lam_max": 1, "mu_max": 1},
        "1231281806df32dd001e80052236ee729b754fa6c917b99377b003b70fe205ae",
        {"distinct_sets": 7, "lam_max": 1, "mu_max": 1,
         "entries": [{"set": s, "lam": lam, "mu": mu} for s, lam, mu in _SWEEP_1]}), ""),
    (["census", "verify", "--lam-max", "2", "--mu-max", "2"], 4,
     "[PASS] pipeline-stage1: 1124 sets\n"
     "[PASS] pipeline-stage2: 150 sets\n"
     "[PASS] pipeline-final: 46 sets\n"
     "[PASS] witness-rows: 46 rows reproduced\n"
     f"[FAIL] sweep-family: {_MISSING_AT_2}\n"
     f"[FAIL] pipeline-vs-sweep: {_MISSING_AT_2}\n", ""),
]


@pytest.mark.parametrize("argv, code, stdout, stderr", _GOLDEN, ids=[" ".join(g[0]) for g in _GOLDEN])
def test_every_command_output_is_pinned(capsys, argv, code, stdout, stderr):
    got_code, out, err = run(capsys, *argv)
    assert (got_code, err) == (code, stderr)
    if isinstance(stdout, dict):  # the exact JSON text, whatever the run's timing
        payload = json.loads(out)
        elapsed = payload.get("manifest", {}).pop("elapsed_seconds", None)
        assert payload == stdout
        if elapsed is not None:
            payload["manifest"]["elapsed_seconds"] = elapsed
        assert out == json.dumps(payload, indent=1, sort_keys=True) + "\n"
    else:
        assert out == stdout


@pytest.mark.parametrize("argv", [
    ["kpf", "--alpha", "2,2,1"],
    ["census", "pipeline", "--json"],
    ["census", "sweep", "--lam-max", "2", "--mu-max", "2"],
], ids=" ".join)
def test_closed_stdout_exits_141_without_traceback(argv):
    # the pipe's read end is closed before the command starts, so every write to stdout fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(pathlib.Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    try:
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from sp6q.cli import main; sys.exit(main())", *argv],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 141, proc.stderr
    assert proc.stderr == ""  # no traceback, no "Exception ignored" from the flush at exit


def test_oracle_bound_checked_before_any_work(monkeypatch, capsys):
    def no_kpf_q(*alpha):
        raise AssertionError("kpf_q ran before the oracle bound was checked")

    monkeypatch.setattr(partition, "kpf_q", no_kpf_q)
    with pytest.raises(SystemExit) as exc:
        cli.main(["kpf", "--alpha", "200,300,200", "--oracle"])
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


# A small argv grammar: each command with its flags, every flag usually
# present with a drawn value, plus at most one stray token, in any order.
# Now and then a coordinate or a box bound is far above what kpf_q or
# the sweep pair cap accepts.  census verify accepts --jobs only as 1, and
# census sweep not at all, so --jobs is mostly refused.
_HUGE = 10**23
_COORD = st.integers(-6, 26).map(lambda v: _HUGE if v == 26 else v)
_TRIPLE = st.integers(0, 3).flatmap(  # malformed one time in four
    lambda k: st.tuples(_COORD, _COORD, _COORD).map(lambda t: "%d,%d,%d" % t) if k
    else st.sampled_from(["1,2", "a,b,c", "1,,2", "1,2,3,4", "", "1.5,0,0", "-"])
)
_JOBS = st.integers(-1, 3).map(lambda v: str(64 if v == 3 else v))
_BOUND = st.integers(-1, 3).map(lambda v: str(_HUGE if v == 3 else v))
_MISSING_DIR = str(pathlib.Path(__file__).parent / "no-such-fixtures")
_GRAMMAR = {
    "kpf": [("--alpha", _TRIPLE), ("--oracle", None), ("--json", None)],
    "mult": [
        ("--lam", _TRIPLE),
        ("--mu", _TRIPLE),
        ("--method", st.sampled_from(["direct", "cases", "both", "other"])),
        ("--at-one", None),
        ("--json", None),
    ],
    "altset": [("--lam", _TRIPLE), ("--mu", _TRIPLE), ("--json", None)],
    "census pipeline": [
        ("--stage", st.integers(-1, 4).map(str)),
        ("--json", None),
    ],
    "census sweep": [
        ("--lam-max", _BOUND),
        ("--mu-max", _BOUND),
        ("--jobs", _JOBS),
        ("--json", None),
    ],
    "census verify": [
        ("--fixtures", st.just(_MISSING_DIR)),
        ("--lam-max", _BOUND),
        ("--mu-max", _BOUND),
        ("--jobs", _JOBS),
        ("--json", None),
    ],
}
_STRAY = st.sampled_from(["extra", "--bogus", "-x", "--", "1,2,3", "--lam", "--json"])


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_GRAMMAR)))
    groups = [
        [flag] if values is None else [flag, draw(values)]
        for flag, values in _GRAMMAR[command]
        if draw(st.integers(0, 3))  # present three times in four
    ]
    groups += [[tok] for tok in draw(st.lists(_STRAY, max_size=1))]
    groups = draw(st.permutations(groups))
    return command.split() + [tok for group in groups for tok in group]


@given(_argv())
@settings(max_examples=60, deadline=None)
def test_cli_argv_fuzz(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2, 3, 4), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv
