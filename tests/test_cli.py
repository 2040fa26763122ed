import json

import pytest

from sp6q import cli, partition
from sp6q.qpoly import QPoly


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_kpf_human(capsys):
    code, out, _ = run(capsys, "kpf", "--alpha", "2,2,1")
    assert code == 0
    assert out.strip() == "q + 2*q^2 + 4*q^3 + 2*q^4 + q^5"


def test_kpf_trivial(capsys):
    code, out, _ = run(capsys, "kpf", "--alpha", "0,0,0")
    assert code == 0
    assert out.strip() == "1"


def test_kpf_oracle_agrees(capsys):
    code, out, _ = run(capsys, "kpf", "--alpha", "2,2,1", "--oracle")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2 and lines[0] == lines[1]


def test_kpf_oracle_mismatch_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(partition, "kpf_q_oracle", lambda m, n, k: QPoly((9,)))
    code, _out, err = run(capsys, "kpf", "--alpha", "1,0,0", "--oracle")
    assert code == 3
    assert "cross-check failed" in err


def test_kpf_json(capsys):
    code, out, _ = run(capsys, "kpf", "--alpha", "2,2,1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == "1"
    assert payload["kpf_q"] == ["0", "1", "2", "4", "2", "1"]
    assert payload["kpf"] == 10


def test_mult_human(capsys):
    code, out, _ = run(capsys, "mult", "--lam", "2,0,0", "--mu", "0,0,0")
    assert code == 0
    assert out.strip() == "q + q^3 + q^5"


def test_mult_at_one(capsys):
    code, out, _ = run(capsys, "mult", "--lam", "0,0,2", "--mu", "1,0,1", "--at-one")
    assert code == 0
    assert out.strip() == "1"


def test_mult_parity_note(capsys):
    code, out, err = run(capsys, "mult", "--lam", "1,0,0", "--mu", "0,0,0")
    assert code == 0
    assert out.strip() == "0"
    assert "root lattice" in err


def test_mult_both_methods(capsys):
    code, out, _ = run(capsys, "mult", "--lam", "4,2,0", "--mu", "0,0,0", "--method", "both")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2 and lines[0] == lines[1]


def test_mult_mismatch_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(cli.multiplicity, "mult_q_cases", lambda lam, mu: QPoly((5,)))
    code, _out, err = run(capsys, "mult", "--lam", "2,0,0", "--mu", "0,0,0", "--method", "both")
    assert code == 3
    assert "cross-check failed" in err


def test_altset(capsys):
    code, out, _ = run(capsys, "altset", "--lam", "2,1,0", "--mu", "0,0,0")
    assert code == 0
    assert out.strip() == "{1, s1, s2, s3, s2*s3, s3*s1}"


def test_census_pipeline_counts(capsys):
    code, out, _ = run(capsys, "census", "pipeline")
    assert code == 0
    assert out.strip() == "131072 -> 1124 -> 150 -> 46"


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


def test_census_pipeline_json_stage_filter(capsys, tmp_path):
    out_file = tmp_path / "pipeline.json"
    code, _out, _ = run(
        capsys, "census", "pipeline", "--stage", "3", "--out", str(out_file)
    )
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert payload["result"]["counts"]["final"] == 46
    assert list(payload["result"]["families"]) == ["final"]
    assert len(payload["result"]["families"]["final"]) == 46


def test_census_verify_fixture_mismatch_exit_code(capsys, tmp_path):
    # corrupt fixtures: drop one set from every family file
    import sp6q.census as census

    for stage, fname in (
        ("stage1", "alt_sets_stage1.json"),
        ("stage2", "alt_sets_stage2.json"),
        ("final", "alt_sets_final.json"),
    ):
        fam = [a.to_json() for a in census.load_family_fixture(stage)]
        (tmp_path / fname).write_text(json.dumps(fam[:-1]))
    witnesses = census._load_fixture("witnesses")
    (tmp_path / "witness_pairs.json").write_text(json.dumps(witnesses))
    code, out, _ = run(
        capsys, "census", "verify", "--fixtures", str(tmp_path),
        "--lam-max", "2", "--mu-max", "2",
    )
    assert code == 4
    assert "FAIL" in out


def test_negative_coefficients_accepted(capsys):
    # non-dominant weights are legal inputs; leading minus signs must not
    # be mistaken for option names
    code, out, _ = run(capsys, "mult", "--lam", "2,0,0", "--mu", "-2,0,0", "--at-one")
    assert code == 0
    assert out.strip() == "1"
    code, out, _ = run(capsys, "altset", "--lam", "-3,-3,-3", "--mu", "-3,-3,-3")
    assert code == 0
    assert "s1*s2*s3" in out


def test_usage_errors_exit_2(capsys, tmp_path):
    (tmp_path / "alt_sets_stage1.json").write_text("[[")
    for argv in (
        ["kpf", "--alpha", "1,2"],
        ["kpf", "--alpha", "a,b,c"],
        [],
        ["census", "sweep", "--lam-max", "-1", "--mu-max", "0"],
        ["census", "verify", "--mu-max", "-3"],
        ["census", "sweep", "--lam-max", "0", "--mu-max", "0", "--jobs", "0"],
        ["census", "verify", "--jobs", "-1"],
        ["census", "verify", "--fixtures", str(tmp_path / "missing")],
        ["census", "verify", "--fixtures", str(tmp_path)],
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2, argv
        err = capsys.readouterr().err
        assert "error:" in err.splitlines()[-1] and "Traceback" not in err, argv
