"""CLI subcommands: output formats, exit codes, file handling."""

import json

import pytest

from collatz_ca.cli import main


def test_run_jsonl(capsys):
    assert main(["run", "7", "--variant", "ca3"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec == {
        "input": 7,
        "variant": "ca3",
        "iterates": [7, 11, 17, 13, 5, 1, 1],
        "reached_one": True,
        "ca_steps_to_one": 5,
        "ticks_used": 6,
    }


def test_run_text_trims_at_first_one(capsys):
    assert main(["run", "7", "--variant", "ca3", "--format", "text"]) == 0
    assert capsys.readouterr().out == "7 11 17 13 5 1\n"


def test_run_csv(capsys):
    assert main(["run", "7", "--variant", "ca2", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "row,value"
    assert lines[1] == "0,7"
    assert lines[-1] == "9,1"


def test_run_synchronous_mode_agrees(capsys):
    assert main(["run", "27", "--variant", "ca1", "--format", "text"]) == 0
    frontier = capsys.readouterr().out
    assert main(["run", "27", "--variant", "ca1", "--mode", "synchronous", "--format", "text"]) == 0
    assert capsys.readouterr().out == frontier


def test_run_undetermined_exit_code(capsys):
    assert main(["run", "27", "--variant", "ca3", "--max-rows", "5"]) == 2
    rec = json.loads(capsys.readouterr().out)
    assert rec["reached_one"] is False and rec["ca_steps_to_one"] is None


@pytest.mark.parametrize("variant", ["ca1", "ca2", "ca3"])
def test_nonpositive_input_exit_one(tmp_path, capsys, variant):
    path = tmp_path / "inputs.txt"
    path.write_text("7\n0\n")
    for n in ("0", "-3"):
        assert main(["run", n, "--variant", variant]) == 1
        assert capsys.readouterr().err == "grid input must be a positive integer\n"
    assert main(["batch", "--inputs", str(path), "--variant", variant]) == 1
    assert capsys.readouterr().err == "grid input must be a positive integer\n"


def test_bad_flags_exit_one(capsys):
    assert main(["run", "7"]) == 1  # --variant is required
    assert main(["run", "7", "--variant", "ca9"]) == 1
    assert main(["frobnicate"]) == 1
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "run" in capsys.readouterr().out


def test_verify_range(capsys):
    assert main(["verify", "--from", "2", "--to", "40", "--variant", "all"]) == 0
    out = capsys.readouterr().out
    assert out.strip().splitlines()[-1] == "checked 117 runs: 0 mismatches"
    assert main(["verify", "--from", "5", "--to", "2"]) == 1


def test_verify_cap_reached_exit_code(capsys):
    # every computed row is right; only the row cap ran out before the first 1
    args = ["verify", "--from", "27", "--to", "27", "--variant", "ca3", "--max-rows", "10"]
    assert main(args) == 2
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "cap reached n=27 variant=ca3 rows=10",
        "checked 1 runs: 0 mismatches, 1 reached the row cap",
    ]


def test_verify_divergence_exit_code(monkeypatch, capsys):
    from dataclasses import replace

    from collatz_ca import engine

    real = engine.run_single

    def doctored(n, cfg):
        rec = real(n, cfg)
        return replace(rec, iterates=[rec.iterates[0], 99, *rec.iterates[2:]])

    monkeypatch.setattr(engine, "run_single", doctored)
    assert main(["verify", "--from", "7", "--to", "7", "--variant", "ca3"]) == 3
    assert capsys.readouterr().out.splitlines() == [
        "mismatch n=7 variant=ca3 row=1 grid=99 oracle=11",
        "checked 1 runs: 1 mismatches",
    ]


def test_efficiency_csv(capsys):
    assert main(["efficiency", "--from", "2", "--to", "8", "--variant", "ca1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n,variant,ca_steps,tst,ratio"
    assert "7,ca1,11,16,0.687500" in lines
    assert lines[-1] == "average,ca1,,,0.850255"
    assert main(["efficiency", "--from", "1", "--to", "8"]) == 1


def test_efficiency_all_variants(capsys):
    assert main(["efficiency", "--from", "2", "--to", "4", "--variant", "all"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert sum(line.startswith("average,") for line in lines) == 3


def test_batch_stacked(tmp_path, capsys):
    path = tmp_path / "inputs.txt"
    path.write_text("7\n27\n\n97\n")
    assert main(["batch", "--inputs", str(path), "--variant", "ca3"]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [r["input"] for r in records] == [7, 27, 97]
    assert all(r["reached_one"] for r in records)


def test_batch_shared_matches_stacked(tmp_path, capsys):
    path = tmp_path / "inputs.txt"
    path.write_text("7\n27\n97\n")
    assert main(["batch", "--inputs", str(path), "--variant", "ca3"]) == 0
    stacked = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert main(["batch", "--inputs", str(path), "--variant", "ca3", "--mode", "shared"]) == 0
    shared = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    for a, b in zip(shared, stacked):
        assert a["iterates"] == b["iterates"]


def test_batch_collision_exit_code(tmp_path, capsys):
    path = tmp_path / "inputs.txt"
    path.write_text("7\n27\n")
    code = main(
        ["batch", "--inputs", str(path), "--variant", "ca3", "--mode", "shared",
         "--spacing", "0"]
    )
    assert code == 4
    assert "collide" in capsys.readouterr().err


def test_batch_flag_errors(tmp_path, capsys):
    path = tmp_path / "inputs.txt"
    path.write_text("7\n9\n")
    assert main(["batch", "--inputs", str(path), "--mode", "shared", "--spacing", "1,2,3"]) == 1
    assert main(["batch", "--inputs", str(path), "--spacing", "1;2"]) == 1
    assert main(["batch", "--inputs", str(tmp_path / "missing.txt")]) == 1
    bad = tmp_path / "bad.txt"
    bad.write_text("7\nseven\n")
    assert main(["batch", "--inputs", str(bad)]) == 1
    capsys.readouterr()


def test_batch_empty_file(tmp_path, capsys):
    path = tmp_path / "inputs.txt"
    path.write_text("\n\n")
    assert main(["batch", "--inputs", str(path)]) == 0
    assert capsys.readouterr().out == ""


def test_rules_dump(capsys):
    assert main(["rules", "--variant", "ca3", "--n-max", "256"]) == 0
    out = capsys.readouterr().out
    assert "ca3 1,0,1,1 -> 1" in out
    assert "# ca3: 33 entries; boundary=17, inner=16" in out
    assert "closed-form consistency: OK" in out


def test_rules_ca1_both_layers(tmp_path):
    out = tmp_path / "rules.txt"
    assert main(["rules", "--variant", "ca1", "--n-max", "128", "--out", str(out)]) == 0
    text = out.read_text()
    assert "ca1-bottom" in text and "ca1-top" in text
    assert text.count("consistency: OK") == 2


def test_rules_conflict_exit_code(monkeypatch, capsys):
    # the planted oracle row of test_learner_reports_a_planted_conflict
    from collatz_ca import grid

    oracle_rows = grid.oracle_rows

    def planted(n, variant, *args, **kwargs):
        rows = oracle_rows(n, variant, *args, **kwargs)
        if n == 27:
            rows[5] = grid.to_digits(rows[5].value() ^ 2, 2, rows[5].offset)
        return rows

    monkeypatch.setattr(grid, "oracle_rows", planted)
    assert main(["rules", "--variant", "ca3", "--n-max", "64"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("ca3: neighborhood ") and " maps to both " in err


def test_render_text(capsys):
    assert main(["render", "7", "--variant", "ca3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 7  # the first 1 plus one more row
    assert lines[0].endswith("111")
    assert len(set(map(len, lines))) == 1  # rectangular
    assert set("".join(lines)) <= set(".01")


def test_render_rows_flag(capsys):
    assert main(["render", "27", "--variant", "ca3", "--rows", "3"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 3
    assert main(["render", "27", "--variant", "ca3", "--rows", "0"]) == 1
    capsys.readouterr()


def test_render_pgm(tmp_path):
    out = tmp_path / "grid.pgm"
    assert main(["render", "7", "--variant", "ca3", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "P2"
    assert lines[1].startswith("#")
    width, height = map(int, lines[2].split())
    assert (width, height) == (14, 7)
    assert lines[3] == "255"
    body = [row.split() for row in lines[4:]]
    assert len(body) == height and all(len(r) == width for r in body)
    assert {v for row in body for v in row} <= {"90", "180", "255"}


def test_render_undetermined(capsys):
    assert main(["render", "27", "--variant", "ca3", "--max-rows", "5"]) == 2
    assert "no 1 within" in capsys.readouterr().err
