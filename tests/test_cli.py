import json

import pytest
from conftest import run_checkout, start_checkout

from betti4.cli import build_parser, format_monomial, main, sample_ideal
from betti4.parsing import parse_ideal


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_format_monomial():
    assert format_monomial((0, 0, 0, 0)) == "1"
    assert format_monomial((1, 0, 0, 0)) == "x1"
    assert format_monomial((2, 0, 1, 3)) == "x1^2*x3*x4^3"


def test_betti_table_output(capsys):
    ideal = "x1^2*x2^2, x1^2*x2*x3, x2*x3*x4^2, x3^2*x4^2"
    code, out, err = run(capsys, "betti", ideal)
    assert code == 0 and err == ""
    assert "b0=1  b1=4  b2=3  b3=0  b4=0" in out
    assert "pd=2" in out and "pd2_condition=false" in out
    # --table names the default style, and excludes --json
    assert run(capsys, "betti", "--table", ideal) == (0, out, "")
    with pytest.raises(SystemExit) as exc:
        main(["betti", "--table", "--json", ideal])
    assert exc.value.code == 2
    assert "argument --json: not allowed with argument --table" in capsys.readouterr().err


def test_betti_json_output(capsys):
    code, out, err = run(capsys, "betti", "--json", "--multigraded", "x1, x2, x3, x4")
    assert code == 0
    record = json.loads(out)
    assert record["schema"] == 1
    assert record["generators"] == ["x4", "x3", "x2", "x1"]
    assert record["betti"] == [1, 4, 6, 4, 1]
    assert record["pd"] == 4
    assert record["pd2_condition"] is False
    assert record["multigraded"]["1"] == [1, 0, 0, 0, 0]
    assert record["multigraded"]["x1*x2*x3*x4"] == [0, 0, 0, 0, 1]


def test_betti_reads_stdin_one_ideal_per_line(capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO("x1\n# comment only\nx1*x2, x2^2\n"))
    code, out, err = run(capsys, "betti", "--json")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) == 2
    assert records[0]["betti"] == [1, 1, 0, 0, 0]
    assert records[1]["generators"] == ["x2^2", "x1*x2"]


def test_betti_file_input(capsys, tmp_path):
    path = tmp_path / "ideals.txt"
    path.write_text("x1, x2\nx3^2\n")
    code, out, err = run(capsys, "betti", "--file", str(path))
    assert code == 0
    assert out.count("ideal:") == 2


def test_parse_errors_exit_2_and_keep_going(capsys):
    code, out, err = run(capsys, "betti", "x1*x7", "x2")
    assert code == 2
    assert "x7" in err
    assert "b0=1  b1=1" in out  # the good line still computed


def test_parse_errors_as_json_records(capsys):
    code, out, err = run(capsys, "betti", "--json", "x1^0", "x2")
    assert code == 2
    first, second = (json.loads(line) for line in out.splitlines())
    assert first["schema"] == 1 and first["line"] == 1
    assert "exponent" in first["error"]
    assert "position" in first
    assert second["betti"] == [1, 1, 0, 0, 0]


def test_exponent_cap_flag(capsys):
    code, _, err = run(capsys, "betti", "--max-exp", "8", "x1^9")
    assert code == 2 and "cap" in err
    code, _, _ = run(capsys, "betti", "x1^9")
    assert code == 0


@pytest.mark.parametrize("command", ["betti", "verify"])
def test_a_huge_exponent_cap_admits_huge_exponents(capsys, command):
    # the exponent cap has no ceiling, and nothing is sized by an exponent
    code, out, err = run(capsys, command, "--max-exp", "1000000000", "x1^1000000000, x2")
    assert code == 0 and err == ""
    if command == "betti":
        assert "b0=1  b1=2  b2=1  b3=0  b4=0" in out


def test_generator_cap_flag(capsys):
    gens = ", ".join(f"x1^{i + 1}*x2^{9 - i}" for i in range(9))
    code, _, err = run(capsys, "betti", "--max-gens", "4", gens)
    assert code == 2 and "cap" in err


@pytest.mark.parametrize("command", ["betti", "verify"])
def test_generator_cap_covers_the_unit_ideal(capsys, command):
    # betti and verify refuse the same inputs
    code, out, err = run(capsys, command, "--max-gens", "0", "1")
    assert code == 2 and out == ""
    assert "1 generators exceed the cap of 0" in err
    code, _, _ = run(capsys, command, "--max-gens", "1", "1")
    assert code == 0


@pytest.mark.parametrize("command", ["betti", "verify"])
def test_zero_exponent_cap_admits_only_the_unit(capsys, command):
    code, _, _ = run(capsys, command, "--max-exp", "0", "1")
    assert code == 0
    code, _, err = run(capsys, command, "--max-exp", "0", "x1")
    assert code == 2 and "exponent 1 exceeds the cap of 0" in err


@pytest.mark.parametrize("command", ["betti", "verify"])
@pytest.mark.parametrize("flag", ["--max-gens", "--max-exp"])
def test_negative_caps_are_rejected(capsys, command, flag):
    with pytest.raises(SystemExit) as exit_info:
        main([command, flag, "-1", "x1"])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}: must be at least 0, got -1" in captured.err
    assert "Traceback" not in captured.err


def test_verify_agreement(capsys):
    code, out, err = run(
        capsys, "verify",
        "x1^2*x2^2, x1^2*x2*x3, x2*x3*x4^2, x3^2*x4^2",
        "x1^3, x1^2*x2, x1*x2^2, x2^3, x3^3, x3^2*x4, x3*x4^2, x4^3",
    )
    assert code == 0
    assert out.count("char0=ok char2=ok char3=ok char5=ok") == 2


def test_atlas_json(capsys):
    code, out, _ = run(capsys, "atlas", "--json")
    assert code == 0
    records = json.loads(out)
    assert len(records) == 66
    assert records[63] == {
        "id": 64,
        "generators": ["1110", "1101", "1011", "0111"],
        "y_m": "1111",
        "beta2": 3,
        "beta3": 0,
    }


def test_atlas_table(capsys):
    code, out, _ = run(capsys, "atlas")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 67  # header + 66 rows
    assert lines[0].split() == ["id", "generators", "y_m", "b2", "b3"]


def test_atlas_check(capsys):
    code, out, _ = run(capsys, "atlas", "--check")
    assert code == 0
    assert "agree" in out


def test_atlas_json_and_check_are_rejected_together(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["atlas", "--json", "--check"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "argument --check: not allowed with argument --json" in err


def test_experiment_csv_shape(capsys):
    code, out, _ = run(capsys, "experiment", "--samples", "12", "--seed", "7")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "seed_index,num_gens,beta2,beta3,beta4,pd,beta3_gt_beta2"
    rows = [line for line in lines[1:] if not line.startswith("#")]
    footer = [line for line in lines[1:] if line.startswith("#")]
    assert len(rows) == 12
    assert footer and "samples=12" in footer[0]
    for index, row in enumerate(rows):
        cells = row.split(",")
        assert int(cells[0]) == index
        assert cells[6] in {"true", "false"}
        # a third Betti number above the second forces projective dimension 4
        if cells[6] == "true":
            assert cells[5] == "4"


def test_experiment_deterministic_and_order_independent(capsys):
    _, first, _ = run(capsys, "experiment", "--samples", "20", "--seed", "3")
    _, second, _ = run(capsys, "experiment", "--samples", "20", "--seed", "3")
    assert first == second


def test_experiment_streams_each_row_before_the_next_table(capsys, monkeypatch):
    from betti4.engine import full_table

    seen = []

    def watched(ideal, cap):
        # what the run has written when each table is asked for
        seen.append(capsys.readouterr().out)
        return full_table(ideal, cap=cap)

    monkeypatch.setattr("betti4.cli.full_table", watched)
    code, out, _ = run(capsys, "experiment", "--samples", "3", "--seed", "7")
    assert code == 0 and len(seen) == 3
    assert seen[0] == "seed_index,num_gens,beta2,beta3,beta4,pd,beta3_gt_beta2\n"
    assert seen[1].startswith("0,") and seen[1].count("\n") == 1
    assert seen[2].startswith("1,") and seen[2].count("\n") == 1
    assert out.startswith("2,")


def test_experiment_zero_samples(capsys):
    code, out, _ = run(capsys, "experiment", "--samples", "0")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("seed_index")
    assert all(line.startswith("#") for line in lines[1:])


def test_sample_ideal_model():
    import random
    rng = random.Random(11)
    for _ in range(50):
        ideal = sample_ideal(rng, 6, 3)
        assert 1 <= len(ideal.gens) <= 6
        assert all(any(g) and max(g) <= 3 for g in ideal.gens)


@pytest.mark.parametrize("command", ["betti", "verify"])
@pytest.mark.parametrize("text", ["x1^\u00b2", "x1^" + "9" * 5000, "x\u0661", "x1^\u0663", "x" + "1" * 5000])
def test_bad_digits_exit_2_without_a_traceback(capsys, command, text):
    code, out, err = run(capsys, command, text, "x2")
    assert code == 2
    assert "error (line 1)" in err and "Traceback" not in err
    assert len(err) < 300
    assert "line 2" in out or "b1=1" in out


@pytest.mark.parametrize("command", ["betti", "verify"])
def test_missing_file_exits_2(capsys, tmp_path, command):
    path = tmp_path / "absent.txt"
    code, out, err = run(capsys, command, "--file", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: cannot read") and str(path) in err


@pytest.mark.parametrize("command", ["betti", "verify"])
def test_undecodable_file_exits_2(capsys, tmp_path, command):
    path = tmp_path / "latin1.txt"
    path.write_bytes("x1*x2, x3\n# caf\u00e9\n".encode("latin-1"))
    code, out, err = run(capsys, command, "--file", str(path))
    assert code == 2 and out == ""
    assert "cannot read" in err and "utf-8" in err


def test_undecodable_stdin_exits_2(capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"x1, x2\n\xff\n"), encoding="utf-8"))
    code, out, err = run(capsys, "betti")
    assert code == 2 and out == ""
    assert "cannot read standard input" in err


@pytest.mark.parametrize("flag, value", [
    ("--max-gens", "0"), ("--max-exp", "-1"), ("--max-exp", "0"), ("--samples", "-3"),
])
def test_experiment_rejects_out_of_range_arguments(capsys, flag, value):
    with pytest.raises(SystemExit) as exit_info:
        main(["experiment", flag, value])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}: must be at least" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [
    ["betti", "--max-exp"], ["betti", "--max-gens"], ["verify", "--max-exp"], ["verify", "--max-gens"],
    ["experiment", "--max-exp"], ["experiment", "--max-gens"], ["experiment", "--samples"],
    ["experiment", "--seed"],
])
@pytest.mark.parametrize("value", ["\u0663", "1_0"])
def test_numeric_flags_take_ascii_digits_only(capsys, argv, value):
    # int() would read the Arabic-Indic three as 3 and 1_0 as 10
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, value, *(["x1"] if argv[0] != "experiment" else [])])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {argv[1]}: invalid int value: '{value}'" in captured.err
    assert "Traceback" not in captured.err


def test_verify_reports_every_mismatching_multidegree(capsys, monkeypatch):
    from betti4.engine import full_table
    from betti4.tables import BettiTable

    def corrupted(ideal, want_multigraded=False, cap=20):
        # one extra beta3 on every row that carries a beta2
        table = full_table(ideal, want_multigraded, cap)
        rows = {m: (row[:3] + (row[3] + 1,) + row[4:] if row[2] else row)
                for m, row in table.multigraded.items()}
        extra = sum(1 for row in table.multigraded.values() if row[2])
        betti = table.betti[:3] + (table.betti[3] + extra,) + table.betti[4:]
        return BettiTable(betti, rows)

    monkeypatch.setattr("betti4.cli.full_table", corrupted)
    code, out, err = run(capsys, "verify", "x1^2*x2^2, x1^2*x2*x3, x2*x3*x4^2, x3^2*x4^2", "x1")
    assert code == 1 and err == ""
    lines = out.splitlines()
    assert lines[0] == ("line 1: char0=FAIL char2=FAIL char3=FAIL char5=FAIL  betti=[1, 4, 3, 3, 0]"
                        "  [x3^2*x4^2, x2*x3*x4^2, x1^2*x2*x3, x1^2*x2^2]")
    assert lines[-1] == "line 2: char0=ok char2=ok char3=ok char5=ok  betti=[1, 1, 0, 0, 0]  [x1]"
    block = []
    for degree in ("x2*x3^2*x4^2", "x1^2*x2*x3*x4^2", "x1^2*x2^2*x3"):
        block += [f"    multidegree: {degree}",
                  "    expected (oracle): [0, 0, 1, 0, 0]",
                  "    actual (formula):  [0, 0, 1, 1, 0]"]
    expected = []
    for characteristic in (0, 2, 3, 5):
        expected += [f"  mismatch at characteristic {characteristic}", *block]
    assert lines[1:-1] == expected


def test_verify_fails_on_rows_that_differ_under_equal_totals(capsys, monkeypatch):
    from betti4.engine import full_table
    from betti4.tables import BettiTable

    def moved(ideal, want_multigraded=False, cap=20):
        # one beta2 moved from its lattice point to (3, 3, 3, 3), off the
        # lattice, whose exponents are at most 2: every column sum stays
        table = full_table(ideal, want_multigraded, cap)
        rows = dict(table.multigraded)
        rows[(3, 3, 3, 3)] = rows.pop(min(m for m, row in rows.items() if row[2]))
        return BettiTable(table.betti, rows)

    monkeypatch.setattr("betti4.cli.full_table", moved)
    code, out, err = run(capsys, "verify", "x1^2*x2^2, x1^2*x2*x3, x2*x3*x4^2, x3^2*x4^2")
    assert code == 1 and err == ""
    lines = out.splitlines()
    assert lines[0] == ("line 1: char0=FAIL char2=FAIL char3=FAIL char5=FAIL  betti=[1, 4, 3, 0, 0]"
                        "  [x3^2*x4^2, x2*x3*x4^2, x1^2*x2*x3, x1^2*x2^2]")
    block = ["    multidegree: x2*x3^2*x4^2",
             "    expected (oracle): [0, 0, 1, 0, 0]",
             "    actual (formula):  [0, 0, 0, 0, 0]",
             "    multidegree: x1^3*x2^3*x3^3*x4^3",
             "    expected (oracle): [0, 0, 0, 0, 0]",
             "    actual (formula):  [0, 0, 1, 0, 0]"]
    expected = []
    for characteristic in (0, 2, 3, 5):
        expected += [f"  mismatch at characteristic {characteristic}", *block]
    assert lines[1:] == expected


@pytest.mark.parametrize("command", ["betti", "verify"])
@pytest.mark.parametrize("order", ["ideals first", "file first"])
def test_file_and_positional_ideals_are_rejected_together(capsys, tmp_path, command, order):
    # the file does not exist: the combination is refused before any input is read
    path = str(tmp_path / "absent.txt")
    argv = [command, "x1", "--file", path] if order == "ideals first" else [command, "--file", path, "x1"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "not allowed with argument" in err and "--file" in err and "ideals" in err


WORKED = "x1^2*x2^2, x1^2*x2*x3, x2*x3*x4^2, x3^2*x4^2"


def _call(capsys, argv):
    """(exit code, stdout, stderr) of main(argv), argparse exits included."""
    try:
        return run(capsys, *argv)
    except SystemExit as exc:
        captured = capsys.readouterr()
        return exc.code, captured.out, captured.err


@pytest.mark.parametrize("calls", [
    [(["betti", "--multigraded", WORKED], 0), (["betti", WORKED], 0)],
    [(["verify", WORKED], 0), (["betti", "--json", WORKED], 0)],
    [(["betti", "x1*x2, x3"], 0), (["experiment", "--max-gens", "0"], 2), (["betti", "x1*x2, x3"], 0)],
])
def test_cached_parser_keeps_no_state_between_calls(capsys, calls):
    # each call must print what it prints as the first call of a process
    first = []
    for argv, _ in calls:
        build_parser.cache_clear()
        first.append(_call(capsys, argv))
    build_parser.cache_clear()
    in_sequence = [_call(capsys, argv) for argv, _ in calls]
    assert build_parser() is build_parser()
    assert [code for code, _, _ in first] == [code for _, code in calls]
    assert in_sequence == first


@pytest.mark.parametrize("module", ["betti4", "betti4.cli"])
def test_runs_as_a_module(module):
    done = run_checkout("-m", module, "betti", "x1")
    assert done.returncode == 0 and done.stderr == ""
    assert done.stdout == "ideal: x1\n  b0=1  b1=1  b2=0  b3=0  b4=0  pd=1  pd2_condition=false\n"
    done = run_checkout("-m", module, "betti", "--no-such-flag", "x1")
    assert done.returncode == 2 and done.stdout == ""
    assert "unrecognized arguments: --no-such-flag" in done.stderr


def test_verify_builds_each_koszul_complex_once_across_the_fields(capsys, monkeypatch):
    from betti4 import homology, multidegrees
    from betti4.multidegrees import enumerate_multidegrees

    built = []
    read = []
    koszul_complex = homology.koszul_complex
    homology_profile = homology._homology_profile

    def counted(ideal, b):
        built.append(b)
        return koszul_complex(ideal, b)

    def profile_read(bits, char):
        read.append(bits)
        return homology_profile(bits, char)

    monkeypatch.setattr(homology, "koszul_complex", counted)
    monkeypatch.setattr(homology, "_homology_profile", profile_read)
    # start from empty memos, so a test that ran this ideal before does not count
    multidegrees._walk.cache_clear()
    monkeypatch.setattr(homology, "_last", None)
    code, out, _ = run(capsys, "verify", WORKED)
    assert code == 0 and "char0=ok char2=ok char3=ok char5=ok" in out
    ideal = parse_ideal(WORKED)
    lattice = enumerate_multidegrees(ideal, 20)
    assert built == list(lattice)
    # every field reads the profile of each distinct face set once, and
    # the points read theirs from those, not from the profile cache
    distinct = {koszul_complex(ideal, b).face_bits for b in lattice}
    assert len(read) == 4 * len(distinct)


def test_a_field_whose_profile_differs_on_one_face_set_gets_rows_of_its_own(capsys, monkeypatch):
    from betti4 import homology
    from betti4.multidegrees import enumerate_multidegrees

    ideal = parse_ideal(WORKED)
    skewed_bits = homology.koszul_complex(ideal, enumerate_multidegrees(ideal, 20)[-1]).face_bits
    homology_profile = homology._homology_profile

    def skewed(bits, char):
        # one more cycle in dimension 0, over F2 and at one face set only
        h = homology_profile(bits, char)
        return (h[0], h[1] + 1, *h[2:]) if bits == skewed_bits and char == 2 else h

    monkeypatch.setattr(homology, "_homology_profile", skewed)
    rational, binary = (homology.oracle_betti(ideal, homology.FieldSpec(c), want_multigraded=True)
                        for c in (0, 2))
    assert binary.multigraded != rational.multigraded
    code, out, _ = run(capsys, "verify", WORKED)
    assert code == 1
    assert out.startswith("line 1: char0=ok char2=FAIL char3=ok char5=ok  betti=[1, 4, 3, 0, 0]")
    assert "  mismatch at characteristic 2\n" in out
    assert "mismatch at characteristic 0" not in out


@pytest.mark.parametrize("argv", [["betti", "--file", "{path}"], ["experiment", "--samples", "10000"]])
def test_a_reader_that_stops_early_gets_no_traceback(tmp_path, argv):
    # far more output than a pipe buffers, so the writer is still
    # printing when the reader closes its end
    path = tmp_path / "big.txt"
    path.write_text("x1*x2, x3, x4^2\n" * 5000, encoding="utf-8")
    with (tmp_path / "stderr.txt").open("w+", encoding="utf-8") as err_file, \
            start_checkout("-m", "betti4", *(arg.format(path=path) for arg in argv),
                           stderr=err_file) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        code = proc.wait(timeout=60)
        err_file.seek(0)
        err = err_file.read()
    assert first.startswith(("ideal: ", "seed_index,"))
    assert code == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err
