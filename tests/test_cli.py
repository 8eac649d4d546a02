"""End-to-end CLI behavior: gen, run, explain, exit codes, determinism."""

from __future__ import annotations

import os
import re
import signal

import pytest

from planrace import engine, workers
from planrace.cli import main


@pytest.fixture(scope="module")
def data_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "data.csv"
    rc = main(["gen", "--n", "2000", "--dist", "uniform-distinct", "--seed", "7",
               "--out", str(path)])
    assert rc == 0
    return path


def run_cli(args):
    return main(args)


def test_gen_writes_header_plus_rows(data_file):
    lines = data_file.read_text().splitlines()
    assert len(lines) == 2001
    assert lines[0] == "record_id,A,B"


def test_gen_is_deterministic(tmp_path, data_file):
    other = tmp_path / "again.csv"
    assert main(["gen", "--n", "2000", "--dist", "uniform-distinct", "--seed", "7",
                 "--out", str(other)]) == 0
    assert other.read_bytes() == data_file.read_bytes()


def test_gen_zero_documents_fails(tmp_path, capsys):
    rc = main(["gen", "--n", "0", "--out", str(tmp_path / "x.csv")])
    assert rc != 0
    assert "error" in capsys.readouterr().err


def test_run_writes_artifacts_and_summary_line(tmp_path, data_file, capsys):
    out = tmp_path / "report"
    rc = main(["run", "--scenario", "both-indexed", "--variant", "vanilla",
               "--data", str(data_file), "--dim", "6", "--seed", "3",
               "--out", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    last = stdout.strip().split("\n")[-1]
    m = re.fullmatch(r"accuracy=(\d+\.\d+) impact=(-?\d+\.\d+)", last)
    assert m, f"unparseable summary line: {last!r}"
    assert 0.0 <= float(m.group(1)) <= 1.0
    for name in ("chosen.ppm", "optimal.ppm", "impact.ppm", "results.csv"):
        assert (out / name).exists()
    assert list(out.glob("summary_accuracy=*.json"))
    # vanilla never picks a collection scan, so no yellow in the chosen diagram
    pixels = (out / "chosen.ppm").read_bytes().split(b"255\n", 1)[1]
    yellow = bytes((241, 196, 15))
    assert all(pixels[k:k + 3] != yellow for k in range(0, len(pixels), 3))


def test_run_byte_identical_reruns(tmp_path, data_file):
    outs = []
    for sub in ("r1", "r2"):
        out = tmp_path / sub
        rc = main(["run", "--scenario", "covering", "--variant", "mod",
                   "--data", str(data_file), "--dim", "5", "--seed", "9",
                   "--out", str(out)])
        assert rc == 0
        outs.append(out)
    for name in ("chosen.ppm", "optimal.ppm", "impact.ppm", "results.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    s1 = list(outs[0].glob("summary_*.json"))[0]
    s2 = list(outs[1].glob("summary_*.json"))[0]
    assert s1.name == s2.name
    assert s1.read_bytes() == s2.read_bytes()


def test_run_cache_primed_monochrome_diagram(tmp_path, data_file):
    out = tmp_path / "primed"
    rc = main(["run", "--scenario", "single-index", "--variant", "vanilla",
               "--data", str(data_file), "--dim", "5", "--seed", "2",
               "--cache-primed", "COLLSCAN", "--out", str(out)])
    assert rc == 0
    body = (out / "chosen.ppm").read_bytes()
    pixels = body.split(b"255\n", 1)[1]
    yellow = bytes((241, 196, 15))
    assert pixels == yellow * 25


def test_run_accepts_knob_and_cost_overrides(tmp_path, data_file, capsys):
    out = tmp_path / "knobs"
    rc = main(["run", "--scenario", "both-indexed", "--variant", "with-collscan",
               "--data", str(data_file), "--dim", "4", "--seed", "1",
               "--works", "500", "--max-results", "11", "--coll-fraction", "0.1",
               "--cost", "1,2,3", "--reps", "5",
               "--out", str(out), "--svg"])
    assert rc == 0
    assert (out / "chosen.svg").exists()
    last = capsys.readouterr().out.strip().split("\n")[-1]
    assert last.startswith("accuracy=")


def test_run_rejects_bad_variant(tmp_path, data_file):
    with pytest.raises(SystemExit) as err:
        main(["run", "--scenario", "both-indexed", "--variant", "costbased",
              "--data", str(data_file), "--out", str(tmp_path / "x")])
    assert err.value.code == 2


def test_run_rejects_bad_primed_plan(tmp_path, data_file):
    with pytest.raises(SystemExit) as err:
        main(["run", "--scenario", "both-indexed", "--variant", "vanilla",
              "--data", str(data_file), "--out", str(tmp_path / "x"),
              "--cache-primed", "IXSCAN_Q"])
    assert err.value.code == 2


def test_run_rejects_unexecutable_primed_plan(tmp_path, data_file):
    with pytest.raises(SystemExit) as err:
        main(["run", "--scenario", "both-indexed", "--variant", "vanilla",
              "--data", str(data_file), "--out", str(tmp_path / "x"),
              "--cache-primed", "IXSCAN_AB"])
    assert err.value.code == 2


@pytest.mark.parametrize("plan,message", [
    ("BOGUS", "unknown plan 'BOGUS'"),
    ("IXSCAN_AB", "plan IXSCAN_AB is not executable in scenario 'both-indexed'"),
])
def test_run_checks_primed_plan_before_reading_the_dataset(tmp_path, capsys, plan, message):
    missing = tmp_path / "missing.csv"
    with pytest.raises(SystemExit) as err:
        main(["run", "--scenario", "both-indexed", "--variant", "vanilla",
              "--data", str(missing), "--out", str(tmp_path / "x"), "--cache-primed", plan])
    assert err.value.code == 2
    err_text = capsys.readouterr().err
    assert message in err_text and "cannot read dataset" not in err_text


@pytest.mark.parametrize("hint", ["BOGUS", "ixscan_a", "IXSCAN_BA"])
def test_explain_parses_hint_before_reading_the_dataset(tmp_path, capsys, hint):
    missing = tmp_path / "missing.csv"
    with pytest.raises(SystemExit) as err:
        main(["explain", "--scenario", "both-indexed", "--variant", "vanilla",
              "--data", str(missing), "--hint", hint,
              "--lowA", "0", "--highA", "10", "--lowB", "0", "--highB", "10"])
    assert err.value.code == 2
    err_text = capsys.readouterr().err
    assert f"unknown plan {hint!r}" in err_text and "valid forms: COLLSCAN" in err_text
    assert "cannot read dataset" not in err_text


@pytest.mark.parametrize("scenario,hint", [("both-indexed", "IXSCAN_AB"),
                                           ("single-index", "IXSCAN_A")])
def test_explain_rejects_an_unproducible_hint_before_reading_the_dataset(tmp_path, capsys,
                                                                         scenario, hint):
    missing = tmp_path / "missing.csv"
    with pytest.raises(SystemExit) as err:
        main(["explain", "--scenario", scenario, "--variant", "vanilla",
              "--data", str(missing), "--hint", hint,
              "--lowA", "0", "--highA", "10", "--lowB", "0", "--highB", "10"])
    assert err.value.code == 2
    err_text = capsys.readouterr().err
    assert f"plan {hint} is not executable in scenario {scenario!r}" in err_text
    assert "cannot read dataset" not in err_text


def test_run_rejects_bad_cost_string(tmp_path, data_file):
    with pytest.raises(SystemExit) as err:
        main(["run", "--scenario", "both-indexed", "--variant", "vanilla",
              "--data", str(data_file), "--out", str(tmp_path / "x"),
              "--cost", "fast"])
    assert err.value.code == 2


def test_explain_reports_candidates_and_winner(data_file, capsys):
    rc = main(["explain", "--scenario", "both-indexed", "--variant", "vanilla",
               "--data", str(data_file),
               "--lowA", "0", "--highA", "200", "--lowB", "0", "--highB", "1000"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "candidate IXSCAN_A:" in out
    assert "candidate IXSCAN_B:" in out
    assert out.strip().endswith("winner: IXSCAN_A")


def test_explain_mod_halves_printed_productivity(data_file, capsys):
    args = ["explain", "--scenario", "both-indexed", "--data", str(data_file),
            "--lowA", "0", "--highA", "2000", "--lowB", "0", "--highB", "2000"]
    main(args + ["--variant", "vanilla"])
    vanilla_out = capsys.readouterr().out
    main(args + ["--variant", "mod"])
    mod_out = capsys.readouterr().out

    def productivity(text, plan):
        block = text.split(f"candidate {plan}:")[1]
        return float(re.search(r"productivity=([\d.]+)", block).group(1))

    for plan in ("IXSCAN_A", "IXSCAN_B"):
        assert productivity(mod_out, plan) == pytest.approx(
            productivity(vanilla_out, plan) / 2, abs=1e-6)


def test_explain_hint_yields_single_candidate(data_file, capsys):
    rc = main(["explain", "--scenario", "both-indexed", "--variant", "vanilla",
               "--data", str(data_file), "--hint", "COLLSCAN",
               "--lowA", "0", "--highA", "200", "--lowB", "0", "--highB", "1000"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("candidate ") == 1
    assert "candidate COLLSCAN:" in out


RUN_ARGS = ["run", "--scenario", "covering", "--variant", "mod"]
EXPLAIN_ARGS = ["explain", "--scenario", "covering", "--variant", "mod",
                "--lowA", "0", "--highA", "200", "--lowB", "0", "--highB", "1000"]


def error_lines(capsys):
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return [line for line in err.splitlines() if "error:" in line]


@pytest.mark.parametrize("command", ["run", "explain"])
@pytest.mark.parametrize("value", [2**63, -2**63 - 1])
def test_value_outside_int64_is_one_error_line(tmp_path, capsys, command, value):
    data = tmp_path / "data.csv"
    data.write_text(f"record_id,A,B\n0,1,2\n1,3,{value}\n")
    args = RUN_ARGS + ["--out", str(tmp_path / "x")] if command == "run" else EXPLAIN_ARGS
    assert main(args + ["--data", str(data)]) == 1
    assert error_lines(capsys) == [
        f"error: {data}:3: value {value} outside the int64 range "
        f"[-9223372036854775808, 9223372036854775807]"]
    assert not (tmp_path / "x").exists()


def test_explain_takes_the_int64_extremes(tmp_path, capsys):
    data = tmp_path / "data.csv"
    data.write_text(f"record_id,A,B\n0,{2**63 - 1},{-2**63}\n1,{-2**63},{2**63 - 1}\n")
    assert main(EXPLAIN_ARGS + ["--data", str(data)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "winner: IXSCAN_AB"


@pytest.mark.parametrize("flag,value", [
    ("--dim", "0"),  # was ZeroDivisionError
    ("--dim", "-3"),  # was IndexError
    ("--dim", "1001"),  # D * D cells: 5000 ran for seconds on a one-document file
    ("--reps", "0"),  # was ValueError: need at least one sample
    ("--reps", "1001"),  # 10**8 built a list of 10**8 references per plan and cell
    ("--works", "-5"),  # was ValueError: race knobs must all be positive
    ("--max-results", "0"),
    ("--coll-fraction", "-1"),
    ("--coll-fraction", "inf"),  # was OverflowError in the race
])
def test_run_rejects_nonpositive_argument(tmp_path, data_file, capsys, flag, value):
    with pytest.raises(SystemExit) as err:
        main(RUN_ARGS + ["--data", str(data_file), "--out", str(tmp_path / "x"),
                         flag, value])
    assert err.value.code == 2
    (line,) = error_lines(capsys)
    bounded = flag in ("--dim", "--reps")
    wanted = "a positive number at most 1000" if bounded else "a positive number"
    assert f"argument {flag}: expected {wanted}, got {value!r}" in line
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command", ["run", "explain"])
def test_missing_data_file_is_one_error_line(tmp_path, capsys, command):
    missing = tmp_path / "missing.csv"
    args = RUN_ARGS + ["--out", str(tmp_path / "x")] if command == "run" else EXPLAIN_ARGS
    assert main(args + ["--data", str(missing)]) == 1
    assert error_lines(capsys) == [
        f"error: cannot read dataset {missing}: No such file or directory"]


@pytest.mark.parametrize("command", ["run", "explain"])
def test_non_utf8_data_file_is_one_error_line(tmp_path, capsys, command):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"record_id,A,B\n0,1,\xff\n")
    args = RUN_ARGS + ["--out", str(tmp_path / "x")] if command == "run" else EXPLAIN_ARGS
    assert main(args + ["--data", str(bad)]) == 1
    assert error_lines(capsys) == [
        f"error: cannot read dataset {bad}: not UTF-8 text (invalid start byte)"]
    assert not (tmp_path / "x").exists()


def test_explain_rejects_inverted_range(data_file, capsys):
    with pytest.raises(SystemExit) as err:
        main(["explain", "--scenario", "covering", "--variant", "mod",
              "--data", str(data_file),
              "--lowA", "10", "--highA", "5", "--lowB", "0", "--highB", "1000"])
    assert err.value.code == 2
    (line,) = error_lines(capsys)
    assert line.endswith("error: --lowA 10 is above --highA 5")


@pytest.mark.parametrize("cost", ["nan,1,4", "inf,1,4", "1,1,inf", "1,-inf,4"])
@pytest.mark.parametrize("command", ["run", "explain"])
def test_non_finite_cost_is_one_error_line(tmp_path, data_file, capsys, command, cost):
    args = RUN_ARGS + ["--out", str(tmp_path / "x")] if command == "run" else EXPLAIN_ARGS
    with pytest.raises(SystemExit) as err:
        main(args + ["--data", str(data_file), "--cost", cost])
    assert err.value.code == 2
    (line,) = error_lines(capsys)
    assert line.endswith(f"--cost expects three finite positive numbers like 1,1,4 "
                         f"(got {cost!r})")
    assert not (tmp_path / "x").exists()


def test_gen_unwritable_output_is_one_error_line(tmp_path, capsys):
    parent = tmp_path / "file"
    parent.write_text("not a directory\n")
    out = parent / "z.csv"
    assert main(["gen", "--n", "5", "--out", str(out)]) == 1
    assert error_lines(capsys) == [f"error: cannot write {out}: Not a directory"]


def test_run_unwritable_output_is_one_error_line(tmp_path, data_file, capsys):
    parent = tmp_path / "file"
    parent.write_text("not a directory\n")
    out = parent / "report"
    assert main(RUN_ARGS + ["--data", str(data_file), "--dim", "3",
                            "--out", str(out)]) == 1
    assert error_lines(capsys) == [f"error: cannot write {out}: Not a directory"]


def test_explain_cost_changes_only_the_printed_times(data_file, capsys):
    args = ["explain", "--scenario", "covering", "--variant", "mod", "--data", str(data_file),
            "--lowA", "0", "--highA", "300", "--lowB", "100", "--highB", "1500"]
    assert main(args) == 0
    default_out = capsys.readouterr().out
    assert main(args + ["--cost", "9,1,1"]) == 0
    costed_out = capsys.readouterr().out
    times = re.compile(r" time=(\S+)")
    # time = scan length * step time: COLLSCAN 2000 * c_seq, IXSCAN_A 300 *
    # (c_idx + c_fetch), IXSCAN_B 1400 * (c_idx + c_fetch), IXSCAN_AB 300 * c_idx
    assert dict(re.findall(r"candidate (\S+):.* time=(\S+)", default_out)) == {
        "IXSCAN_A": "1500.0", "IXSCAN_B": "7000.0", "IXSCAN_AB": "300.0", "COLLSCAN": "2000.0"}
    assert dict(re.findall(r"candidate (\S+):.* time=(\S+)", costed_out)) == {
        "IXSCAN_A": "600.0", "IXSCAN_B": "2800.0", "IXSCAN_AB": "300.0", "COLLSCAN": "18000.0"}
    assert times.sub("", costed_out) == times.sub("", default_out)


@pytest.fixture(scope="module")
def zipfian_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("zipf") / "zipf.csv"
    assert main(["gen", "--n", "5000", "--dist", "zipfian", "--seed", "7",
                 "--out", str(path)]) == 0
    return path


def test_run_primed_on_skewed_data_reports_unbounded_cells(tmp_path, zipfian_file, capsys):
    # a cell whose A range matches nothing: IXSCAN_A takes no time, the primed
    # IXSCAN_B some, so its slowdown is unbounded and its ratio is empty (the
    # sweep draws about 3.3M queries here, so this test takes seconds)
    out = tmp_path / "out"
    rc = main(["run", "--scenario", "both-indexed", "--variant", "vanilla", "--data",
               str(zipfian_file), "--dim", "10", "--seed", "7", "--cache-primed", "IXSCAN_B",
               "--out", str(out)])
    assert rc == 0
    rows = (out / "results.csv").read_text().splitlines()
    header = rows[0].split(",")
    cells = [dict(zip(header, row.split(","))) for row in rows[1:]]
    assert len(cells) == 100
    unbounded = [c for c in cells if c["ratio"] == ""]
    assert unbounded
    for c in unbounded:
        assert (c["chosen"], c["optimal"], c["t_IXSCAN_A"]) == ("IXSCAN_B", "IXSCAN_A", "0.0")
        assert float(c["t_IXSCAN_B"]) > 0
    ratios = [float(c["ratio"]) for c in cells if c["ratio"]]
    impact = sum((r - 1) * 100 for r in ratios) / len(ratios)
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert last == f"accuracy={sum(c['chosen'] == c['optimal'] for c in cells) / 100:.4f} " \
                   f"impact={impact:.4f}"


@pytest.mark.parametrize("value", ["10000001", "10000000000000"])
def test_gen_rejects_too_many_documents(tmp_path, capsys, value):
    # 10**13 documents ended in a MemoryError traceback
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as err:
        main(["gen", "--n", value, "--out", str(out)])
    assert err.value.code == 2
    (line,) = error_lines(capsys)
    assert line.endswith(f"argument --n: expected an integer at most 10000000, got {value!r}")
    assert not out.exists()


def test_huge_coll_fraction_is_an_unbounded_budget(tmp_path, data_file, capsys):
    # 1e308 * N overflows to inf, which the race rounded: OverflowError
    reports = {}
    for fraction in ("2", "1e308"):
        out = tmp_path / fraction
        assert main(RUN_ARGS + ["--data", str(data_file), "--dim", "5", "--seed", "3",
                                "--coll-fraction", fraction, "--out", str(out)]) == 0
        reports[fraction] = {name: (out / name).read_bytes() for name in
                             ("results.csv", "chosen.ppm", "optimal.ppm", "impact.ppm")}
        assert main(EXPLAIN_ARGS + ["--data", str(data_file),
                                    "--coll-fraction", fraction]) == 0
        reports[fraction]["explain"] = capsys.readouterr().out.splitlines()[-5:]
    assert reports["1e308"] == reports["2"]


def no_room():
    raise MemoryError("no room")


def killed():
    os.kill(os.getpid(), signal.SIGKILL)


SORTS = "the catalog's sort worker"
ORDERS = "the race layout's order worker"


@pytest.mark.parametrize("worker", [SORTS, ORDERS])
@pytest.mark.parametrize("stop,message", [
    (no_room, "failed: MemoryError: no room"),
    (killed, "stopped before its result (killed by signal 9)"),
])
def test_failed_sort_worker_is_one_error_line(tmp_path, data_file, capsys, monkeypatch,
                                              worker, stop, message):
    sorted_bytes = engine._sorted_bytes

    def failing(sort, field_name):
        # only a forked worker runs this, so stop() never ends this process
        if (sort.__name__ == "order") == (worker == ORDERS):
            stop()
        return sorted_bytes(sort, field_name)

    pids = []
    fork = os.fork

    def recorded():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(engine, "_sorted_bytes", failing)
    monkeypatch.setattr(engine, "SORT_WORKER_MIN", 0)
    monkeypatch.setattr(workers, "can_overlap", lambda: True)
    monkeypatch.setattr(os, "fork", recorded)
    out = tmp_path / "x"
    assert main(RUN_ARGS + ["--data", str(data_file), "--dim", "3", "--out", str(out)]) == 1
    assert error_lines(capsys) == [f"error: {worker} {message}"]
    assert not out.exists()
    # the catalog's worker, then for a failed order the layout's; each reaped
    assert len(pids) == 1 + (worker == ORDERS)
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)
