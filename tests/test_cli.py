"""Command-line interface: dispatch, validation, exit codes, artifacts."""

import hashlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import placedet
from placedet import cli, detection, majorization, montecarlo
from placedet.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


def test_pe_subcommand(capsys):
    code, payload, _ = run_json(
        capsys, "pe", "--m", "2", "--n", "2", "--pd", "0.6", "--pf", "0.2",
        "--placement", "2",
    )
    assert code == 0
    assert payload["schema_version"] == "1"
    assert payload["placement"] == "2"
    assert abs(payload["pe"] - 0.26) < 1e-12


def test_pe_accepts_trailing_zeros_and_omitted_m(capsys):
    code, payload, _ = run_json(
        capsys, "pe", "--n", "4", "--pd", "0.9", "--pf", "0.1",
        "--placement", "1-2-1-0",
    )
    assert code == 0
    assert payload["placement"] == "2-1-1"


def test_optimal_subcommand(capsys):
    code, payload, _ = run_json(
        capsys, "optimal", "--m", "4", "--n", "4", "--pd", "0.9", "--pf", "0.1"
    )
    assert code == 0
    assert payload["best"] == ["2-1-1"]
    assert payload["strict"] is True


def test_optimal_full_tie_serializes_infinite_margin(capsys):
    code, payload, _ = run_json(
        capsys, "optimal", "--m", "3", "--n", "3", "--pd", "0.4", "--pf", "0.4"
    )
    assert code == 0
    assert payload["margin"] == "inf"
    assert payload["strict"] is False


def test_partitions_listing(capsys):
    code, out, _ = run(capsys, "partitions", "--m", "4")
    assert code == 0
    assert out.splitlines() == ["4", "3-1", "2-2", "2-1-1", "1-1-1-1"]


def test_package_runs_as_module():
    src = str(Path(placedet.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run(
        [sys.executable, "-m", "placedet", "partitions", "--m", "3"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["3", "2-1", "1-1-1"]


def test_closed_stdout_mid_stream_exits_two_with_one_line():
    # the map streams to stdout block by block; a reader that goes away after
    # the header turns the next write into one error line, no traceback
    src = str(Path(placedet.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    with subprocess.Popen(
        [sys.executable, "-m", "placedet", "sweep", "--m", "6", "--n", "6", "--step", "0.002"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    ) as child:
        assert child.stdout.readline() == b"p_f,p_d,best,tie_count,pe_min,margin\n"
        child.stdout.close()
        err = child.stderr.read()
        assert child.wait(timeout=120) == 2
    assert err == b"error: BrokenPipeError: [Errno 32] Broken pipe\n"


def test_majorize_matrix(capsys):
    code, out, _ = run(capsys, "majorize", "--m", "4")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "placement,4,3-1,2-2,2-1-1,1-1-1-1"
    assert lines[1] == "4,E,A,A,A,A"
    assert lines[-1] == "1-1-1-1,B,B,B,B,E"


@pytest.mark.parametrize("m", range(1, 11))
def test_majorize_matrix_decides_each_pair_once(monkeypatch, m):
    # the matrix equals the one built by comparing every ordered pair, and
    # the CLI reads one verdict matrix: it calls no compare
    parts = placedet.enumerate_partitions(m)
    all_pairs = ["placement," + ",".join("-".join(map(str, p)) for p in parts)]
    for p in parts:
        row = [cli._VERDICT_CODES[placedet.compare(p, q)] for q in parts]
        all_pairs.append("-".join(map(str, p)) + "," + ",".join(row))

    def no_compare(p, q):
        raise AssertionError("compare called")

    monkeypatch.setattr(majorization, "compare", no_compare)
    assert not hasattr(cli, "compare")
    assert cli._majorize_csv(m) == "\n".join(all_pairs) + "\n"


def test_sweep_writes_csv_atomically(tmp_path, capsys):
    out = tmp_path / "map.csv"
    code, stdout, _ = run(
        capsys, "sweep", "--m", "3", "--n", "3", "--step", "0.05",
        "--out", str(out),
    )
    assert code == 0 and stdout == ""
    text = out.read_text()
    assert text.startswith("p_f,p_d,best,tie_count,pe_min,margin\n")
    code2, _, _ = run(
        capsys, "sweep", "--m", "3", "--n", "3", "--step", "0.05",
        "--out", str(tmp_path / "map2.csv"),
    )
    assert code2 == 0
    assert (tmp_path / "map2.csv").read_text() == text
    assert not list(tmp_path.glob("*.tmp"))


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o002, 0o664)], ids=["022", "002"])
def test_out_file_gets_the_mode_of_a_plain_create(tmp_path, capsys, umask, mode):
    out = tmp_path / "map.csv"
    previous = os.umask(umask)
    try:
        code, _, _ = run(capsys, "sweep", "--m", "2", "--n", "2", "--step", "0.1", "--out", str(out))
    finally:
        os.umask(previous)
    assert code == 0
    assert out.stat().st_mode & 0o777 == mode


def test_out_write_failure_is_one_line_naming_the_path(tmp_path, capsys):
    # a missing directory fails before the temp file exists, a directory as
    # the target after it is written beside it; neither leaves a file behind
    taken = tmp_path / "taken"
    taken.mkdir()
    for out, reason in (
        (tmp_path / "missing" / "map.csv", "No such file or directory"),
        (taken, "Is a directory"),
    ):
        code, stdout, err = run(capsys, "partitions", "--m", "3", "--out", str(out))
        assert (code, stdout) == (2, "")
        assert err == f"error: cannot write {out}: {reason}\n"
        assert list(tmp_path.iterdir()) == [taken] and not list(taken.iterdir())


def test_sweep_json_format(capsys):
    code, payload, _ = run_json(
        capsys, "sweep", "--m", "2", "--n", "2", "--step", "0.1",
        "--format", "json",
    )
    assert code == 0
    assert payload["m"] == 2
    assert all({"p_f", "p_d", "best", "pe_min"} <= set(c) for c in payload["cells"])


def test_sweep_budget_refusal(capsys):
    code, out, err = run(capsys, "sweep", "--m", "16", "--n", "17", "--step", "0.005")
    assert code == 2
    assert "refused" in err
    code, _, _ = run(capsys, "sweep", "--m", "9", "--n", "9", "--step", "0.05")
    assert code == 0
    code, _, _ = run(capsys, "sweep", "--m", "3", "--n", "3", "--step", "0.0001")
    assert code == 2


@pytest.mark.parametrize(
    "step, prefix",
    [("0.0001", "refused: "), ("0.5", "error: "), ("nan", "error: "), ("0", "error: "),
     ("-0.05", "error: "), ("-inf", "error: ")],
)
def test_sweep_step_refusal_names_its_class(capsys, step, prefix):
    # a positive step below STEP_MIN bounds the node count, so it is a budget
    # refusal; a coarse, NaN, zero or negative step is a bad value
    code, out, err = run(capsys, "sweep", "--m", "3", "--n", "3", f"--step={step}")
    assert (code, out) == (2, "")
    assert err.startswith(prefix) and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("pe", "--n", "78", "--pd", "0.7", "--pf", "0.3",
         "--placement", "12-11-10-9-8-7-6-5-4-3-2-1"),
        ("verify", "thm42", "--m", "21", "--n1", "22", "--n2", "23"),
        ("majorize", "--m", "21"),
        ("simulate", "--n", "1000000000", "--pd", "0.7", "--pf", "0.3",
         "--placement", "1", "--trials", "10"),
        ("simulate", "--n", "3", "--pd", "0.7", "--pf", "0.3",
         "--placement", "1", "--trials", "10", "--seed", "-1"),
        ("simulate", "--n", "2", "--pd", "0.7", "--pf", "0.3", "--placement", "3"),
        ("pe", "--n", "2", "--pd", "1.6", "--pf", "0.2", "--placement", "2"),
        ("optimal", "--m", "4", "--n", "3", "--pd", "0.7", "--pf", "0.3"),
        ("sweep", "--m", "3", "--n", "0"),
        ("verify", "thm42", "--m", "4", "--n1", "4", "--n2", "6"),
        ("verify", "thm41", "--max-m", "21"),
        ("pe", "--n", "2", "--pd", "0.6", "--pf", "0.2", "--placement", "1-0-1"),
        ("simulate", "--n", "2", "--pd", "0.6", "--pf", "0.2", "--placement", "1-0-1"),
        ("simulate", "--n", "21", "--pd", "0.7", "--pf", "0.2", "--placement", "21",
         "--trials", "10"),
    ],
)
def test_refusals_come_before_any_table(monkeypatch, capsys, argv):
    def no_table(*args, **kwargs):
        raise AssertionError("table built")

    for module, name in (
        (detection, "slice_table"),
        (detection, "class_table"),
        (montecarlo, "_decision_tables"),
        (montecarlo, "_alarm_thresholds"),
        (cli, "verdict_matrix"),
    ):
        monkeypatch.setattr(module, name, no_table)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(("error: ", "refused: ")) and err.count("\n") == 1
    assert "table built" not in err


@pytest.mark.parametrize("command", ["pe", "simulate"])
@pytest.mark.parametrize(
    "n, placement", [("2", "1-0-1"), ("3", "1-1-1-1"), ("4", "2-2-1-1-1")],
    ids=["zero-padded", "more-entries-than-points", "five-occupied-on-four"],
)
def test_placement_longer_than_n_is_refused(capsys, command, n, placement):
    # a typed vector may carry zeros, but no more entries than --n
    code, out, err = run(capsys, command, "--n", n, "--pd", "0.6", "--pf", "0.2",
                         "--placement", placement)
    length = len(placement.split("-"))
    assert (code, out, err) == (2, "", f"error: count vector of length {length} exceeds n={n}\n")


def test_simulate_subcommand(capsys):
    code, payload, _ = run_json(
        capsys, "simulate", "--n", "2", "--pd", "0.6", "--pf", "0.2",
        "--placement", "2", "--trials", "200000", "--seed", "42",
    )
    assert code == 0
    assert payload["trials"] == 200000
    assert abs(payload["pe_hat"] - payload["analytic_pe"]) <= 4 * payload["std_err"]
    assert abs(payload["z_score"]) <= 4


def test_simulate_deterministic(capsys):
    args = (
        "simulate", "--n", "3", "--pd", "0.8", "--pf", "0.2",
        "--placement", "2-1", "--trials", "100000", "--seed", "7",
        "--ties", "lowest",
    )
    _, first, _ = run_json(capsys, *args)
    _, second, _ = run_json(capsys, *args)
    assert first == second


def test_simulate_refuses_too_many_sensors(tmp_path, capsys):
    out = tmp_path / "sim.json"
    code, stdout, err = run(
        capsys, "simulate", "--n", "30", "--pd", "0.7", "--pf", "0.2",
        "--placement", "30", "--trials", "10", "--out", str(out),
    )
    assert code == 2
    assert stdout == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists() and not list(tmp_path.iterdir())


def test_verify_thm41(capsys):
    code, payload, _ = run_json(
        capsys, "verify", "thm41", "--max-m", "3", "--step", "0.05"
    )
    assert code == 0
    assert payload["pass"] is True
    assert payload["claim"] == "uniform-never-strictly-optimal"


def test_verify_thm42(capsys):
    code, payload, _ = run_json(
        capsys, "verify", "thm42", "--m", "3", "--n1", "4", "--n2", "6",
        "--step", "0.1",
    )
    assert code == 0 and payload["pass"] is True


def test_verify_conjecture(capsys):
    code, payload, _ = run_json(
        capsys, "verify", "conjecture", "--m", "4", "--n", "4", "--step", "0.05"
    )
    assert code == 0 and payload["pass"] is True


def test_verify_counterexample(capsys):
    code, payload, _ = run_json(capsys, "verify", "counterexample")
    assert code == 0
    assert payload["pass"] is True
    assert payload["notes"]["violations_increasing_pf"]


def test_verify_prop51_single(capsys):
    code, payload, _ = run_json(
        capsys, "verify", "prop51", "--m", "3", "--n", "3", "--step", "0.02"
    )
    assert code == 0 and payload["pass"] is True


def test_verify_prop51_default_pairs(capsys):
    code, payload, _ = run_json(capsys, "verify", "prop51", "--step", "0.02")
    assert code == 0
    assert len(payload["reports"]) == 5
    assert all(r["pass"] for r in payload["reports"])


def test_verify_failure_exits_one(capsys, monkeypatch):
    from placedet import analysis

    failing = analysis.VerificationReport(
        claim="uniform-never-strictly-optimal",
        checked=1,
        max_violation=1.0,
        counterexamples=({"p_f": 0.5, "p_d": 0.5},),
        passed=False,
    )
    monkeypatch.setattr(analysis, "verify_thm41", lambda **kw: failing)
    code, payload, _ = run_json(capsys, "verify", "thm41")
    assert code == 1
    assert payload["pass"] is False


def test_verify_passes_only_the_flags_given(capsys, monkeypatch):
    # each verifier owns its defaults; every target accepts --threads, and none is passed it
    from placedet import analysis

    seen = []
    report = analysis.VerificationReport("claim", 1, 0.0, (), True)

    def record(**kwargs):
        seen.append(kwargs)
        return report

    def record_each(**kwargs):
        seen.append(kwargs)
        return [report]

    assert inspect.signature(analysis.verify_cor41).parameters["m"].default == 3
    assert inspect.signature(analysis.verify_prop51_pairs).parameters["pairs"].default == (
        (3, 3), (3, 4), (4, 4), (4, 5), (5, 6))
    monkeypatch.setattr(analysis, "verify_thm41", record)
    monkeypatch.setattr(analysis, "verify_counterexample", record)
    monkeypatch.setattr(analysis, "verify_cor41", record)
    monkeypatch.setattr(analysis, "verify_prop51_pairs", record_each)
    assert main(["verify", "thm41"]) == 0
    assert main(["verify", "thm41", "--max-m", "6", "--threads", "2"]) == 0
    assert main(["verify", "counterexample", "--threads", "2"]) == 0
    assert main(["verify", "cor41"]) == 0
    assert main(["verify", "cor41", "--m", "4", "--step", "0.05"]) == 0
    assert main(["verify", "prop51", "--threads", "2"]) == 0
    assert main(["verify", "prop51", "--m", "4", "--n", "5"]) == 0
    capsys.readouterr()
    assert seen == [{}, {"m_max": 6}, {}, {}, {"m": 4, "step": 0.05}, {}, {"pairs": ((4, 5),)}]


@pytest.mark.parametrize(
    "fault", [MemoryError("Unable to allocate 9.00 GiB"), RuntimeError("boom\nsecond line")]
)
def test_unexpected_fault_exits_two_with_one_line(capsys, monkeypatch, fault):
    from placedet import analysis

    def fail(*args, **kwargs):
        raise fault

    monkeypatch.setattr(analysis, "sweep_plane", fail)
    code, out, err = run(capsys, "sweep", "--m", "3", "--n", "3", "--step", "0.1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("pe", "--m", "3", "--n", "2", "--pd", "0.6", "--pf", "0.2", "--placement", "2-1"),
        ("pe", "--m", "4", "--n", "4", "--pd", "0.6", "--pf", "0.2", "--placement", "2-1"),
        ("pe", "--m", "2", "--n", "2", "--pd", "1.6", "--pf", "0.2", "--placement", "2"),
        ("verify", "thm42", "--m", "3", "--n1", "4"),
        ("verify", "thm42", "--m", "4", "--n1", "4", "--n2", "6"),
        ("verify", "conjecture", "--m", "4"),
        ("simulate", "--n", "2", "--pd", "0.6", "--pf", "0.2", "--placement", "2", "--trials", "0"),
        ("verify", "thm41", "--max-m", "1"),
        ("verify", "thm41", "--max-m", "21"),
        ("pe", "--pd", "0.6", "--pf", "0.2", "--placement", "2"),
        ("verify", "thm43"),
        (),
        ("pe", "--n", "2", "--pd", "0.6", "--pf", "0.2", "--placement", "2-x"),
        ("verify", "counterexample", "--step", "0.5", "--m", "9"),
        ("verify", "thm41", "--m", "9"),
        ("verify", "thm41", "--step", "0"),
    ],
)
def test_usage_errors_exit_two(capsys, argv):
    # library refusals return 2 from main; argparse's own errors raise SystemExit(2)
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("cpus, threads, expected", [(3, "64", 3), (3, "2", 2), (None, "4", 1)])
def test_threads_capped_at_cpu_count(capsys, monkeypatch, cpus, threads, expected):
    # sweep accepts --threads but runs serially; the simulate fake only
    # records the thread count, so no thread is ever started
    from placedet import analysis, montecarlo

    seen = []

    def fake_sweep(m, n, step, region):
        nodes = analysis._nodes((), (), half_plane=False)
        tie, pe_min, margin, strict = detection.argmin_with_ties(np.empty((1, 0)))
        return analysis.RegionMap(m, n, step, region, (), (), ((m,),), *nodes,
                                  tie, pe_min, margin, strict, tie.argmax(axis=0))

    def fake_simulate(placement, model, n, trials, seed, tie_rule, threads):
        seen.append(threads)
        return montecarlo.SimResult(trials, 0, 0.0, 0.0, seed)

    monkeypatch.setattr("os.cpu_count", lambda: cpus)
    monkeypatch.setattr(analysis, "sweep_plane", fake_sweep)
    monkeypatch.setattr(montecarlo, "simulate", fake_simulate)
    assert main(["sweep", "--m", "3", "--n", "3", "--threads", threads]) == 0
    assert main(["simulate", "--n", "2", "--pd", "0.6", "--pf", "0.2",
                 "--placement", "2", "--threads", threads]) == 0
    assert seen == [expected]


# first 16 hex digits of the sha256 of each CSV; pins the bytes across kernel changes
GOLDEN_SWEEPS = (
    (("--m", "8", "--n", "9", "--step", "0.01"), "c40e60eb99d7bafa"),
    (("--m", "7", "--n", "8", "--step", "0.005", "--threads", "2"), "a04fc78e2d07d2cb"),
    (("--m", "4", "--n", "4", "--step", "0.005", "--region", "full"), "8de4a9c6c09738ab"),
    (("--m", "4", "--n", "4", "--step", "0.02", "--region", "full", "--format", "json"),
     "acbeb750bc7f5b9d"),
)


@pytest.mark.parametrize("argv, digest", GOLDEN_SWEEPS)
def test_sweep_csv_digests(capsys, tmp_path, argv, digest):
    out = tmp_path / "map.csv"
    code, _, _ = run(capsys, "sweep", *argv, "--out", str(out))
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest()[:16] == digest


# sha256 of the stdout of each verify target, recorded before slice tables
# were cut to the bands a call reads and a run of maps of one m was swept in
# one call; pins the bytes of those changes
GOLDEN_VERIFY = (
    (("thm41", "--max-m", "6", "--step", "0.02"),
     "cac9df86180000883d011aef4980d4f27fdd83cca1ae095bb1bdc6acf79bee77"),
    (("thm41", "--max-m", "20", "--step", "0.05"),
     "32fb79d370f203d0fd3b36cd6a01631f09c6571d966465e4083cfb92602d1589"),
    (("cor41", "--m", "4", "--step", "0.02"),
     "e5c06a7d0086f72d1bca55cd10efc39b5c03633b223cfd97423b2664985b6a34"),
    (("prop51", "--step", "0.02"),
     "5b4aa0a525053fb5cdd7248af3a76e08a9831a28c00043009000e522c1565c53"),
    (("thm42", "--m", "4", "--n1", "5", "--n2", "7", "--step", "0.05"),
     "50829297de9e4e2639ef63c3eac0625490552cb4840a8861ad947f50e3ca0207"),
    (("conjecture", "--m", "6", "--n", "7", "--step", "0.02"),
     "fe05d7288075f8a28795dca8727b7483a1640be38f8ea220f382a3567bbe4bbf"),
)


@pytest.mark.parametrize("argv, digest", GOLDEN_VERIFY)
def test_verify_stdout_digests(capsys, argv, digest):
    code, out, err = run(capsys, "verify", *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of the stdout of majorize at the sensor bound, recorded while the CLI
# still decided each pair with its own compare call
def test_majorize_stdout_digest(capsys):
    code, out, err = run(capsys, "majorize", "--m", "20")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "21d2e37ecb01d245ded0bf2d08b55db1a5151a3bc9508b64c6bfc4b738f42675")


def test_main_builds_its_parser_once(monkeypatch, capsys):
    assert run(capsys, "partitions", "--m", "2")[0] == 0

    def no_parser():
        raise AssertionError("parser built again")

    monkeypatch.setattr(cli, "build_parser", no_parser)
    assert run(capsys, "partitions", "--m", "3")[1].splitlines() == ["3", "2-1", "1-1-1"]
    with pytest.raises(SystemExit) as exc:
        main(["partitions"])
    assert exc.value.code == 2 and capsys.readouterr().err.startswith("error: ")
    assert run(capsys, "partitions", "--m", "1")[1] == "1\n"


NUMPY_MA_PROBE = """
import sys
from placedet.cli import main
for argv in sys.argv[2:]:
    assert main([*argv.split(), "--out", sys.argv[1]]) == 0, argv
    print("numpy.ma" in sys.modules)
"""


def test_sweeps_and_verify_targets_leave_numpy_ma_unimported(tmp_path):
    # numpy.ma costs about 1 MiB of resident memory, and np.unique is the
    # usual way it gets imported
    src = str(Path(placedet.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    runs = [
        "sweep --m 4 --n 5 --step 0.05",
        "sweep --m 4 --n 4 --step 0.05 --region full --format json",
        "verify thm41 --max-m 6 --step 0.05",
        "verify thm42 --m 3 --n1 4 --n2 5 --step 0.1",
        "verify cor41 --m 3 --step 0.05",
        "verify prop51 --step 0.05",
        "verify counterexample",
        "verify conjecture --m 6 --n 7 --step 0.05",
    ]
    done = subprocess.run(
        [sys.executable, "-c", NUMPY_MA_PROBE, str(tmp_path / "out"), *runs],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"] * len(runs)
