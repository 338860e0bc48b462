import os
import subprocess
import sys

import numpy as np
import pytest

import streamuniq
from streamuniq import RadialGrid, VorticityModel, continuity_sweep, run_uniqueness_analysis
from streamuniq.cli import (CSV_BLOCK_ROWS, _load, build_parser, main, write_atomic,
                            write_csv)
from streamuniq.config import load_config


def _read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _csv_rows(path):
    lines = _read(path).strip().splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


def _reference_csv(header, rows):
    # the CSV text as it was built before write_csv formatted whole blocks:
    # one str.format per value, rows joined by newlines
    def fmt(x):
        if isinstance(x, (bool, np.bool_)):
            return "true" if x else "false"
        if isinstance(x, (float, np.floating)):
            return f"{float(x):.17g}"
        return str(x)

    lines = [header]
    lines.extend(",".join(fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def test_integrate_picard(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["integrate", "--out", str(out), "--nodes", "513"])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "window_end = 1.27" in stdout
    assert "psi_at_r_max = " in stdout
    header, rows = _csv_rows(out / "trajectory.csv")
    assert header == "r,psi,u"
    assert len(rows) == 513
    assert float(rows[0][0]) == 1.0
    assert float(rows[0][1]) == 0.0
    assert float(rows[0][2]) == 1.0
    log = _read(out / "run_log.txt")
    assert "method = picard" in log
    assert "converged = true" in log


def test_integrate_rk(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["integrate", "--out", str(out), "--method", "rk",
                 "--r-max", "1.5", "--nodes", "257"])
    assert code == 0
    log = _read(out / "run_log.txt")
    assert "method = rk" in log
    assert "accepted_steps = " in log
    assert "rejected_steps = " in log
    header, rows = _csv_rows(out / "trajectory.csv")
    assert header == "r,psi,u"
    assert len(rows) == 257
    assert float(rows[-1][0]) == 1.5


def test_integrate_flag_overrides_config(tmp_path, capsys):
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text("[ic]\npsi1 = 2.0\n", encoding="utf-8")
    out = tmp_path / "a"
    assert main(["integrate", "--config", str(cfgfile), "--psi1", "1.0",
                 "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    # the flag wins over the file: the psi1 = 1 endpoint value appears
    assert "psi_at_r_max = 0.77874210503579" in stdout


def test_verify_classical(tmp_path, capsys):
    out = tmp_path / "cert"
    code = main(["verify", "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    for name in ("sign_condition", "holder_bound", "lower_bound",
                 "contraction", "cross_method"):
        assert f"{name}: PASS" in stdout
    assert "verdict = true" in stdout
    report = _read(out / "report.txt")
    assert "r2 = 1.4142135623730951" in report
    assert "binding_constraint = quadratic" in report
    assert "verdict = true" in report
    header, rows = _csv_rows(out / "trace.csv")
    assert header == "r,y"
    assert len(rows) == 12
    trace = run_uniqueness_analysis(VorticityModel.classical()).report.deviation_limit_trace
    assert _read(out / "trace.csv") == _reference_csv("r,y", trace)
    assert (out / "trajectory_picard.csv").exists()
    assert (out / "trajectory_rk.csv").exists()
    svg = _read(out / "trace.svg")
    assert svg.startswith("<svg")
    assert "weighted deviation" in svg


def test_verify_rejecting_model_exits_one(tmp_path, capsys):
    cfgfile = tmp_path / "zero.ini"
    cfgfile.write_text(
        "[model]\nkind = custom\npath = streamuniq.vorticity:zero_vorticity\n"
        "holder_c = 1.0\n", encoding="utf-8")
    out = tmp_path / "cert"
    code = main(["verify", "--config", str(cfgfile), "--out", str(out)])
    assert code == 1
    stdout = capsys.readouterr().out
    assert "sign_condition: FAIL" in stdout
    assert "verdict = false" in stdout
    # the run fails before any artifact is produced
    assert not (out / "report.txt").exists()


def test_validate_model_classical(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(["validate-model"])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "kind = classical" in stdout
    assert "verdict = true" in stdout
    # without --out the command only prints
    assert not os.path.exists("out")


def test_validate_model_writes_on_request(tmp_path, capsys):
    out = tmp_path / "v"
    assert main(["validate-model", "--model", "oscillatory", "--out", str(out)]) == 0
    text = _read(out / "hypothesis.txt")
    assert "kind = oscillatory" in text
    assert "verdict = true" in text


def test_validate_model_writes_to_explicit_default_dir(tmp_path, capsys, monkeypatch):
    # "--out out" names the same directory the other commands fall back to,
    # but it is still an explicit request to write
    monkeypatch.chdir(tmp_path)
    assert main(["validate-model", "--out", "out"]) == 0
    assert "verdict = true" in _read(tmp_path / "out" / "hypothesis.txt")


def test_validate_model_rejecting_exits_one(tmp_path, capsys):
    cfgfile = tmp_path / "zero.ini"
    cfgfile.write_text(
        "[model]\nkind = custom\npath = streamuniq.vorticity:zero_vorticity\n"
        "holder_c = 1.0\n", encoding="utf-8")
    assert main(["validate-model", "--config", str(cfgfile)]) == 1
    assert "verdict = false" in capsys.readouterr().out


def test_sweep(tmp_path, capsys):
    out = tmp_path / "sw"
    code = main(["sweep", "--out", str(out), "--psi1-values", "1.0,1.001",
                 "--r-max", "1.4", "--nodes", "257"])
    assert code == 0
    header, rows = _csv_rows(out / "sweep.csv")
    assert header == "dpsi1,sup_dev"
    assert len(rows) == 1
    np.testing.assert_allclose(float(rows[0][0]), 1e-3, rtol=1e-9)
    assert 1e-4 < float(rows[0][1]) < 1e-2
    assert (out / "sweep.svg").exists()
    assert "dpsi1 = " in capsys.readouterr().out
    expected = continuity_sweep(VorticityModel.classical(), 1.0, [1.0, 1.001], r_max=1.4,
                                grid=RadialGrid.geometric(1.0, 1.4, 257))
    assert _read(out / "sweep.csv") == _reference_csv("dpsi1,sup_dev", expected)


def test_write_csv_matches_per_value_reference(tmp_path):
    n = 2 * CSV_BLOCK_ROWS + 3
    rng = np.random.default_rng(3)
    special = np.array([0.0, -0.0, 5e-324, 1e300, np.nan, np.inf, -np.inf, 0.1, -1e-300])
    cols = [np.linspace(1.0, 2.0, n), rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n),
            np.resize(special, n)]
    # put the special values on both sides of each block boundary too
    for edge in (CSV_BLOCK_ROWS - 4, 2 * CSV_BLOCK_ROWS - 6):
        cols[1][edge:edge + special.size] = special
    path = str(tmp_path / "t.csv")
    write_csv(path, "a,b,c", cols)
    assert _read(path) == _reference_csv("a,b,c", zip(*cols))
    write_csv(path, "a", [[]])
    assert _read(path) == "a\n"


def test_write_atomic_removes_temp_file_on_failure(tmp_path):
    target = tmp_path / "trajectory_rk.csv"
    target.mkdir()
    with pytest.raises(OSError):
        write_atomic(str(target), "r,psi,u\n")
    assert sorted(os.listdir(tmp_path)) == ["trajectory_rk.csv"]
    assert target.is_dir()


def test_verify_honours_nodes_without_r_max(tmp_path, capsys):
    out = tmp_path / "cert"
    assert main(["verify", "--nodes", "513", "--out", str(out)]) == 0
    for name in ("trajectory_picard.csv", "trajectory_rk.csv"):
        assert len(_read(out / name).splitlines()) == 514


@pytest.mark.parametrize("argv", [
    ["integrate", "--bogus-flag"],
    ["integrate", "--config", "/nonexistent/run.ini"],
    ["integrate", "--r0", "0.5"],
    ["integrate", "--psi1", "0.0"],
    ["bogus-command"],
])
def test_config_errors_exit_two(tmp_path, capsys, argv):
    if "--out" not in argv:
        argv = argv + ["--out", str(tmp_path / "x")] if argv[0] != "bogus-command" else argv
    assert main(argv) == 2
    capsys.readouterr()


def test_unknown_config_key_exits_two(tmp_path, capsys):
    cfgfile = tmp_path / "bad.ini"
    cfgfile.write_text("[solver]\nstepper = rk4\n", encoding="utf-8")
    assert main(["integrate", "--config", str(cfgfile)]) == 2
    assert "unknown key" in capsys.readouterr().err


def test_custom_without_path_exits_two(tmp_path, capsys):
    assert main(["integrate", "--model", "custom", "--out", str(tmp_path / "x")]) == 2
    capsys.readouterr()


def test_unknown_method_exits_two(tmp_path, capsys):
    cfgfile = tmp_path / "m.ini"
    cfgfile.write_text("[solver]\nmethod = euler\n", encoding="utf-8")
    assert main(["integrate", "--config", str(cfgfile),
                 "--out", str(tmp_path / "x")]) == 2
    assert "euler" in capsys.readouterr().err


def test_solver_failure_exits_three_and_writes_nothing(tmp_path, capsys):
    cfgfile = tmp_path / "hard.ini"
    cfgfile.write_text("[solver]\ntol = 1e-16\nmax_iter = 2\n", encoding="utf-8")
    out = tmp_path / "x"
    code = main(["integrate", "--config", str(cfgfile), "--out", str(out)])
    assert code == 3
    assert "solver failure" in capsys.readouterr().err
    assert not out.exists()


def test_rk_underflow_exits_three(tmp_path, capsys):
    cfgfile = tmp_path / "stiff.ini"
    cfgfile.write_text(
        "[solver]\nmethod = rk\nh_init = 0.05\nh_min = 0.05\nh_max = 0.05\n",
        encoding="utf-8")
    code = main(["integrate", "--config", str(cfgfile),
                 "--out", str(tmp_path / "x")])
    assert code == 3
    assert "solver failure" in capsys.readouterr().err


def test_module_entrypoint_runs():
    # the child imports the same package as this process, installed or not
    src = os.path.dirname(os.path.dirname(streamuniq.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-m", "streamuniq", "validate-model"],
                         capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    assert out.returncode == 0
    assert "verdict = true" in out.stdout


# a directory named like the command's last output file makes that write fail
# after the earlier files were written
@pytest.mark.parametrize("command, blocked", [
    ("verify", "trajectory_rk.csv"),
    ("integrate", "run_log.txt"),
    ("sweep", "sweep.svg"),
])
def test_write_failure_exits_two_and_removes_partial_artifacts(tmp_path, capsys,
                                                               command, blocked):
    out = tmp_path / "run"
    (out / blocked).mkdir(parents=True)
    assert main([command, "--nodes", "513", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert sorted(os.listdir(out)) == [blocked]


def test_out_naming_a_file_exits_two(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("keep\n", encoding="utf-8")
    assert main(["validate-model", "--out", str(taken)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert taken.read_text(encoding="utf-8") == "keep\n"


def test_bad_psi1_values_exit_two(tmp_path, capsys):
    assert main(["sweep", "--psi1-values", "1,zebra", "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == "error: bad float list '1,zebra'\n"
    assert not (tmp_path / "x").exists()


BASE_INI = """
[model]
kind = oscillatory
[ic]
r0 = 1.5
psi1 = 0.5
[grid]
n = 129
[solver]
method = rk
tol = 1e-9
rel_tol = 1e-8
[run]
r_max = 2.5
out = results
sweep_psi1 = 1.0, 1.01
"""


@pytest.mark.parametrize("argv, expected", [
    (["integrate", "--r0", "2"], {"r0": 2.0}),
    (["integrate", "--psi1", "-0.25"], {"psi1": -0.25}),
    (["integrate", "--model", "classical"], {"model_kind": "classical"}),
    (["integrate", "--tol", "1e-7"], {"tol": 1e-7, "rel_tol": 1e-7}),
    (["integrate", "--out", "elsewhere"], {"out_dir": "elsewhere"}),
    (["integrate", "--r-max", "3.5"], {"r_max": 3.5}),
    (["verify", "--nodes", "65"], {"grid_n": 65}),
    (["sweep", "--psi1-values", "2,2.5"], {"sweep_psi1": [2.0, 2.5]}),
    (["integrate", "--method", "picard"], {"method": "picard"}),
])
def test_flag_overrides_config_value(tmp_path, argv, expected):
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text(BASE_INI, encoding="utf-8")
    cfg = _load(build_parser().parse_args(argv + ["--config", str(cfgfile)]))
    want = load_config(str(cfgfile))
    for name, value in expected.items():
        assert getattr(want, name) != value
        setattr(want, name, value)
    # the flag sets its field and nothing else
    assert cfg == want
