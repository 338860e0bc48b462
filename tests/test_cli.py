import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import streamuniq
import streamuniq.verify
from streamuniq import RadialGrid, VorticityModel, continuity_sweep, run_uniqueness_analysis
from streamuniq._csvtext import format_table
from streamuniq.cli import (CSV_BLOCK_ROWS, WRITE_SLICE_CHARS, _load, build_parser, main,
                            write_atomic, write_csv)
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


def test_verify_prints_the_threshold_the_verdict_used(tmp_path, capsys, monkeypatch):
    # the printed check and the verdict read one comparison, so a tightened
    # threshold fails both
    monkeypatch.setattr(streamuniq.verify, "CROSS_METHOD_SUP_MAX", 0.0)
    code = main(["verify", "--out", str(tmp_path / "cert")])
    stdout = capsys.readouterr().out
    assert "cross_method: FAIL" in stdout
    assert stdout.endswith("verdict = false\n")
    assert code == 1


CERT_ARTIFACTS = ["report.txt", "trace.csv", "trace.svg", "trajectory_picard.csv",
                  "trajectory_rk.csv"]


def test_verify_contraction_violation_exits_one(tmp_path, capsys, monkeypatch):
    # a violated probe inequality is one FAIL line, like any other check
    monkeypatch.setattr(streamuniq.verify, "contraction_probe",
                        lambda *args, **kwargs: (0.25, False))
    out = tmp_path / "cert"
    code = main(["verify", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().out == (
        "sign_condition: PASS\n"
        "holder_bound: PASS\n"
        "lower_bound: PASS\n"
        "contraction: FAIL\n"
        "cross_method: PASS\n"
        "verdict = false\n")
    assert sorted(os.listdir(out)) == CERT_ARTIFACTS
    report = _read(out / "report.txt")
    assert "probe_ratio = 0.25\n" in report
    assert "verdict = false\n" in report


def test_verify_lower_bound_violation_exits_one(tmp_path, capsys, monkeypatch):
    # a solution below the logarithmic term fails lower_bound (exit 1), not
    # an input check (exit 2)
    monkeypatch.setattr(streamuniq.verify, "check_lower_bound", lambda *args: -1.0)
    out = tmp_path / "cert"
    code = main(["verify", "--out", str(out)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == (
        "sign_condition: PASS\n"
        "holder_bound: PASS\n"
        "lower_bound: FAIL\n"
        "contraction: PASS\n"
        "cross_method: PASS\n"
        "verdict = false\n")
    assert captured.err == ""
    assert sorted(os.listdir(out)) == CERT_ARTIFACTS
    assert "lower_bound_margin = -1\n" in _read(out / "report.txt")


def test_verify_window_without_interior_node_exits_three(tmp_path, capsys):
    # at psi1 = 1e-8 the window ends left of the first interior node of 65
    out = tmp_path / "cert"
    code = main(["verify", "--psi1", "1e-8", "--r-max", "2", "--nodes", "65",
                 "--out", str(out)])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("solver failure: certification window contains "
                                   "no interior node")
    assert not out.exists()


def test_integrate_step_underflow_prints_plain_floats(tmp_path):
    proc = _run_with_law(tmp_path, ["integrate", "--method", "rk"], "steep_beyond_the_band")
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == (
        "solver failure: step size fell below h_min = 1e-14 at r = 1.3362233197736864\n")
    assert not (tmp_path / "out").exists()


def test_integrate_window_collapse_prints_plain_floats(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["integrate", "--psi1", "50", "--nodes", "5", "--r-max", "3",
                 "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        "solver failure: iterate left (0, 0.25] at the first interior node "
        "r = 1.4239604536202384 (value 17.672102063502557); refine the grid near r0\n")
    assert not out.exists()


def test_integrate_rejecting_model_names_the_solvers_that_can_skip_the_check(tmp_path, capsys):
    cfgfile = tmp_path / "zero.ini"
    cfgfile.write_text(
        "[model]\nkind = custom\npath = streamuniq.vorticity:zero_vorticity\n"
        "holder_c = 1.0\n", encoding="utf-8")
    out = tmp_path / "run"
    assert main(["integrate", "--config", str(cfgfile), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "model failed hypothesis validation" in err
    assert "only picard_solve and rk_solve can skip this check, with allow_unvalidated=True" in err
    assert not (out / "trajectory.csv").exists()


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


def _percent_17g(table):
    return "".join(",".join("%.17g" % x for x in row) + "\n"
                   for row in np.asarray(table).tolist()).encode()


def _as_table(values, ncols):
    values = np.asarray(values, dtype=np.float64)
    return np.resize(values, (-(-values.size // ncols), ncols))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=40),
       st.integers(-40, 60), st.integers(1, 4))
def test_format_table_is_percent_17g_on_raw_bit_patterns(bits, binade, ncols):
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    assert format_table(_as_table(values, ncols)) == _percent_17g(_as_table(values, ncols))
    # the same significands and signs moved into the range the digits come from numpy
    with np.errstate(over="ignore"):
        moved = np.ldexp(np.frexp(values)[0], binade)
    assert format_table(_as_table(moved, ncols)) == _percent_17g(_as_table(moved, ncols))


def test_format_table_is_percent_17g_on_many_values():
    rng = np.random.default_rng(11)
    bits = rng.integers(0, 2 ** 64 - 1, 60000, dtype=np.uint64, endpoint=True)
    scaled = (rng.uniform(1.0, 10.0, 60000) * 10.0 ** rng.integers(-13, 19, 60000)
              * rng.choice([-1.0, 1.0], 60000))
    for values in (bits.view(np.float64), scaled):
        for ncols in (1, 3):
            table = _as_table(values, ncols)
            assert format_table(table) == _percent_17g(table)


def test_format_table_near_ties():
    # an odd m < 2^53 over 2^j is exact, and when m * 5^j has 18 digits its
    # decimal ends in a 5 exactly halfway between two 17-digit strings
    # (e = 17 - j, from 15 to -8); the nearest doubles to random 18-digit
    # decimals ending in 5, and all their neighbours, land on either side
    rng = np.random.default_rng(12)
    values = []
    for j in range(2, 26):
        lo, hi = -(-10 ** 17 // 5 ** j), min(10 ** 18 // 5 ** j, 2 ** 53)
        values += [(m | 1) / 2 ** j for m in rng.integers(lo, hi, 8).tolist()]
    for exponent in range(-14, 19):
        values += [float(f"{digits}5e{exponent - 17}")
                   for digits in rng.integers(10 ** 16, 10 ** 17, 8).tolist()]
    values += [0.5, 2.5, 1.25e-5, 0.30000000000000004]
    values = np.array(values)
    values = np.concatenate([values, np.nextafter(values, 0.0), np.nextafter(values, np.inf)])
    values = np.concatenate([values, -values])
    for ncols in (1, 2, 3):
        table = _as_table(values, ncols)
        assert format_table(table) == _percent_17g(table)


def test_format_table_boundaries():
    edges = [1e16, 1e17, 1e-4, 1e-5, 1e99, 1e100, 1e-99, 1e-100,
             # k = 16 - e is 27 and 28 at e = -11 and e = -12
             1e-11, 1e-12, 9.99e-12, 9.99e-13,
             5e-324, 2.2250738585072014e-308, 2.2250738585072009e-308, 1.7976931348623157e308,
             1.0, 10.0, 100.0, 1200.0, 1e15 + 10, 12345678901234567.0, 0.1, 0.0001234]
    values = [0.0, -0.0, np.nan, np.inf, -np.inf]
    for x in edges:
        with np.errstate(over="ignore"):
            near = (x, np.nextafter(x, 0.0), np.nextafter(x, np.inf))
        values += [sign * y for y in near for sign in (1.0, -1.0)]
    for ncols in (1, 2, 3, 5):
        table = _as_table(values, ncols)
        assert format_table(table) == _percent_17g(table)
    assert (format_table(np.array([[1e-5, -1e16, 1e17, -0.0]]))
            == b"1.0000000000000001e-05,-10000000000000000,1e+17,-0\n")
    assert format_table(np.array([[1e-4], [np.nan], [-np.inf]])) == b"0.0001\nnan\n-inf\n"


def test_format_table_takes_most_trajectory_values_from_numpy(monkeypatch):
    slow = []
    monkeypatch.setattr("streamuniq._csvtext.format",
                        lambda x, spec: slow.append(x) or format(x, spec), raising=False)
    r = np.linspace(1.0, 1.5, 4097)
    table = np.column_stack([r, np.log(r), -1.0 / r])
    assert format_table(table) == _percent_17g(table)
    assert 0 < len(slow) < 0.03 * table.size


def test_format_table_without_a_64_bit_long_double(monkeypatch):
    values = [0.1, -2.5, 1e-5, 123.0, 1e300, 0.0, np.nan, 1.0000000000000002]
    table = _as_table(values, 2)
    fast = format_table(table)
    monkeypatch.setattr("streamuniq._csvtext.EXACT_LONG_DOUBLE", False)
    assert format_table(table) == fast == _percent_17g(table)


@pytest.mark.parametrize("length", [0, 1, WRITE_SLICE_CHARS - 1, WRITE_SLICE_CHARS,
                                    WRITE_SLICE_CHARS + 1])
def test_write_atomic_slices_give_the_bytes_of_one_write(tmp_path, length):
    assert WRITE_SLICE_CHARS == 1 << 20
    texts = [("0123456789,\n" * (length // 12 + 1))[:length]]
    if length > 2:
        # multi-byte characters on both sides of the slice boundary
        texts.append("x" * (length - 3) + "\u00e9\u20ac\U0001f600")
        texts.append("\u00e9" * length)
    for text in texts:
        ref = tmp_path / "ref"
        with open(ref, "w", encoding="utf-8") as fh:
            fh.write(text)
        path = tmp_path / "sliced"
        write_atomic(str(path), text)
        assert path.read_bytes() == ref.read_bytes()


def test_write_csv_larger_than_one_slice(tmp_path):
    n = 40000
    cols = [np.linspace(1.0, 2.0, n), np.random.default_rng(5).standard_normal(n)]
    path = tmp_path / "big.csv"
    write_csv(str(path), "a,b", cols)
    assert path.stat().st_size > WRITE_SLICE_CHARS
    assert _read(path) == _reference_csv("a,b", zip(*cols))


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


def test_rk_underflow_exits_three(tmp_path):
    proc = _run_with_law(tmp_path, ["integrate", "--method", "rk", "--out", "x"],
                         "steep_beyond_the_band")
    assert proc.returncode == 3
    assert "solver failure" in proc.stderr
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("text, key, section", [
    ("[solver]\nh_min = 0.05\n", "h_min", "solver"),
    ("[model]\nc1 = 0.01\n", "c1", "model"),
])
def test_removed_config_keys_exit_two(tmp_path, capsys, text, key, section):
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text(text, encoding="utf-8")
    assert main(["integrate", "--config", str(cfgfile), "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == f"error: unknown key {key!r} in section [{section}]\n"


@pytest.mark.parametrize("command", ["validate-model", "verify"])
@pytest.mark.parametrize("kind", ["classical", "oscillatory"])
def test_negative_delta_exits_two(tmp_path, capsys, command, kind):
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text(f"[model]\nkind = {kind}\ndelta = -1\n", encoding="utf-8")
    assert main([command, "--config", str(cfgfile), "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == "error: delta must lie in (0, 0.25]\n"
    assert not (tmp_path / "x").exists()


LAWS = """
import math


def finite_on_band(psi):
    # the classical law, finite on [-0.3, 0.3] and inf beyond
    if abs(psi) > 0.3:
        return math.inf
    return psi - psi / math.sqrt(abs(psi)) if psi != 0.0 else 0.0


def steep_beyond_the_band(psi):
    # the classical law plus 1e9 beyond |psi| = 0.3: validation samples only
    # the band, and the RK step collapses where psi crosses 0.3
    f = psi - psi / math.sqrt(abs(psi)) if psi != 0.0 else 0.0
    return f + 1.0e9 if abs(psi) > 0.3 else f


def huge_beyond_the_band(psi):
    # the classical law, and 1e308 beyond |psi| = 0.3: a Picard iterate
    # that leaves the band overflows the prefix moments
    if abs(psi) > 0.3:
        return 1.0e308
    return psi - psi / math.sqrt(abs(psi)) if psi != 0.0 else 0.0


def infinite_near_zero(psi):
    if 0.0 < abs(psi) < 1e-3:
        return math.inf
    return psi - psi / math.sqrt(abs(psi)) if psi != 0.0 else 0.0


def raises_everywhere(psi):
    raise ArithmeticError("no value here")


def returns_none(psi):
    return None


def returns_text(psi):
    return "x"


def raises_beyond_the_band(psi):
    # the classical law, undefined beyond |psi| = 0.3: validation samples
    # only the band, and the RK solution crosses 0.3
    if abs(psi) > 0.3:
        raise ArithmeticError("undefined beyond 0.3")
    return psi - psi / math.sqrt(abs(psi)) if psi != 0.0 else 0.0
"""


def _run_with_law(tmp_path, argv, law, holder_c=2.0):
    (tmp_path / "laws.py").write_text(LAWS, encoding="utf-8")
    (tmp_path / "run.ini").write_text(
        f"[model]\nkind = custom\npath = laws:{law}\nholder_c = {holder_c}\n",
        encoding="utf-8")
    src = os.path.dirname(os.path.dirname(streamuniq.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, str(tmp_path)]))
    env.pop("PYTHONWARNINGS", None)
    return subprocess.run([sys.executable, "-m", "streamuniq", *argv, "--config", "run.ini"],
                          cwd=tmp_path, capture_output=True, text=True, env=env)


def test_law_overflowing_beyond_the_band_prints_only_the_solver_failure(tmp_path):
    proc = _run_with_law(tmp_path, ["integrate", "--method", "rk"], "finite_on_band")
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == "solver failure: state turned non-finite at r = 1.3233539556477727\n"


@pytest.mark.parametrize("argv", [["integrate", "--method", "picard"], ["verify"]])
def test_law_overflowing_in_picard_prints_only_the_solver_failure(tmp_path, argv):
    # holder_c = 1.0 puts r_max where the Picard iterate passes |psi| = 0.3
    proc = _run_with_law(tmp_path, argv, "huge_beyond_the_band", holder_c=1.0)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == "solver failure: iterate turned non-finite\n"


def test_law_not_finite_on_the_band_prints_only_the_validation_error(tmp_path):
    proc = _run_with_law(tmp_path, ["integrate"], "infinite_near_zero")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (
        "error: model failed hypothesis validation (sign_margin=-inf, holder_sup=nan, "
        "holder_C=2.0); only picard_solve and rk_solve can skip this check, "
        "with allow_unvalidated=True\n")


@pytest.mark.parametrize("command", ["validate-model", "verify"])
@pytest.mark.parametrize("law, message", [
    ("raises_everywhere", "ArithmeticError: no value here"),
    ("returns_none",
     "TypeError: float() argument must be a string or a real number, not 'NoneType'"),
    ("returns_text", "ValueError: could not convert string to float: 'x'"),
])
def test_a_failing_custom_law_prints_one_error_line(tmp_path, command, law, message):
    proc = _run_with_law(tmp_path, [command], law)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: custom law failed: {message}\n"
    assert not (tmp_path / "out").exists()


def test_a_law_raising_beyond_the_band_stops_rk_with_one_error_line(tmp_path):
    proc = _run_with_law(tmp_path, ["integrate", "--method", "rk"], "raises_beyond_the_band")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: custom law failed: ArithmeticError: undefined beyond 0.3\n"
    assert not (tmp_path / "out").exists()


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


# argparse alone reads "-1e-3" as an option; each value below reaches the
# check of its own flag
@pytest.mark.parametrize("argv, message", [
    (["integrate", "--psi1", "-inf"], "psi1 must be finite and nonzero"),
    (["integrate", "--r0", "-2E0"], "r0 must be finite and >= 1, got -2.0"),
    (["verify", "--tol", "-1e-9"], "tol must be positive"),
    (["sweep", "--r-max", "-1e1"], "r_max must exceed r0"),
    (["sweep", "--psi1-values", "-5e-1,0"], "psi1 must be finite and nonzero"),
])
def test_negative_values_in_exponent_form_reach_their_checks(tmp_path, capsys, argv, message):
    assert main(argv + ["--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "x").exists()


def test_negative_values_reach_the_solvers(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["integrate", "--psi1", "-1e-3", "--nodes", "65", "--out", str(out)]) == 0
    assert "psi_at_r_max = -" in capsys.readouterr().out
    assert main(["sweep", "--psi1-values", "-0.5,-0.6", "--nodes", "65",
                 "--out", str(out)]) == 0
    assert capsys.readouterr().out.startswith("dpsi1 = -0.09999")
    assert main(["integrate", "--psi1", "-inf", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: psi1 must be finite and nonzero\n"
    # a following option is still no value
    assert main(["integrate", "--psi1", "--out", str(out)]) == 2
    assert "argument --psi1: expected one argument" in capsys.readouterr().err


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
