import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from permshape import _kernels, cli
from permshape.experiments import read_records_csv, run_trial
from permshape.samplers import RegimeSpec


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestShape:
    def test_worked_example(self, capsys):
        code, out, _ = run_cli(capsys, "shape", "--perm", "5 3 2 1 4 6")
        assert code == 0 and out.strip() == "3,1,1,1"

    def test_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("2 1\n1 2 3\n"))
        code, out, _ = run_cli(capsys, "shape")
        assert code == 0 and out.splitlines() == ["1,1", "3"]

    def test_bad_word(self, capsys):
        code, _, err = run_cli(capsys, "shape", "--perm", "1 1")
        assert code == 1 and "error" in err

    @pytest.mark.parametrize("word", ["1000000000000000", "-3 1 2"])
    def test_out_of_range_letters(self, capsys, word):
        # rejected before counting, so a huge letter allocates nothing
        code, out, err = run_cli(capsys, "shape", "--perm", word)
        assert (code, out) == (1, "")
        assert err == "error: word is not a bijection of {1..n}\n"


class TestProfile:
    def test_durfee_row_present(self, capsys):
        code, out, _ = run_cli(capsys, "profile", "--diagram", "7,5,2,1,1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "t,L"
        assert "0,4" in lines

    def test_scaled(self, capsys):
        code, out, _ = run_cli(capsys, "profile", "--diagram", "2,1,1", "--n", "4", "--m", "0")
        assert code == 0
        assert out.splitlines()[0] == "s,F,Phi"


class TestDistance:
    def test_theorem_mode(self, capsys):
        code, out, _ = run_cli(capsys, "distance", "--diagram", "1", "--n", "1", "--m", "0")
        assert code == 0
        assert float(out.strip()) == pytest.approx(0.3633802276324186)

    def test_pair_mode(self, capsys):
        code, out, _ = run_cli(capsys, "distance", "--diagram", "1", "--other", "")
        assert code == 0
        dist, bound = map(float, out.split())
        assert dist == pytest.approx(2**0.5) and bound == pytest.approx(2**0.5)

    def test_needs_n_or_other(self, capsys):
        code, _, err = run_cli(capsys, "distance", "--diagram", "1")
        assert code == 1 and "error" in err


class TestSample:
    def test_deterministic(self, capsys):
        code1, out1, _ = run_cli(capsys, "sample", "--n", "6", "--seed", "3", "--count", "4")
        code2, out2, _ = run_cli(capsys, "sample", "--n", "6", "--seed", "3", "--count", "4")
        assert code1 == code2 == 0 and out1 == out2
        assert len(out1.splitlines()) == 4

    def test_seed_printed_when_missing(self, capsys):
        code, out, err = run_cli(capsys, "sample", "--n", "3")
        assert code == 0
        assert err.startswith("# seed ")

    def test_regime_flags(self, capsys):
        code, out, _ = run_cli(
            capsys, "sample", "--n", "4", "--seed", "0",
            "--ensemble", "uniform_in_cycle_type", "--cycle-type", "2,2",
        )
        assert code == 0

    @pytest.mark.parametrize("flags", [
        ["--fix-rule", "power", "--beta", "0.5", "--c", "1e308"],
        ["--fix-rule", "theta_log", "--theta", "1e308"],
    ])
    def test_an_infinite_fixed_point_target_plants_every_point(self, capsys, flags):
        code, out, err = run_cli(capsys, "sample", "--n", "100", "--seed", "1",
                                 "--ensemble", "composite", "--core", "n_cycle", *flags)
        assert code == 0, err
        assert out.split() == [str(i) for i in range(1, 101)]

    @pytest.mark.parametrize("flags", [
        ["--core", "n_cycle", "--fix-rule", "linear"],
        ["--ensemble", "n_cycle", "--theta", "2"],
        ["--ensemble", "fpf_involution", "--cycle-type", "2,2"],
    ])
    def test_flags_the_ensemble_does_not_read(self, capsys, flags):
        code, out, err = run_cli(capsys, "sample", "--n", "4", "--seed", "0", *flags)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "does not read" in err

    @pytest.mark.parametrize("flags", [
        ["--fix-rule", "constant", "--c", "2", "--theta", "7"],
        ["--fix-rule", "theta_log", "--theta", "2", "--p", "0.5"],
        ["--fix-rule", "power", "--beta", "0.5", "--c", "2", "--p", "0.1"],
        ["--fix-rule", "linear", "--p", "0.5", "--c", "1"],
    ])
    def test_parameters_the_fix_rule_does_not_read(self, capsys, flags):
        code, out, err = run_cli(capsys, "sample", "--n", "4", "--seed", "1",
                                 "--ensemble", "composite", "--core", "n_cycle", *flags)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "does not read" in err

    def test_a_parameter_the_fix_rule_reads_left_out(self, capsys):
        # no default stands in for it: without --p this drew the bare core
        code, out, err = run_cli(capsys, "sample", "--n", "4", "--seed", "1", "--ensemble",
                                 "composite", "--core", "n_cycle", "--fix-rule", "linear")
        assert code == 1 and out == ""
        assert err == "error: ensemble composite with fix_rule linear needs p\n"

    @pytest.mark.parametrize("argv", [
        pytest.param(["sample", "--n", "4", "--ensemble", "nope"], id="unknown-choice"),
        pytest.param(["sample", "--n", "four"], id="non-integer"),
        pytest.param(["sample", "--seed", "1"], id="missing-required"),
    ])
    def test_usage_errors_exit_1(self, capsys, argv):
        # exit code 2 is kept for a failed verification suite
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    def test_pipe_matches_single_trial_measurement(self, capsys):
        # sample | shape must equal the experiment's own per-trial measurement
        code, out, _ = run_cli(capsys, "sample", "--n", "40", "--seed", "77", "--count", "2")
        assert code == 0
        shapes = []
        for word in out.splitlines():
            _, shape_out, _ = run_cli(capsys, "shape", "--perm", word)
            shapes.append(shape_out.strip())
        for trial, text in enumerate(shapes):
            rec = run_trial(RegimeSpec(ensemble="uniform"), 40, trial, 77,
                            ("ell", "lambda1", "lambda2"))
            parts = tuple(int(x) for x in text.split(","))
            assert parts[0] == rec.lambda1 and len(parts) == rec.ell


class TestExperiment:
    def test_end_to_end(self, capsys, tmp_path):
        out_dir = tmp_path / "run"
        code, out, _ = run_cli(
            capsys, "experiment", "--n", "20,40", "--trials", "2", "--seed", "5",
            "--out", str(out_dir), "--measurements", "ell,lambda1",
        )
        assert code == 0
        records = read_records_csv(out_dir / "records.csv")
        assert len(records) == 4
        doc = json.loads((out_dir / "summary.json").read_text())
        assert any(e["statistic"] == "ell" for e in doc["entries"])

    def test_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "ensemble = fpf_involution\nn_ladder = 10,20\ntrials = 2\nseed = 9\n"
            "measurements = ell\nout = " + str(tmp_path / "o") + "\n"
        )
        code, _, _ = run_cli(capsys, "experiment", "--config", str(cfg))
        assert code == 0
        assert (tmp_path / "o" / "records.csv").exists()

    def test_missing_n(self, capsys):
        code, _, err = run_cli(capsys, "experiment", "--seed", "1")
        assert code == 1 and "error" in err

    @pytest.mark.parametrize("config, flags", [
        pytest.param("ensemble = uniform\nn_ladder = 10\ntrails = 50\n", [], id="unknown-key"),
        pytest.param("ensemble = uniform\ntrials = 2\n", [], id="no-n_ladder"),
        pytest.param("ensemble = n_cycle\ncore = n_cycle\nn_ladder = 10\n", [], id="core"),
        pytest.param("ensemble = n_cycle\nn_ladder = 10\n", ["--fix-rule", "linear"],
                     id="fix_rule"),
        pytest.param("ensemble = fpf_involution\ntheta = 2\nn_ladder = 10\n", [], id="theta"),
        pytest.param("ensemble = uniform\ncycle_type = 2,2\nn_ladder = 4\n", [],
                     id="cycle_type"),
        pytest.param(None, ["--n", "4", "--ensemble", "composite", "--core", "n_cycle",
                            "--fix-rule", "constant", "--cycle-type", "2,2"],
                     id="cycle_type-composite"),
        pytest.param(None, ["--n", "10", "--measurements", "cycle_stats"], id="cycle_stats"),
        pytest.param(None, ["--n", "10", "--measurements", "ell,ell"], id="measurement-twice"),
        pytest.param(None, ["--n", "10", "--trials", "many"], id="bad-value"),
        pytest.param("n_ladder 10\n", [], id="no-equals"),
    ])
    def test_rejected_input(self, capsys, tmp_path, config, flags):
        argv = ["experiment", "--seed", "1", "--out", str(tmp_path / "o"), *flags]
        if config is not None:
            (tmp_path / "c.cfg").write_text(config)
            argv += ["--config", str(tmp_path / "c.cfg")]
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("config, flags, missing", [
        pytest.param("fix_rule = linear\n", [], "p", id="linear-without-p"),
        pytest.param("fix_rule = constant\n", [], "c", id="constant-without-c"),
        pytest.param("fix_rule = power\nc = 1\n", [], "beta", id="power-without-beta"),
        pytest.param(None, ["--fix-rule", "power", "--beta", "0.5"], "c", id="power-without-c"),
        pytest.param(None, ["--fix-rule", "theta_log"], "theta", id="theta_log-without-theta"),
    ])
    def test_a_parameter_the_fix_rule_reads_left_out(self, capsys, tmp_path, config, flags,
                                                      missing):
        argv = ["experiment", "--n", "10", "--seed", "1", "--out", str(tmp_path / "o"),
                "--ensemble", "composite", "--core", "n_cycle", *flags]
        if config is not None:
            (tmp_path / "c.cfg").write_text(config)
            argv += ["--config", str(tmp_path / "c.cfg")]
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ") and err.endswith(f" needs {missing}\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("parts", ["1,2", "0,3"])
    def test_cycle_type_rejected_before_the_first_rung(self, capsys, tmp_path, parts):
        code, out, err = run_cli(capsys, "experiment", "--ensemble", "uniform_in_cycle_type",
                                 "--cycle-type", parts, "--n", "3", "--seed", "1",
                                 "--out", str(tmp_path / "o"))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and len(err.splitlines()) == 1 and "cycle_type" in err
        assert list(tmp_path.iterdir()) == []

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "experiment", "--config", str(tmp_path / "none.cfg"))
        assert code == 1 and err.startswith("error: ")

    def test_config_and_flags_write_the_same_files(self, capsys, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("ensemble = composite\ncore = n_cycle\nfix_rule = theta_log\n"
                       "theta = 1.5\nn_ladder = 30,60\ntrials = 3\nseed = 8\n"
                       f"measurements = shape_distance,lambda2\nout = {tmp_path / 'a'}\n")
        code_a, out_a, _ = run_cli(capsys, "experiment", "--config", str(cfg))
        code_b, out_b, _ = run_cli(
            capsys, "experiment", "--ensemble", "composite", "--core", "n_cycle",
            "--fix-rule", "theta_log", "--theta", "1.5", "--n", "30,60", "--trials", "3",
            "--seed", "8", "--measurements", "shape_distance,lambda2",
            "--out", str(tmp_path / "b"),
        )
        assert code_a == code_b == 0
        assert out_a.replace(str(tmp_path / "a"), "") == out_b.replace(str(tmp_path / "b"), "")
        for name in ("records.csv", "summary.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_flag_overrides_config_ensemble(self, capsys, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"ensemble = uniform\nn_ladder = 12\ntrials = 5\nseed = 2\n"
                       f"measurements = ell\nout = {tmp_path / 'o'}\n")
        code, _, _ = run_cli(capsys, "experiment", "--config", str(cfg), "--ensemble", "n_cycle")
        assert code == 0
        records = read_records_csv(tmp_path / "o" / "records.csv")
        assert len(records) == 5 and all(r.num_cycles == 1 for r in records)

    def test_seed_printed_when_missing(self, capsys, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"n_ladder = 5\nout = {tmp_path / 'o'}\n")
        code, _, err = run_cli(capsys, "experiment", "--config", str(cfg))
        assert code == 0 and err.startswith("# seed ")


class TestVerify:
    def test_deterministic_report(self, capsys):
        args = ["verify", "--suite", "profile-bound", "--pairs", "60", "--seed", "7"]
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        assert json.loads(out1)["ok"] is True

    def test_convention_suite(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "convention", "--seed", "2")
        assert code == 0 and json.loads(out)["ok"] is True

    @pytest.mark.parametrize("suite, flag", [
        ("greene", "--draws"), ("greene", "--pairs"), ("convention", "--draws"),
        ("fixpoint", "--pairs"), ("profile-bound", "--draws"), ("samplers", "--pairs"),
    ])
    def test_size_flag_the_suite_does_not_take(self, capsys, suite, flag):
        code, out, err = run_cli(capsys, "verify", "--suite", suite, "--seed", "0", flag, "5")
        assert code == 1 and out == ""
        assert err.startswith("error: ") and flag in err

    def test_failure_exit_code(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_suite", lambda *a, **k: {"ok": False, "suite": "x"})
        code, out, _ = run_cli(capsys, "verify", "--suite", "greene", "--seed", "0")
        assert code == 2


@pytest.mark.parametrize("argv", [
    pytest.param(["verify", "--suite", "fixpoint", "--draws", "-3"],
                 id="fixpoint-draws"),
    pytest.param(["verify", "--suite", "profile-bound", "--pairs", "-1"],
                 id="profile-bound-pairs"),
    pytest.param(["verify", "--suite", "samplers", "--draws", "0"],
                 id="samplers-draws"),
    pytest.param(["sample", "--n", "4", "--count", "-2"], id="sample-count"),
    pytest.param(["sample", "--n", "-1", "--seed", "1"], id="sample-n-negative"),
    pytest.param(["experiment", "--n", "10", "--seed", "1", "--ensemble", "composite",
                  "--core", "fpf_involution", "--fix-rule", "constant", "--c", "0.5"],
                 id="constant-fractional-c"),
    pytest.param(["experiment", "--n", "10", "--workers", "-3"],
                 id="experiment-workers"),
    pytest.param(["profile", "--diagram", "2,1", "--n", "0"], id="profile-n-zero"),
    pytest.param(["profile", "--diagram", "3,1", "--n", "10"], id="profile-size-mismatch"),
    pytest.param(["profile", "--diagram", "2,1", "--m", "2"], id="profile-m-without-n"),
    pytest.param(["distance", "--diagram", "2,2", "--other", "2,2", "--n", "4", "--m", "1"],
                 id="distance-other-with-n"),
])
def test_bad_input_fails_loudly(capsys, tmp_path, monkeypatch, argv):
    # nothing is checked, drawn or written (no seed is drawn either), and one
    # error line says why
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


def fresh_python(code, **env):
    """stdout of ``code`` run in a fresh interpreter that imports permshape
    from this checkout, with ``env`` added to an environment that lacks
    OPENBLAS_NUM_THREADS: importing permshape set it in this process."""
    environ = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    environ.update(PYTHONPATH=str(Path(cli.__file__).parents[1]), **env)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=environ, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.special takes about 0.3 s to import; only the samplers suite and
    # uniform-involution draws need it. scipy.stats is never loaded.
    code = ("import sys, permshape.cli; "
            "print('scipy.stats' in sys.modules, 'scipy.special' in sys.modules)")
    assert fresh_python(code) == "False False"


def test_samplers_suite_loads_scipy_special_but_not_scipy_stats():
    # the chi-square critical values come from scipy.special.gammaincinv;
    # scipy.stats would add about 47 MB and 0.75 s to the process
    code = ("import contextlib, io, sys, permshape.cli as cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = cli.main(['verify', '--suite', 'samplers', '--draws', '10', '--seed', '2'])\n"
            "print(code, 'scipy.stats' in sys.modules, 'scipy.special' in sys.modules)")
    assert fresh_python(code) == "0 False True"


def test_cli_import_leaves_multiprocessing_unloaded():
    # concurrent.futures.process loads multiprocessing, about 30 ms of every
    # start-up; only run_experiment with workers > 1 needs it
    code = "import sys, permshape.cli; print('multiprocessing' in sys.modules)"
    assert fresh_python(code) == "False"


def test_cli_import_leaves_subprocess_unloaded():
    # only a kernel build on a cold cache runs the compiler
    code = "import sys, permshape.cli; print('subprocess' in sys.modules)"
    assert fresh_python(code) == "False"


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="no /proc/self/task")
def test_cli_import_starts_no_blas_thread():
    # permshape makes no BLAS call; an OpenBLAS pool thread would spin for
    # about 0.12 s of CPU at every start
    code = ("import os, permshape.cli; "
            "print(len(os.listdir('/proc/self/task')), os.environ.get('OPENBLAS_NUM_THREADS'))")
    assert fresh_python(code) == "1 1"


def test_cli_import_keeps_an_explicit_blas_thread_count():
    code = "import os, permshape.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert fresh_python(code, OPENBLAS_NUM_THREADS="2") == "2"


def test_repeated_calls_leave_no_cyclic_garbage(capsys):
    # a parser built per call left about 450 argparse objects in reference
    # cycles each time, which only a full collection frees
    import gc

    cli.main(["info"])
    gc.collect()
    gc.disable()
    try:
        for _ in range(3):
            assert cli.main(["info"]) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_info(capsys):
    code, out, _ = run_cli(capsys, "info")
    lines = dict(line.split(": ", 1) for line in out.splitlines())
    assert code == 0 and lines.keys() == {"backend", "library", "band_width"}
    assert lines["backend"] == _kernels.BACKEND
    if _kernels.BACKEND == "c":
        assert Path(lines["library"]).is_file() and int(lines["band_width"]) > 1


class TestKs:
    def test_files(self, capsys, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("1\n2\n")
        b.write_text("1.5\n2.5\n")
        code, out, _ = run_cli(capsys, "ks", "--a", str(a), "--b", str(b))
        assert code == 0 and float(out.strip()) == 0.5

    @pytest.mark.parametrize("text", ["1\nnan\n", "", "1 2\n3 4\n"],
                             ids=["nan", "empty", "two-columns"])
    @pytest.mark.parametrize("side", ["--a", "--b"])
    def test_bad_sample_fails_loudly(self, capsys, tmp_path, text, side):
        good, bad = tmp_path / "good.txt", tmp_path / "bad.txt"
        good.write_text("1\n2\n")
        bad.write_text(text)
        files = {"--a": good, "--b": good, side: bad}
        code, out, err = run_cli(capsys, "ks", "--a", str(files["--a"]), "--b", str(files["--b"]))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1
