"""CLI harness: subcommands, exit codes, manifests, reproducibility."""

import json
import math
import platform
import warnings
from pathlib import Path

import numpy as np
import pytest

import fhat
from fhat import montecarlo as mc
from fhat.cli import _count_text, main
from fhat.model import make_model, serialize_model, table1
from fhat.strategy import build_strategy, default_epsilon, empirical_rule, symmetric_setup
from oracles import reference_enumerate_exact


# a three-observation model in short decimals (lattice-keyed), with a
# zero column under experiment b
SHORT_DECIMAL_DOC = """\
hypotheses: [h0, h1, h2]
experiments: [a, b]
observations: [x, y, z]
prior: [0.5, 0.25, 0.25]
kernel:
  a:
    h0: [0.2, 0.3, 0.5]
    h1: [0.5, 0.3, 0.2]
    h2: [0.25, 0.25, 0.5]
  b:
    h0: [0.4, 0.6, 0.0]
    h1: [0.6, 0.4, 0.0]
    h2: [0.125, 0.875, 0.0]
"""

# (arguments after --model, printed text) of `fhat enumerate`: fixed and
# theory thresholds, the symmetric composite and a model file ("FILE",
# SHORT_DECIMAL_DOC)
ENUMERATE_TEXT = [
    pytest.param(
        "table1 --strategy das --reference 0 --horizon 60 --theta 3",
        "leaves: 1.152921504606847e+18\npsi[0]: 0.335733748\n"
        "phi[0]: 0.00751976859\ngamma: 0.00501317906\n",
        id="table1-das-60"),
    pytest.param(
        "table2 --strategy das-rs --reference 0 --horizon 60 --theta 3",
        "leaves: 1.152921504606847e+18\npsi[0]: 0.453595655\n"
        "phi[0]: 0.0135441962\ngamma: 0.00902946416\n",
        id="table2-das-rs-60"),
    pytest.param(
        "table1 --strategy symmetric --horizon 30",
        "leaves: 1073741824\npsi[0]: 0.676836457\nphi[0]: 0.152044787\n"
        "psi[1]: 0.716664483\nphi[1]: 0.0711917031\npsi[2]: 0.676836457\n"
        "phi[2]: 0.0705568089\ngamma: 0.1958622\n",
        id="table1-symmetric-30"),
    pytest.param(
        "FILE --strategy das --reference 0 --horizon 12 --theta 0.5",
        "leaves: 179264\npsi[h0]: 0.802923963\nphi[h0]: 0.164938677\n"
        "gamma: 0.0824693385\n",
        id="file-das-12"),
    pytest.param(
        "FILE --strategy chernoff-det --reference 1 --horizon 12 --theta 0.3",
        "leaves: 294122\npsi[h1]: 0.871359381\nphi[h1]: 0.0837027741\n"
        "gamma: 0.0627770806\n",
        id="file-chernoff-det-12"),
    pytest.param(
        "table1 --strategy das --reference 0 --horizon 200",
        "leaves: 1.60693804425899e+60\npsi[0]: 0.99999044\n"
        "phi[0]: 0.152966231\ngamma: 0.101977487\n",
        id="table1-das-200-theory"),
]

# (arguments after --model, printed text) of `fhat solve-game`, recorded
# when the duality gap was still recomputed from the stored mixtures
SOLVE_GAME_TEXT = [
    pytest.param(
        "table1 --reference 0",
        "model: table1\nreference: 0\nvalue: 0.0405465108 nats\n"
        "alpha_star: A=0.5 B=0.5\nbeta_star: 1=0.5 2=0.5\n"
        "payoff_matrix (experiments x alternates):\n"
        "  A: 0.0810930216 0\n  B: 0 0.0810930216\n"
        "duality_gap: 2.77555756e-17\n",
        id="table1-0"),
    pytest.param(
        "table2 --reference 0",
        "model: table2\nreference: 0\nvalue: 0.0561012718 nats\n"
        "alpha_star: A=0 B=0 C=0.5 D=0.5\nbeta_star: 1=0.5 2=0.5\n"
        "payoff_matrix (experiments x alternates):\n"
        "  A: 0.0810930216 0\n  B: 0 0.0810930216\n"
        "  C: 0.0778391784 0.0343633652\n  D: 0.0343633652 0.0778391784\n"
        "duality_gap: 4.85722573e-17\n",
        id="table2-0"),
    pytest.param(
        "table2 --reference 1",
        "model: table2\nreference: 1\nvalue: 0.0810930216 nats\n"
        "alpha_star: A=1 B=0 C=0 D=0\nbeta_star: 0=0.977027154 2=0.0229728463\n"
        "payoff_matrix (experiments x alternates):\n"
        "  A: 0.0810930216 0.0810930216\n  B: 0 0.0810930216\n"
        "  C: 0.0778391784 0.219477841\n  D: 0.0324100339 0.207151047\n"
        "duality_gap: 0\n",
        id="table2-1"),
    pytest.param(
        "table2 --reference 2",
        "model: table2\nreference: 2\nvalue: 0.0810930216 nats\n"
        "alpha_star: A=0 B=1 C=0 D=0\nbeta_star: 0=0.977027154 1=0.0229728463\n"
        "payoff_matrix (experiments x alternates):\n"
        "  A: 0 0.0810930216\n  B: 0.0810930216 0.0810930216\n"
        "  C: 0.0324100339 0.207151047\n  D: 0.0778391784 0.219477841\n"
        "duality_gap: 0\n",
        id="table2-2"),
]

# (arguments after --model, printed text) of `fhat bounds`: the binary
# closed-form strong bound, and no strong channel at a fixed epsilon
BOUNDS_TEXT = [
    pytest.param(
        "table1 --reference 0 --horizons 100:500:100 --nu 0.6",
        "N,epsilon,weak_rate,strong_abs,strong_db,asymptotic_rate\n"
        "100,0.05,0.0572731099,5.31073989,23.0642503,0.0405465108\n"
        "200,0.05,0.0499768238,8.14899564,35.3906384,0.0405465108\n"
        "300,0.0333333333,0.0467249917,10.9872514,47.7170265,0.0405465108\n"
        "400,0.025,0.0451407659,14.1131892,61.292802,0.0405465108\n"
        "500,0.02,0.0442031628,17.1745885,74.5882903,0.0405465108\n",
        id="table1-nu"),
    pytest.param(
        "table2 --reference 0 --horizons 10,100:500:200 --epsilon 0.1",
        "N,epsilon,weak_rate,strong_abs,strong_db,asymptotic_rate\n"
        "10,0.1,0.216367453,inf,inf,0.0561012718\n"
        "100,0.1,0.0777380171,inf,inf,0.0561012718\n"
        "300,0.1,0.06746917,inf,inf,0.0561012718\n"
        "500,0.1,0.0654154006,inf,inf,0.0561012718\n",
        id="table2-epsilon"),
]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolveGame:
    def test_table1_solution(self, capsys):
        code, out, _ = run(capsys, "solve-game", "--model", "table1",
                           "--reference", "0")
        assert code == 0
        assert "value: 0.0405465108" in out
        assert "A=0.5 B=0.5" in out
        assert "duality_gap" in out

    @pytest.mark.parametrize("argv,text", SOLVE_GAME_TEXT)
    def test_prints_the_recorded_text(self, capsys, argv, text):
        code, out, _ = run(capsys, "solve-game", "--model", *argv.split())
        assert code == 0 and out == text

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run(capsys, "solve-game", "--model", "/nope/missing.yaml",
                           "--reference", "0")
        assert code == 2 and "error" in err

    def test_reference_out_of_range_exits_2(self, capsys):
        code, _, err = run(capsys, "solve-game", "--model", "table1",
                           "--reference", "7")
        assert code == 2 and "out of range" in err

    def test_model_file_roundtrip(self, capsys, tmp_path):
        path = tmp_path / "m.yaml"
        path.write_text(serialize_model(table1()))
        code, out, _ = run(capsys, "solve-game", "--model", str(path),
                           "--reference", "0")
        assert code == 0 and "0.0405465108" in out

    def test_non_finite_model_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "nan.yaml"
        path.write_text(serialize_model(table1()).replace("0.6, 0.4]", ".nan, 0.4]", 1))
        code, _, err = run(capsys, "solve-game", "--model", str(path),
                           "--reference", "0")
        assert code == 2 and "non-finite probability at kernel" in err


class TestSimulate:
    def test_zero_trials_exits_2(self, capsys):
        code, _, err = run(capsys, "simulate", "--model", "table1",
                           "--strategy", "das", "--reference", "0",
                           "--horizon", "5", "--trials", "0")
        assert code == 2 and "trials" in err

    def test_missing_reference_exits_2(self, capsys):
        code, _, err = run(capsys, "simulate", "--model", "table1",
                           "--strategy", "das", "--horizon", "5")
        assert code == 2 and "reference" in err

    def test_theta_with_calibrate_exits_2(self, capsys):
        """A fixed threshold and a calibrated one exclude each other:
        the command names the clash rather than dropping --calibrate."""
        with pytest.raises(SystemExit) as info:
            main(["simulate", "--model", "table1", "--strategy", "das",
                  "--reference", "0", "--horizon", "5", "--trials", "100",
                  "--theta", "0.5", "--calibrate"])
        err = capsys.readouterr().err
        assert info.value.code == 2 and "--calibrate" in err and "--theta" in err

    def test_symmetric_on_indistinguishable_model_exits_2(self, capsys, tmp_path):
        doc = """
hypotheses: [a, b]
experiments: [u]
observations: ["0", "1"]
prior: [0.5, 0.5]
kernel:
  u:
    a: [0.5, 0.5]
    b: [0.5, 0.5]
"""
        path = tmp_path / "flat.yaml"
        path.write_text(doc)
        with pytest.warns(RuntimeWarning):
            code, _, err = run(capsys, "simulate", "--model", str(path),
                               "--strategy", "symmetric", "--horizon", "5",
                               "--trials", "10")
        assert code == 2 and "distinguishable" in err

    def test_writes_csv_and_manifest(self, capsys, tmp_path):
        out_path = tmp_path / "row.csv"
        code, _, _ = run(capsys, "simulate", "--model", "table1",
                         "--strategy", "das", "--reference", "0",
                         "--horizon", "10", "--trials", "500",
                         "--seed", "3", "--calibrate",
                         "--output", str(out_path))
        assert code == 0
        lines = out_path.read_text().strip().split("\n")
        assert lines[0].startswith("strategy,N,epsilon,theta,psi_hat")
        assert len(lines) == 2
        manifest = json.loads((tmp_path / "row.csv.manifest.json").read_text())
        assert manifest["subcommand"] == "simulate" and manifest["seed"] == 3

    def test_output_replaces_longer_file(self, capsys, tmp_path):
        """An existing output file and manifest longer than the new ones
        are replaced whole: the CSV equals one written to a fresh path,
        and the manifest parses with nothing left over."""
        fresh, reused = tmp_path / "fresh.csv", tmp_path / "reused.csv"
        manifest = tmp_path / "reused.csv.manifest.json"
        for path in (reused, manifest):
            path.write_text("x" * 5000 + "\n")
        argv = ["simulate", "--model", "table1", "--strategy", "das",
                "--reference", "0", "--horizon", "6", "--trials", "200",
                "--seed", "3"]
        for path in (fresh, reused):
            assert run(capsys, *argv, "--output", str(path))[0] == 0
        assert reused.read_text() == fresh.read_text()
        assert json.loads(manifest.read_text())["output"] == "reused.csv"

    @pytest.mark.filterwarnings("ignore:symmetric at N")
    def test_symmetric_rows_per_hypothesis(self, capsys):
        code, out, _ = run(capsys, "simulate", "--model", "table1",
                           "--strategy", "symmetric", "--horizon", "10",
                           "--trials", "200", "--seed", "1")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 4   # header + one row per hypothesis

    def test_symmetric_short_of_the_hit_constraint_warns(self, capsys):
        """On table1 the composite's psi_hat is below 1 - eps by more than
        3 SE at N = 100 and not at 200: simulate warns at 100 alone, the
        warning naming the CLI line that calls estimate(), and its CSV
        equals the same run with warnings silenced."""
        argv = ("simulate", "--model", "table1", "--strategy", "symmetric",
                "--trials", "9000", "--seed", "7", "--horizon")
        with pytest.warns(RuntimeWarning, match="symmetric at N") as record:
            code, loud, _ = run(capsys, *argv, "100")
        assert code == 0
        (warned,) = [w for w in record if str(w.message).startswith("symmetric at N")]
        assert str(warned.message).startswith("symmetric at N = 100:")
        assert Path(warned.filename) == Path(fhat.cli.__file__)
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            assert run(capsys, *argv, "200")[0] == 0
        assert not [w for w in record if str(w.message).startswith("symmetric at N")]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code, quiet, _ = run(capsys, *argv, "100")
        assert code == 0 and quiet == loud


class TestSweep:
    def test_empty_strategies_exits_2(self, capsys):
        code, _, err = run(capsys, "sweep", "--model", "table1",
                           "--strategies", "", "--horizons", "5")
        assert code == 2 and "strategies" in err

    def test_strategies_naming_none_exits_2(self, capsys):
        """A strategy list of separators alone names no strategy, as an
        empty one does, and writes no header-only CSV."""
        code, out, err = run(capsys, "sweep", "--model", "table1",
                             "--strategies", ",", "--horizons", "5")
        assert code == 2 and out == "" and "strategies" in err

    @pytest.mark.parametrize("argv,message", [
        (("--trials", "0"), "trials must be >= 1"),
        (("--trials", "100", "--strong", "binary"),
         "the binary closed-form strong bound needs nu"),
    ], ids=["zero-trials", "binary-without-nu"])
    def test_refused_sweep_exits_2(self, capsys, argv, message):
        code, out, err = run(capsys, "sweep", "--model", "table1", "--strategies",
                             "das", "--horizons", "10", *argv)
        assert code == 2 and out == "" and message in err

    def test_unknown_strategy_exits_2(self, capsys):
        code, _, err = run(capsys, "sweep", "--model", "table1",
                           "--strategies", "das,bogus", "--horizons", "5")
        assert code == 2 and "bogus" in err

    def test_row_count(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, "sweep", "--model", "table1",
                         "--strategies", "ors,das", "--reference", "0",
                         "--horizons", "4:8:4", "--trials", "300",
                         "--seed", "5", "--output", str(out_path))
        assert code == 0
        lines = out_path.read_text().strip().split("\n")
        assert len(lines) == 1 + 2 * 2

    def test_workers_default_read_at_call_time(self, capsys, monkeypatch):
        """The parser is built once per process, yet each call takes
        FHAT_WORKERS as set at that call; --workers still overrides it."""
        seen = []
        monkeypatch.setattr(mc, "sweep",
                            lambda *a, **k: seen.append(k["workers"]) or [])
        for env, flags in (("3", ()), ("0", ()), ("3", ("--workers", "1"))):
            monkeypatch.setenv("FHAT_WORKERS", env)
            code, _, _ = run(capsys, "sweep", "--model", "table1",
                             "--strategies", "das", "--horizons", "5", *flags)
            assert code == 0
        assert seen == [3, 0, 1]

    def test_unreadable_workers_variable_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("FHAT_WORKERS", "abc")
        code, _, err = run(capsys, "sweep", "--model", "table1",
                           "--strategies", "das", "--horizons", "5")
        assert code == 2 and "FHAT_WORKERS" in err and "'abc'" in err

    def test_negative_workers_exits_2(self, capsys):
        code, _, err = run(capsys, "sweep", "--model", "table1",
                           "--strategies", "das", "--horizons", "5",
                           "--trials", "100", "--workers", "-3")
        assert code == 2 and "worker count" in err and "-3" in err

    def test_manifest_rerun_reproduces_csv(self, capsys, tmp_path):
        """Byte-for-byte reproduction from the manifest at a different
        worker count, also of a symmetric sweep with a non-default inner
        rule and epsilon."""
        cases = [(["--strategies", "das", "--reference", "0", "--horizons", "6,12",
                   "--seed", "17", "--workers", "1"], "8"),
                 (["--strategies", "symmetric", "--inner", "ors",
                   "--horizons", "120,200", "--epsilon", "0.1"], "2")]
        for n, (flags, workers) in enumerate(cases):
            a, b = tmp_path / f"a{n}.csv", tmp_path / f"b{n}.csv"
            code, _, err = run(capsys, "sweep", "--model", "table1", *flags,
                               "--trials", "2000", "--output", str(a))
            assert code == 0 and err == ""
            code, _, _ = run(capsys, "sweep",
                             "--manifest", str(a) + ".manifest.json",
                             "--workers", workers, "--output", str(b))
            assert code == 0
            assert a.read_bytes() == b.read_bytes()

    def test_manifest_from_other_version_warns(self, capsys, tmp_path):
        """A manifest written by another version still replays, with a
        one-line warning that the CSV may differ from the original."""
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        code, _, err = run(capsys, "sweep", "--model", "table1",
                           "--strategies", "ors", "--reference", "0",
                           "--horizons", "6", "--trials", "300",
                           "--seed", "4", "--output", str(a))
        assert code == 0 and err == ""
        path = tmp_path / "a.csv.manifest.json"
        manifest = json.loads(path.read_text())
        manifest["version"] = "0.2.0"
        path.write_text(json.dumps(manifest))
        code, _, err = run(capsys, "sweep", "--manifest", str(path),
                           "--output", str(b))
        assert code == 0 and a.read_bytes() == b.read_bytes()
        lines = err.strip().split("\n")
        assert len(lines) == 1 and "warning" in lines[0]
        assert "0.2.0" in lines[0] and "may differ" in lines[0]

    @staticmethod
    def manifest_sweep(capsys, tmp_path):
        """A small sweep's CSV bytes and its manifest, as a dict."""
        a = tmp_path / "a.csv"
        code, _, _ = run(capsys, "sweep", "--model", "table1",
                         "--strategies", "das", "--reference", "0",
                         "--horizons", "6", "--trials", "300",
                         "--seed", "4", "--output", str(a))
        assert code == 0
        path = tmp_path / "a.csv.manifest.json"
        return a.read_bytes(), json.loads(path.read_text())

    def test_manifest_flags_parse_as_on_the_command_line(self, capsys, tmp_path):
        """Manifest flags are read as the command line reads them: a
        number written as a string, or a horizon list as one number,
        replays the same sweep."""
        csv, manifest = self.manifest_sweep(capsys, tmp_path)
        manifest["flags"].update(trials="300", horizons=6)
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(manifest))
        b = tmp_path / "b.csv"
        code, _, _ = run(capsys, "sweep", "--manifest", str(path),
                         "--output", str(b))
        assert code == 0 and b.read_bytes() == csv

    @pytest.mark.parametrize("flags", [{"bogus": 1}, {"trials": 1.5},
                                       {"reference": [0]}, {"inner": "x"}],
                             ids=["unknown", "float-trials", "list", "choice"])
    def test_manifest_flag_the_parser_refuses_exits_2(self, capsys, tmp_path, flags):
        """A manifest flag that the sweep parser would refuse on the
        command line (an unknown name, a bad type or choice) exits 2
        with the parser's message, before any run."""
        _, manifest = self.manifest_sweep(capsys, tmp_path)
        manifest["flags"].update(flags)
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(manifest))
        with pytest.raises(SystemExit) as info:
            main(["sweep", "--manifest", str(path)])
        captured = capsys.readouterr()
        assert info.value.code == 2 and captured.out == ""
        assert "error: " in captured.err and next(iter(flags)) in captured.err

    def test_manifest_model_is_a_name_or_path(self, capsys, tmp_path, monkeypatch):
        """A model recorded as a number is read as the command line
        reads it, a file name, and never as a file descriptor."""
        _, manifest = self.manifest_sweep(capsys, tmp_path)
        manifest["flags"]["model"] = 1000000
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(manifest))
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "sweep", "--manifest", str(path))
        assert code == 2 and out == ""
        assert "No such file" in err and "1000000" in err

    def test_malformed_manifest_exits_2(self, capsys, tmp_path):
        """A manifest that is not an object, or lacks its flags or its
        seed, exits 2 with an error that names the problem."""
        path = tmp_path / "bad.json"
        good = {"subcommand": "sweep", "flags": {}, "seed": 4}
        cases = [([good], "not a sweep manifest"),
                 ({k: v for k, v in good.items() if k != "flags"}, "no flags"),
                 ({**good, "flags": ["das"]}, "no flags"),
                 ({k: v for k, v in good.items() if k != "seed"}, "no seed")]
        for doc, message in cases:
            path.write_text(json.dumps(doc))
            code, out, err = run(capsys, "sweep", "--manifest", str(path))
            assert code == 2 and out == "", doc
            assert err.startswith("fhat: error:") and message in err, (doc, err)


def csv_rows(text):
    header, *lines = text.strip().split("\n")
    return [dict(zip(header.split(","), line.split(","))) for line in lines]


class TestCrossPath:
    """`simulate` and `sweep` evaluate a cell with the same streams, so at
    the same seed, trials and N their rows agree column by column."""

    @pytest.mark.parametrize("model,kind", [("table1", "das"),
                                            ("table2", "chernoff-det"),
                                            ("table2", "ors")])
    def test_calibrated_simulate_row_is_sweep_row(self, capsys, model, kind):
        common = ("--model", model, "--reference", "0", "--trials", "3000",
                  "--seed", "11")
        code, sim, _ = run(capsys, "simulate", *common, "--strategy", kind,
                           "--horizon", "30", "--calibrate")
        assert code == 0
        code, swp, _ = run(capsys, "sweep", *common, "--strategies", kind,
                           "--horizons", "30")
        assert code == 0
        (a,), (b,) = csv_rows(sim), csv_rows(swp)
        # gamma_hat: the plain mixture channel against the log-sum-exp one
        assert a.pop("gamma_hat") != b.pop("gamma_hat")
        assert a == b

    @pytest.mark.filterwarnings("ignore:symmetric at N")
    def test_symmetric_sweep_row_summarizes_simulate_rows(self, capsys):
        """Also for a row taken from a shared run: 10 shares the run to 30."""
        common = ("--model", "table1", "--trials", "3000", "--seed", "11")
        for horizon, horizons in (("30", "30"), ("10", "10,30")):
            code, sim, _ = run(capsys, "simulate", *common, "--strategy",
                               "symmetric", "--horizon", horizon)
            assert code == 0
            code, swp, _ = run(capsys, "sweep", *common, "--strategies",
                               "symmetric", "--horizons", horizons)
            assert code == 0
            rows = csv_rows(sim)
            (row,) = [r for r in csv_rows(swp) if r["N"] == horizon]
            assert len(rows) == 3
            for col, pick in (("theta", min), ("psi_hat", min), ("psi_se", max)):
                assert float(row[col]) == pick(float(r[col]) for r in rows)
            assert {r["gamma_hat"] for r in rows} == {row["gamma_hat"]}


@pytest.mark.parametrize("argv", [
    ("sweep", "--strategies", "das", "--horizons", "0"),
    ("bounds", "--reference", "0", "--horizons", "0"),
    ("bounds", "--reference", "0", "--horizons", "0", "--epsilon", "0.05"),
    ("simulate", "--strategy", "das", "--reference", "0", "--horizon", "0"),
    ("enumerate", "--strategy", "das", "--reference", "0", "--horizon", "0"),
])
def test_horizon_zero_exits_2(capsys, argv):
    code, _, err = run(capsys, *argv, "--model", "table1")
    assert code == 2 and err.startswith("fhat: error:") and "horizon" in err


@pytest.mark.parametrize("argv", [
    ("simulate", "--strategy", "das", "--reference", "0", "--horizon", "10",
     "--trials", "100", "--theta", "nan"),
    ("enumerate", "--strategy", "das", "--reference", "0", "--horizon", "4",
     "--theta", "nan"),
])
def test_nan_threshold_exits_2(capsys, argv):
    code, _, err = run(capsys, *argv, "--model", "table1")
    assert code == 2 and "NaN" in err


@pytest.mark.parametrize("argv", [
    ("sweep", "--strategies", "das", "--trials", "100"),
    ("bounds", "--reference", "0"),
])
def test_empty_horizon_list_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv, "--model", "table1", "--horizons", ",")
    assert code == 2 and out == "" and "names no horizon" in err


@pytest.mark.parametrize("argv", [
    ("simulate", "--reference", "0"),
    ("simulate", "--theta", "1.5"),
    ("simulate", "--calibrate"),
    ("enumerate", "--reference", "0"),
    ("enumerate", "--theta", "1.5"),
])
def test_symmetric_refuses_asymmetric_flags(capsys, argv):
    """The symmetric composite thresholds every hypothesis by its own
    rule; a flag it would ignore exits 2 and is named."""
    code, _, err = run(capsys, *argv, "--model", "table1", "--strategy",
                       "symmetric", "--horizon", "4")
    assert code == 2 and argv[1] in err and "symmetric" in err


@pytest.mark.parametrize("argv", [
    ("simulate", "--strategy", "das", "--reference", "0", "--horizon", "20",
     "--trials", "100"),
    ("sweep", "--strategies", "das", "--horizons", "20", "--trials", "100"),
    ("enumerate", "--strategy", "das", "--reference", "0", "--horizon", "3"),
])
def test_unknown_inner_kind_exits_2(capsys, argv):
    """--inner must name an inner kind even where the strategy does not
    read it."""
    with pytest.raises(SystemExit) as info:
        main([*argv, "--model", "table1", "--inner", "bogus"])
    assert info.value.code == 2 and "--inner" in capsys.readouterr().err


def test_package_version_matches_pyproject():
    """The manifest's version and the packaged one cannot drift."""
    tomllib = pytest.importorskip("tomllib")     # Python 3.11+
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == fhat.__version__


class TestBoundsAndEnumerate:
    def test_bounds_table(self, capsys):
        code, out, _ = run(capsys, "bounds", "--model", "table1",
                           "--reference", "0", "--horizons", "100,200",
                           "--nu", "0.6")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("N,epsilon,weak_rate")
        assert len(lines) == 3
        asym = float(lines[1].split(",")[-1])
        np.testing.assert_allclose(asym, 0.1 * math.log(1.5), atol=1e-9)

    @pytest.mark.parametrize("argv,text", BOUNDS_TEXT)
    def test_bounds_prints_the_recorded_text(self, capsys, argv, text):
        """The whole bounds table is the same text as recorded."""
        code, out, _ = run(capsys, "bounds", "--model", *argv.split())
        assert code == 0 and out == text

    def test_horizons_mix_values_and_ranges(self, capsys):
        """Each comma item is a horizon or an inclusive range; a bad
        range is named in the error."""
        code, out, _ = run(capsys, "bounds", "--model", "table1",
                           "--reference", "0", "--horizons", "10,49,50,100:500:100")
        assert code == 0
        assert [int(line.split(",")[0]) for line in out.strip().split("\n")[1:]] == \
            [10, 49, 50, 100, 200, 300, 400, 500]
        for bad in ("10,5:3", "10,1:2:3:4", "10,4:8:0"):
            code, _, err = run(capsys, "bounds", "--model", "table1",
                               "--reference", "0", "--horizons", bad)
            assert code == 2
            assert f"bad horizon range {bad.split(',')[1]!r}" in err

    def test_enumerate_exact_values(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--model", "table1",
                           "--strategy", "das", "--reference", "0",
                           "--horizon", "4", "--theta", "0.45")
        # Hand check (uniform prior, increment ln(2 L0 / (L1 + L2))): every
        # observation gives L1 * L2 a factor 0.24, and a path with a "1" has
        # L0 <= 0.6^3 * 0.4, so its increment is at most ln 1.5 < 0.45 and
        # only the all-zeros path declares 0; psi = 0.6^4.  At N = 4 the
        # tilt clamps to 1 and das maximizes the belief-weighted divergence:
        # the all-zeros path probes A, B, A, B (increment ln 2.25), so
        # phi = 0.4^2 * 0.6^2 = 0.0576 under either alternate.
        assert code == 0
        assert "psi[0]: 0.1296" in out
        assert "phi[0]: 0.0576" in out

    def test_enumerate_prints_float_leaves_past_2_to_the_53(self, capsys):
        """Below 2**53 paths the count is exact and prints as an integer;
        past it the count is a float sum and prints in float form."""
        code, out, _ = run(capsys, "enumerate", "--model", "table1",
                           "--strategy", "das", "--reference", "0",
                           "--horizon", "10", "--theta", "3")
        assert code == 0 and "leaves: 1024\n" in out
        code, out, _ = run(capsys, "enumerate", "--model", "table1",
                           "--strategy", "das", "--reference", "0",
                           "--horizon", "100", "--theta", "3")
        assert code == 0
        (text,) = [line.split(": ")[1] for line in out.splitlines()
                   if line.startswith("leaves: ")]
        assert text == repr(float(text)) and "e+30" in text
        assert float(text) == pytest.approx(2.0 ** 100, rel=1e-12)
        # past float range: 17 significant digits
        assert _count_text(1 << 1100) == "1.3582985290493858e+331"

    @pytest.mark.parametrize("argv,text", ENUMERATE_TEXT)
    def test_enumerate_prints_the_recorded_text(self, capsys, tmp_path, argv, text):
        """The whole printed report is the same text as recorded, so the
        exact evaluator keeps its bytes across changes to it."""
        path = tmp_path / "short-decimal.yaml"
        path.write_text(SHORT_DECIMAL_DOC)
        code, out, _ = run(capsys, "enumerate", "--model",
                           *argv.replace("FILE", str(path)).split())
        assert code == 0 and out == text

    def test_enumerate_symmetric(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--model", "table1",
                           "--strategy", "symmetric", "--horizon", "4")
        assert code == 0
        assert "gamma:" in out

    @pytest.mark.parametrize("argv", [
        ("--strategy", "symmetric", "--inner", "ors"),
        ("--strategy", "ors", "--reference", "0", "--theta", "0.5"),
    ], ids=["symmetric-inner-ors", "ors"])
    def test_enumerate_randomized_strategies(self, capsys, argv):
        """The rules that sample print exact values: those of the
        oracle that weighs each pick by alpha, to the printed digits."""
        code, out, _ = run(capsys, "enumerate", "--model", "table1",
                           "--horizon", "6", *argv)
        assert code == 0
        printed = dict(line.split(": ") for line in out.splitlines())
        model = table1()
        if argv[1] == "symmetric":
            spec, rule = symmetric_setup(model, 6, default_epsilon(6), "ors")
        else:
            spec = build_strategy(model, "ors", 6, reference=0)
            rule = empirical_rule(0, 0.5, default_epsilon(6))
        psi, phi, gamma, leaves = reference_enumerate_exact(model, spec, rule, 6)
        want = {"leaves": leaves, "gamma": gamma,
                **{f"psi[{i}]": p for i, p in psi.items()},
                **{f"phi[{i}]": p for i, p in phi.items()}}
        assert printed.keys() == want.keys()
        for name, value in want.items():
            assert math.isclose(float(printed[name]), value, rel_tol=1e-8), name

    def test_manifest_records_stream_versions_and_every_flag(self, capsys,
                                                             tmp_path):
        """The manifest names the random stream's generator and the tool,
        numpy and python versions, and its flags are every option that
        shapes the output, --inner and --epsilon included."""
        path = tmp_path / "sym.txt"
        code, _, _ = run(capsys, "enumerate", "--model", "table1",
                         "--strategy", "symmetric", "--horizon", "4",
                         "--inner", "chernoff-det", "--epsilon", "0.1",
                         "--output", str(path))
        assert code == 0
        manifest = json.loads((tmp_path / "sym.txt.manifest.json").read_text())
        assert manifest["version"] == fhat.__version__
        assert manifest["rng"] == "PCG64DXSM"
        assert manifest["numpy"] == np.__version__
        assert manifest["python"] == platform.python_version()
        assert manifest["subcommand"] == "enumerate" and manifest["seed"] is None
        assert manifest["flags"] == {
            "model": "table1", "strategy": "symmetric", "reference": None,
            "horizon": 4, "theta": None, "epsilon": 0.1,
            "inner": "chernoff-det"}

    def test_enumerate_above_cap_exits_2(self, capsys, tmp_path):
        """das on this four-symbol model spreads over enough experiments
        that its count states pass mc.ENUM_STATE_CAP within 17 steps."""
        kernel = np.random.default_rng(3).uniform(0.25, 1.0, (4, 5, 4))
        kernel /= kernel.sum(axis=2, keepdims=True)
        m = make_model([f"h{i}" for i in range(4)], [f"u{u}" for u in range(5)],
                       [f"y{y}" for y in range(4)], kernel, np.full(4, 0.25))
        path = tmp_path / "wide.yaml"
        path.write_text(serialize_model(m))
        code, _, err = run(capsys, "enumerate", "--model", str(path),
                           "--strategy", "das", "--reference", "0",
                           "--horizon", "20", "--theta", "0.5")
        assert code == 2 and "enumeration cap" in err
        assert err.rstrip().endswith(str(mc.ENUM_STATE_CAP))

    @pytest.mark.parametrize("argv", [
        ("sweep", "--model", "table1", "--reference", "1", "--nu", "0.6"),
        ("sweep", "--model", "table2", "--reference", "0", "--nu", "0.6"),
        ("sweep", "--model", "table1", "--reference", "0", "--nu", "0.7"),
        ("bounds", "--model", "table1", "--reference", "1", "--nu", "0.6"),
        ("bounds", "--model", "table2", "--reference", "0", "--nu", "0.6"),
        ("bounds", "--model", "table1", "--reference", "0", "--nu", "0.7"),
    ], ids=lambda argv: f"{argv[0]}-{argv[2]}-ref{argv[4]}-nu{argv[6]}")
    def test_binary_bound_off_its_family_exits_2(self, capsys, argv):
        """The closed-form strong bound holds for reference 0 of the
        two-sensor model with its own nu alone; elsewhere it is no bound,
        so the run exits 2 and points to the empirical channel."""
        extra = (("--strategies", "das", "--strong", "binary", "--trials", "100")
                 if argv[0] == "sweep" else ())
        code, out, err = run(capsys, *argv, "--horizons", "100", *extra)
        assert code == 2 and out == "" and "--strong empirical" in err

    def test_missing_model_flag_exits_2(self, capsys):
        code, _, err = run(capsys, "bounds", "--reference", "0")
        assert code == 2 and "--model is required" in err
