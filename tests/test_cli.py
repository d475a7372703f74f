import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import etchomo.cli
from etchomo import (
    Axis,
    BoundaryConfig,
    gen_center_ball,
    gen_channels,
    gen_random_balls,
    gen_smooth_problem,
    homogenize,
    read_vox,
    write_vox,
)
from etchomo.cli import build_parser, main

SPEC_FLAGS = [
    "--axis", "--p-in", "--p-out", "--rtol", "--max-iter", "--precond",
    "--omega", "--ref", "--precision", "--report", "--history", "--threads",
    "--config", "--n", "--kappa-inc", "--count", "--r-min", "--r-max",
    "--psi", "--periods", "--seed", "-o",
]


def collected_help() -> str:
    parser = build_parser()
    texts = [parser.format_help()]
    subactions = [
        a for a in parser._actions if a.__class__.__name__ == "_SubParsersAction"
    ]
    for action in subactions:
        for sub in action.choices.values():
            texts.append(sub.format_help())
    return "\n".join(texts)


def test_help_enumerates_every_flag():
    text = collected_help()
    for flag in SPEC_FLAGS:
        assert flag in text, f"{flag} missing from help output"


_SOLVER = {"axis", "p_in", "p_out", "rtol", "max_iter", "threads"}
_GENERATOR = {"config", "n", "kappa_inc", "count", "r_min", "r_max", "psi", "periods",
              "seed", "preset"}
SUBCOMMAND_DESTS = {
    "generate": _GENERATOR | {"output", "precision"},
    "solve": _SOLVER | {"input", "ref", "precision", "precond", "omega", "report", "history"},
    "convergence": _SOLVER | {"config", "n", "kappa_inc", "ref", "precision", "output"},
    "compare": _SOLVER | _GENERATOR | {"ref", "precision", "precond", "omega", "output"},
    "channels": _SOLVER | {"psi", "n", "periods", "precision", "output"},
    "precision": _SOLVER | _GENERATOR | {"ref", "output"},
    "bench": {"n", "precision", "threads"},
    "oracle": {"max_n"},
}


def test_each_subcommand_takes_exactly_its_pinned_flags():
    # a new flag must be read by its command and added here
    (subparsers,) = [a for a in build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
    dests = {name: {a.dest for a in sub._actions if a.dest != "help"}
             for name, sub in subparsers.choices.items()}
    assert dests == SUBCOMMAND_DESTS
    assert sum(map(len, dests.values())) == 91
    repeatable = {(name, a.dest) for name, sub in subparsers.choices.items()
                  for a in sub._actions if isinstance(a, argparse._AppendAction)}
    assert repeatable == {("convergence", "n"), ("channels", "psi"), ("compare", "precond"),
                          ("precision", "rtol")}


@pytest.mark.parametrize("command, flags", [
    ("convergence", ["--count", "5"]),
    ("convergence", ["--r-min", "0.1"]),
    ("convergence", ["--r-max", "0.2"]),
    ("convergence", ["--psi", "2"]),
    ("convergence", ["--periods", "4"]),
    ("convergence", ["--seed", "3"]),
    ("convergence", ["--preset", "b"]),
    ("channels", ["--ref", "one"]),
    ("precision", ["--precision", "f32"]),
])
def test_removed_flags_exit_2(tmp_path, capsys, command, flags):
    config = {"convergence": ["--config", "center-ball", "--n", "6"],
              "channels": ["--n", "8", "--periods", "1"],
              "precision": ["--config", "center-ball", "--n", "6"]}[command]
    out = tmp_path / "out"
    assert main([command, *config, *flags, "-o", str(out)]) == 2
    assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("config", ["random-balls", "channels"])
def test_convergence_takes_only_its_two_configs(tmp_path, capsys, config):
    out = tmp_path / "conv"
    assert main(["convergence", "--config", config, "-o", str(out)]) == 2
    assert "invalid choice" in capsys.readouterr().err
    assert not out.exists()


def test_convergence_passes_kappa_inc_to_center_ball_only(tmp_path, capsys, monkeypatch):
    # unset, it leaves the center-ball default to make_field; smooth refuses
    # it before any solve
    plans = []
    monkeypatch.setattr(etchomo.pipeline, "run_convergence_study",
                        lambda plan: plans.append(plan) or [])
    for extra in ([], ["--kappa-inc", "5"]):
        assert main(["convergence", "--config", "center-ball", "--n", "6", *extra,
                     "-o", str(tmp_path)]) == 0
    assert [plan.params for plan in plans] == [
        {"n_values": [6]}, {"n_values": [6], "kappa_inc": 5.0}
    ]
    monkeypatch.undo()

    def unreachable(*args, **kwargs):
        raise AssertionError("a solve started")

    monkeypatch.setattr(etchomo.pipeline, "solve_smooth", unreachable)
    out = tmp_path / "smooth"
    assert main(["convergence", "--config", "smooth", "--n", "6", "--kappa-inc", "5",
                 "-o", str(out)]) == 2
    assert "smooth generator takes no kappa_inc" in capsys.readouterr().err
    assert not out.exists()


def test_channels_psi_values_sharing_a_history_name_exit_2(tmp_path, capsys, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("a solve started")

    monkeypatch.setattr(etchomo.pipeline, "homogenize", unreachable)
    out = tmp_path / "chan"
    code = main(["channels", "--psi", "1", "--psi", "1.0000001", "--n", "8",
                 "--periods", "1", "-o", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "share a history file name" in err
    assert not out.exists()


def test_solve_happy_path(tmp_path):
    vox = tmp_path / "ball.vox"
    write_vox(gen_center_ball(8, 10.0), vox)
    report = tmp_path / "out.json"
    history = tmp_path / "hist.csv"
    code = main([
        "solve", str(vox), "--axis", "z", "--p-in", "1", "--p-out", "0",
        "--rtol", "1e-6", "--precond", "fct", "--ref", "opt",
        "--report", str(report), "--history", str(history),
    ])
    assert code == 0
    doc = json.loads(report.read_text())
    assert doc["converged"] is True
    assert doc["precond"] == "fct"
    assert 0.9 < doc["kappa_eff"] < 1.5
    lines = history.read_text().splitlines()
    assert lines[0] == "iter,relres"
    assert len(lines) == doc["iterations"] + 2


def test_solve_identical_runs_deterministic(tmp_path):
    vox = tmp_path / "ball.vox"
    write_vox(gen_center_ball(8, 0.1), vox)
    docs = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        assert main(["solve", str(vox), "--rtol", "1e-7", "--report", str(path)]) == 0
        doc = json.loads(path.read_text())
        doc.pop("prep_seconds")
        doc.pop("exec_seconds")
        docs.append(doc)
    assert docs[0] == docs[1]


def test_equal_potentials_exit_2(tmp_path, capsys):
    vox = tmp_path / "ball.vox"
    write_vox(gen_center_ball(4, 10.0), vox)
    code = main(["solve", str(vox), "--p-in", "1", "--p-out", "1"])
    assert code == 2
    assert "p_in" in capsys.readouterr().err


@pytest.mark.parametrize("rtol", ["1.5", "1", "nan"])
def test_rtol_outside_unit_interval_exit_2(tmp_path, capsys, rtol):
    vox = tmp_path / "ball.vox"
    write_vox(gen_center_ball(4, 10.0), vox)
    assert main(["solve", str(vox), "--rtol", rtol]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("etc: configuration error: rtol")


def test_unknown_flag_exit_2(capsys):
    assert main(["solve", "x.vox", "--frobnicate"]) == 2


def test_missing_input_exit_3(tmp_path, capsys):
    assert main(["solve", str(tmp_path / "nope.vox")]) == 3


def test_corrupt_file_exit_3(tmp_path, capsys):
    bad = tmp_path / "bad.vox"
    bad.write_bytes(b"garbage!" * 4)
    assert main(["solve", str(bad)]) == 3
    assert "format" in capsys.readouterr().err


def test_nonconvergence_exit_1(tmp_path):
    vox = tmp_path / "ball.vox"
    write_vox(gen_center_ball(8, 100.0), vox)
    report = tmp_path / "r.json"
    code = main([
        "solve", str(vox), "--precond", "none", "--max-iter", "2",
        "--rtol", "1e-12", "--report", str(report),
    ])
    assert code == 1
    assert json.loads(report.read_text())["converged"] is False


def test_pivot_failure_exit_1(tmp_path, capsys, monkeypatch):
    # constants that underflow to 0 in f32: the FCT set-up meets a zero pivot
    tiny = etchomo.ReferenceParams(*[1e-46] * 5)
    monkeypatch.setattr(etchomo.pipeline, "solve_reference_lp", lambda stats: tiny)
    vox = tmp_path / "ball.vox"
    write_vox(gen_center_ball(6, 10.0), vox)
    assert main(["solve", str(vox), "--rtol", "1e-6", "--precision", "f32"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("etc: solver breakdown: non-positive pivot")
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_import_does_not_load_scipy_fft():
    code = "import sys, etchomo, etchomo.cli; print('scipy.fft' in sys.modules)"
    src = str(Path(etchomo.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    ).stdout
    assert out.strip() == "False"


def test_generate_then_solve_round_trip(tmp_path):
    vox = tmp_path / "gen.vox"
    assert main([
        "generate", "--config", "random-balls", "--n", "8", "--count", "3",
        "--r-min", "0.1", "--r-max", "0.3", "--kappa-inc", "5", "--seed", "42",
        "-o", str(vox),
    ]) == 0
    report = tmp_path / "r.json"
    assert main(["solve", str(vox), "--rtol", "1e-6", "--report", str(report)]) == 0
    assert json.loads(report.read_text())["converged"] is True


def test_generate_channels_misaligned_exit_2(tmp_path, capsys):
    code = main([
        "generate", "--config", "channels", "--n", "12", "--periods", "2",
        "-o", str(tmp_path / "c.vox"),
    ])
    assert code == 2


def test_generate_negative_seed_exit_2(tmp_path, capsys):
    code = main([
        "generate", "--config", "random-balls", "--n", "8", "--preset", "a", "--seed", "-1",
        "-o", str(tmp_path / "neg.vox"),
    ])
    assert code == 2
    assert "configuration error: seed must lie in" in capsys.readouterr().err


@pytest.mark.parametrize("flags, want", [
    (["--config", "channels", "--psi", "400", "--periods", "1"],
     "psi must be below 308.25471555991675, where 10**psi overflows float64, got 400.0"),
    (["--config", "center-ball", "--n", "6", "--kappa-inc", "nan"], "kappa_inc must be positive"),
    (["--config", "random-balls", "--preset", "a", "--n", "6", "--kappa-inc", "inf"],
     "kappa_inc must be finite"),
])
def test_generate_bad_float_exit_2(tmp_path, capsys, flags, want):
    vox = tmp_path / "g.vox"
    assert main(["generate", *flags, "-o", str(vox)]) == 2
    assert capsys.readouterr().err == f"etc: configuration error: {want}\n"
    assert not vox.exists()


def _same_field(path, want):
    got = read_vox(path)
    assert got.grid == want.grid
    for comp in ("kx", "ky", "kz"):
        assert np.array_equal(getattr(got, comp), getattr(want, comp))


def test_generator_flags_beside_a_preset_override_it(tmp_path):
    base = ["generate", "--config", "random-balls", "--n", "8", "--preset", "a"]
    both, alone = tmp_path / "both.vox", tmp_path / "alone.vox"
    assert main([*base, "--count", "5", "--seed", "3", "--kappa-inc", "50", "-o", str(both)]) == 0
    assert main([*base, "-o", str(alone)]) == 0
    assert both.read_bytes() != alone.read_bytes()
    _same_field(both, gen_random_balls(8, 5, 0.05, 0.15, 50.0, 3))
    _same_field(alone, gen_random_balls(8, 40, 0.05, 0.15, 10.0, 11))


@pytest.mark.parametrize("flags, want", [
    (["--config", "center-ball", "--n", "6"], lambda: gen_center_ball(6, 10.0)),
    (["--config", "random-balls", "--n", "8", "--count", "3", "--r-min", "0.1", "--r-max", "0.2"],
     lambda: gen_random_balls(8, 3, 0.1, 0.2, 10.0, 0)),
    (["--config", "channels", "--periods", "1"], lambda: gen_channels(8, 1, 1.0)),
    (["--config", "smooth", "--n", "5"], lambda: gen_smooth_problem(5)[0]),
])
def test_unset_generator_flags_take_the_make_field_defaults(tmp_path, flags, want):
    vox = tmp_path / "g.vox"
    assert main(["generate", *flags, "-o", str(vox)]) == 0
    _same_field(vox, want())


@pytest.mark.parametrize("argv, generator, keys", [
    (["generate", "--config", "smooth", "--n", "8", "--kappa-inc", "50"], "smooth", "kappa_inc"),
    (["generate", "--config", "channels", "--n", "8", "--count", "3"], "channels", "count"),
    (["generate", "--config", "center-ball", "--n", "6", "--preset", "a"], "center-ball", "preset"),
    (["compare", "--config", "smooth", "--n", "8", "--kappa-inc", "100", "--psi", "3"],
     "smooth", "kappa_inc, psi"),
    (["precision", "--config", "center-ball", "--n", "6", "--seed", "3"], "center-ball", "seed"),
])
def test_generator_flag_that_the_config_does_not_read_exits_2(tmp_path, capsys, monkeypatch,
                                                              argv, generator, keys):
    def unreachable(*args, **kwargs):
        raise AssertionError("a solve started")

    monkeypatch.setattr(etchomo.pipeline, "homogenize", unreachable)
    out = tmp_path / "out"
    assert main([*argv, "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"etc: configuration error: the {generator} generator takes no {keys}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, match", [
    (["channels", "--psi", "1", "--psi", "-1", "--n", "8", "--periods", "1", "--rtol", "1e-5"],
     "psi must be positive"),
    (["channels", "--psi", "1", "--psi", "nan", "--n", "8", "--periods", "1", "--rtol", "1e-5"],
     "psi must be positive"),
    (["channels", "--psi", "1", "--psi", "inf", "--n", "8", "--periods", "1", "--rtol", "1e-5"],
     "psi must be finite"),
    (["convergence", "--config", "center-ball", "--n", "8", "--n", "1"], "center-ball needs n >= 2"),
    (["convergence", "--config", "smooth", "--n", "8", "--n", "1"], "smooth problem needs n >= 2"),
])
def test_bad_sweep_value_exits_2_before_any_solve(tmp_path, capsys, monkeypatch, argv, match):
    def unreachable(*args, **kwargs):
        raise AssertionError("a solve started")

    monkeypatch.setattr(etchomo.pipeline, "homogenize", unreachable)
    monkeypatch.setattr(etchomo.pipeline, "solve_smooth", unreachable)
    out = tmp_path / "out"
    assert main([*argv, "-o", str(out)]) == 2
    assert capsys.readouterr().err == f"etc: configuration error: {match}\n"
    assert not out.exists()


def test_solve_threads_do_not_change_the_result(tmp_path, capsys):
    vox = tmp_path / "ball.vox"
    write_vox(gen_center_ball(12, 10.0), vox)
    printed = []
    for threads in ("1", "2"):
        assert main(["solve", str(vox), "--rtol", "1e-8", "--threads", threads]) == 0
        printed.append(json.loads(capsys.readouterr().out))
    assert printed[0]["iterations"] == printed[1]["iterations"]
    assert printed[0]["kappa_eff"] == printed[1]["kappa_eff"]


def test_generate_f32(tmp_path):
    from etchomo import read_vox

    vox = tmp_path / "f32.vox"
    assert main([
        "generate", "--config", "center-ball", "--n", "6", "--kappa-inc", "2",
        "--precision", "f32", "-o", str(vox),
    ]) == 0
    assert read_vox(vox).dtype == np.float32


def test_convergence_command(tmp_path):
    out = tmp_path / "conv"
    code = main([
        "convergence", "--config", "smooth", "--n", "8", "--n", "16",
        "--rtol", "1e-8", "-o", str(out),
    ])
    assert code == 0
    assert (out / "convergence.csv").exists()


def test_compare_command(tmp_path):
    out = tmp_path / "cmp"
    voxdir = str(out)
    code = main([
        "compare", "--config", "center-ball", "--n", "8", "--kappa-inc", "20",
        "--rtol", "1e-6", "--precond", "fct", "--precond", "jacobi",
        "-o", voxdir,
    ])
    assert code == 0
    assert (out / "history_fct.csv").exists()
    assert (out / "history_jacobi.csv").exists()


def test_channels_command(tmp_path):
    out = tmp_path / "chan"
    code = main([
        "channels", "--psi", "1", "--n", "8", "--periods", "1",
        "--rtol", "1e-5", "-o", str(out),
    ])
    assert code == 0
    assert (out / "channels.csv").exists()


def test_channels_command_honours_axis(tmp_path):
    out = tmp_path / "chan"
    code = main([
        "channels", "--psi", "1", "--n", "8", "--periods", "1",
        "--rtol", "1e-5", "--axis", "x", "-o", str(out),
    ])
    assert code == 0
    first_row = (out / "channels.csv").read_text().splitlines()[1].split(",")
    want = homogenize(gen_channels(8, 1, 1.0), BoundaryConfig(Axis.X, 1, 0), 1e-5, "fct", "opt")
    assert first_row[1] == "'opt'"
    assert float(first_row[4]) == want.kappa_eff


def test_precision_command(tmp_path):
    out = tmp_path / "prec"
    code = main([
        "precision", "--config", "center-ball", "--n", "8", "--kappa-inc", "10",
        "--rtol", "1e-5", "--rtol", "1e-6", "-o", str(out),
    ])
    assert code == 0
    assert (out / "precision.csv").exists()


@pytest.mark.parametrize("tag", ["ssor1.5", "ssorfoo"])
def test_compare_malformed_ssor_tag_exit_2(tmp_path, capsys, tag):
    out = tmp_path / "cmp"
    code = main(["compare", "--config", "center-ball", "--n", "6", "--precond", tag,
                 "-o", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"unknown preconditioner tag {tag!r}" in err
    assert not out.exists()


@pytest.mark.parametrize("tags", [
    ["--precond", "fct", "--precond", "ssor:3"],
    ["--precond", "fct", "--precond", "ssor", "--omega", "2.5"],
])
def test_compare_bad_omega_exit_2_before_any_solve(tmp_path, capsys, tags):
    out = tmp_path / "cmp"
    code = main(["compare", "--config", "center-ball", "--n", "6", "--rtol", "1e-6",
                 *tags, "-o", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "omega must lie in (0, 2), got " in err
    assert not out.exists()


def test_compare_fct_runs_with_any_omega(tmp_path):
    out = tmp_path / "cmp"
    code = main(["compare", "--config", "center-ball", "--n", "6", "--rtol", "1e-6",
                 "--precond", "fct", "--omega", "2.5", "-o", str(out)])
    assert code == 0
    assert (out / "history_fct.csv").exists()


def test_solve_takes_ssor_omega_tags(tmp_path, capsys):
    vox = tmp_path / "ball.vox"
    write_vox(gen_center_ball(6, 10.0), vox)
    printed, tags = [], []
    for flags in (["--precond", "ssor:1.5"], ["--precond", "ssor", "--omega", "1.5"]):
        report = tmp_path / "r.json"
        assert main(["solve", str(vox), "--rtol", "1e-6", *flags, "--report", str(report)]) == 0
        printed.append(json.loads(capsys.readouterr().out))
        tags.append(json.loads(report.read_text())["precond"])
    assert printed[0] == printed[1]
    assert tags == ["ssor:1.5", "ssor:1.5"]


@pytest.mark.parametrize("tag", ["ilu", "ssor1.5", "ssor:fast", "ssor:3"])
def test_solve_bad_precond_tag_exit_2(tmp_path, capsys, tag):
    vox = tmp_path / "ball.vox"
    write_vox(gen_center_ball(4, 10.0), vox)
    assert main(["solve", str(vox), "--precond", tag]) == 2
    err = capsys.readouterr().err
    assert err.startswith("etc: configuration error: ") and err.count("\n") == 1
    want = "omega must lie in" if tag == "ssor:3" else f"unknown preconditioner tag {tag!r}"
    assert want in err


@pytest.mark.parametrize(
    "flags, want",
    [(["--precond", "bogus"], "unknown preconditioner tag 'bogus'"),
     (["--precond", "ssor:3"], "omega must lie in"),
     (["--rtol", "5"], "rtol must lie in")],
)
def test_solve_checks_settings_before_reading_input(tmp_path, capsys, monkeypatch, flags, want):
    def unreachable(path):
        raise AssertionError("read_vox ran before the settings were checked")

    monkeypatch.setattr(etchomo.cli, "read_vox", unreachable)
    assert main(["solve", str(tmp_path / "nothere.vox"), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("etc: configuration error: ") and err.count("\n") == 1
    assert want in err


def test_bench_command(capsys):
    assert main(["bench", "--n", "8"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n"] == 8 and doc["prep_seconds"] >= 0.0


def test_oracle_command(capsys):
    assert main(["oracle", "--max-n", "3"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 4 and "FAIL" not in out


@pytest.mark.parametrize("max_n", ["1", "17"])
def test_oracle_max_n_outside_dense_range_exit_2(capsys, max_n):
    assert main(["oracle", "--max-n", max_n]) == 2
    captured = capsys.readouterr()
    assert "max-n" in captured.err and captured.err.count("\n") == 1
    assert "PASS" not in captured.out


def _one_line_error(err: str) -> str:
    lines = err.splitlines()
    assert len(lines) == 1 and "Traceback" not in err, err
    return lines[0]


@pytest.mark.parametrize("argv", [
    ["generate", "--config", "center-ball", "--n", "8", "-o", "x.vox"],
    ["bench", "--n", "8"],
])
def test_out_of_memory_exit_2(tmp_path, capsys, monkeypatch, argv):
    # raised, not provoked: with memory overcommit a real huge request may be
    # granted and the process killed later
    def too_big(*args, **kwargs):
        raise MemoryError("Unable to allocate 74.5 GiB for an array")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(etchomo.pipeline, "make_field", too_big)
    monkeypatch.setattr(etchomo.pipeline, "gen_center_ball", too_big)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert _one_line_error(captured.err) == (
        "etc: out of memory: Unable to allocate 74.5 GiB for an array")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["generate", "--config", "center-ball", "--n", "0", "-o", "x.vox"],
    ["bench", "--n", "0"],
])
def test_zero_n_exit_2(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    err = capsys.readouterr().err
    # argparse prints its usage block, then the one error line
    *usage, last = err.splitlines()
    assert usage[0].startswith(f"usage: etc {argv[0]}") and "Traceback" not in err
    assert last == f"etc {argv[0]}: error: argument --n: expected a positive integer, got 0"
    assert list(tmp_path.iterdir()) == []


def test_threads_out_of_range_exit_2(tmp_path, capsys):
    # scipy refuses the worker count before any thread starts
    vox = tmp_path / "ball.vox"
    write_vox(gen_center_ball(4, 10.0), vox)
    threads = -(os.cpu_count() + 1)
    assert main(["solve", str(vox), "--threads", str(threads)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    line = _one_line_error(captured.err)
    assert line.startswith("etc: invalid configuration: workers value out of range")
