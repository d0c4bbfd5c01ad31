import argparse
import contextlib
import gc
import importlib
import io
import itertools
import math
import os
import re
import runpy
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import xxring
import xxring.blocks as blocks
import xxring.cli as cli
from xxring.blocks import reweight
from xxring.cli import main
from xxring.eigensolver import full_spectrum
from xxring.experiments import level_crossings, thermal_concurrence, threshold_temperature
from xxring.hamiltonian import ModelParams

from test_cli_golden import CORPUS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_spectrum_lists_sixteen_levels_with_degeneracies(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--n", "4", "--j", "1", "--b", "0.3")
    assert code == 0
    lines = out.strip().splitlines()
    total = sum(int(line.rsplit("x", 1)[1]) for line in lines)
    assert total == 16
    values = [float(line.rsplit("x", 1)[0]) for line in lines]
    s2 = 4.0 * math.sqrt(2.0)
    assert any(abs(v - s2) < 1e-9 for v in values)
    assert any(abs(v + s2) < 1e-9 for v in values)
    zero_line = [line for line in lines if abs(float(line.rsplit("x", 1)[0])) < 1e-9]
    assert zero_line and zero_line[0].strip().endswith("x4")


def test_thermal_zero_exchange_is_unentangled(capsys):
    code, out, _ = run_cli(capsys, "thermal", "--n", "4", "--j", "0", "--b", "1", "--t", "1")
    assert code == 0
    assert "concurrence = 0" in out


def test_thermal_prints_library_values(capsys):
    code, out, _ = run_cli(capsys, "thermal", "--n", "4", "--j", "1", "--b", "1", "--t", "1")
    assert code == 0
    spectrum = full_spectrum(ModelParams(n=4, j=1.0, b=1.0))
    obs = reweight(spectrum.ring, 1.0, 1.0, 1.0)
    printed = {}
    for line in out.strip().splitlines():
        key, _, value = line.partition("=")
        printed[key.strip()] = float(value)
    assert printed["U"] == pytest.approx(obs.u, rel=1e-11)
    assert printed["M"] == pytest.approx(obs.m, rel=1e-11)
    assert printed["Gxx"] == pytest.approx(obs.g_xx, rel=1e-11)
    assert printed["Gzz"] == pytest.approx(obs.g_zz, rel=1e-11)
    assert printed["Z_shifted"] == pytest.approx(obs.z_shifted, rel=1e-11)
    assert printed["concurrence"] == pytest.approx(thermal_concurrence(spectrum, 1.0), rel=1e-11)


def test_ground_reports_energy_concurrence_tangle(capsys):
    code, out, _ = run_cli(capsys, "ground", "--n", "4", "--j", "1", "--b", "0")
    assert code == 0
    assert f"ground energy = {-4 * math.sqrt(2.0):.10f}"[:20] in out
    assert "concurrence" in out and "tangle" in out
    tangle = float([ln for ln in out.splitlines() if ln.startswith("tangle")][0].split("=")[1])
    assert tangle == pytest.approx(1.0, abs=1e-10)


def test_ground_reports_degeneracy_at_crossing(capsys):
    b_cross = repr(2.0 * (math.sqrt(2.0) - 1.0))
    code, out, _ = run_cli(capsys, "ground", "--n", "4", "--j", "1", "--b", b_cross)
    assert code == 0
    assert "degenerate" in out


@pytest.mark.parametrize("b", ["0", "0.3", repr(2.0 * (math.sqrt(2.0) - 1.0))])
def test_thermal_at_minus_zero_prints_the_zero_temperature_state(capsys, b):
    outputs = [run_cli(capsys, "thermal", "--n", "4", "--j", "1", "--b", b, "--t", t) for t in ("0", "-0")]
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 0


def test_sweep_output_file_errors_exit_two(capsys, tmp_path):
    grid = ["--t-min", "1", "--t-max", "1", "--t-steps", "1", "--b-min", "0", "--b-max", "0", "--b-steps", "1"]
    for path in (tmp_path / "missing" / "x.csv", tmp_path):
        code, out, err = run_cli(capsys, "sweep", "--n", "4", "--j", "1", *grid, "--output", str(path))
        assert code == 2
        assert out == "" and err.startswith("error: ") and str(path) in err


def test_ground_odd_ring_skips_tangle(capsys):
    code, out, _ = run_cli(capsys, "ground", "--n", "5", "--j", "1", "--b", "1")
    assert code == 0
    assert "tangle" not in out


@pytest.mark.parametrize("argv,want", [
    (["thermal", "--n", "1", "--j", "1", "--b", "1", "--t", "1"], "concurrence = 0"),
    (["ground", "--n", "1", "--j", "1", "--b", "1"], "concurrence   = 0"),
    (["threshold", "--n", "1", "--j", "1", "--b", "1"], "none"),
    (["verify", "--n-list", "1,2", "--samples", "3"], "proposition 1: pass"),
], ids=["thermal", "ground", "threshold", "verify"])
def test_single_site_has_no_bond_in_every_command(capsys, argv, want):
    # a single site has no bond: its concurrence is 0 and every command succeeds
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert any(line == want or line.startswith(want + " ") for line in out.splitlines())


@pytest.mark.parametrize("j, want", [("1", "2.211351"), ("1e-5", "2.3e-05")])
def test_threshold_prints_digits_to_the_place_of_tol(capsys, j, want):
    # floor(log10 T_c) - floor(log10 tol) + 1 digits: 7 at T_c = 2.21 and the default
    # tol = 1e-6, 2 at T_c = 2.2e-5, where fixed decimals printed 0.0000. The last digit
    # is the final bracket's midpoint rounded, within tol of T_c: [2.2e-5, 2.3e-5] has
    # the midpoint 2.25e-5, so 2.3e-05
    code, out, err = run_cli(capsys, "threshold", "--n", "4", "--j", j, "--b", "0")
    assert code == 0, err
    assert out == want + "\n"
    fine = threshold_temperature(ModelParams(n=4, j=float(j), b=0.0), tol=1e-15)
    assert abs(float(want) - fine) <= 1e-6


def test_threshold_returns_for_tol_below_double_spacing():
    # near T_c = 2.21 adjacent doubles are 4.4e-16 apart, so the bracket can
    # never shrink to 1e-17; bisection must stop there instead of looping, and
    # so must it for a tol below ~1e-308, subnormal ones included
    env = {**os.environ, "PYTHONPATH": str(Path(xxring.__file__).parents[1])}
    for tol in ("1e-17", "1e-310", "5e-324"):
        result = subprocess.run([sys.executable, "-m", "xxring", "threshold", "--n", "4", "--j", "1",
                                 "--b", "0", "--tol", tol],
                                env=env, capture_output=True, text=True, timeout=30)
        assert result.returncode == 0, (tol, result.stderr)
        # 17 digits: the bisection ends on adjacent doubles whatever tol below their spacing
        assert result.stdout.strip() == "2.2113514789845423", tol


def test_threshold_none_for_zero_exchange(capsys):
    code, out, _ = run_cli(capsys, "threshold", "--n", "4", "--j", "0", "--b", "1")
    assert code == 0
    assert out.strip() == "none"


def test_threshold_refuses_a_ring_still_entangled_at_the_top_of_its_scan(capsys, monkeypatch):
    # no ring is entangled that high; a threshold below every concurrence makes each point so
    import xxring.experiments as experiments

    monkeypatch.setattr(experiments, "POSITIVE_CONCURRENCE", -1.0)
    code, out, err = run_cli(capsys, "threshold", "--n", "4", "--j", "1", "--b", "0")
    # the scan doubles from 0.05 past 1e3 * max(1, |j|, |b|)
    assert code == 2 and out == ""
    assert err == f"error: still entangled at the top of the scan range ({0.05 * 2 ** 15})\n"


@pytest.mark.parametrize("j, want", [("0.01", "0.022114"), ("1000", "2211.351479"), ("1e-310", "2e-310")])
def test_threshold_scan_scales_with_the_exchange(capsys, j, want):
    # T_c is 2.21135148 j at n = 4, b = 0; a scan fixed to [0.05, 1e3] saw
    # nothing at j = 0.01 and was still entangled at its top at j = 1000, and
    # a scan floored at the least normal double started above T_c at j = 1e-310
    code, out, err = run_cli(capsys, "threshold", "--n", "4", "--j", j, "--b", "0")
    assert code == 0, err
    assert out.strip() == want


@pytest.mark.parametrize("argv", [
    "thermal --n 4 --j 1e308 --b 0 --t 1",
    "ground --n 16 --j 1 --b 1e308",
    "crossings --n 4 --j 1e308 --b-max inf",
    "sweep --n 4 --j 1 --t-min 1 --t-max 2 --t-steps 2 --b-min 0 --b-max 1e308 --b-steps 2",
], ids=["thermal", "ground", "crossings", "sweep"])
def test_overflowing_level_energies_are_argument_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 2 and out == ""
    assert err.startswith("error: level energies") and err.count("\n") == 1


def test_crossings_output(capsys):
    code, out, _ = run_cli(capsys, "crossings", "--n", "4", "--j", "1", "--b-max", "3")
    assert code == 0
    values = [float(line) for line in out.strip().splitlines()]
    assert values == pytest.approx([2.0 * (math.sqrt(2.0) - 1.0), 2.0], abs=1e-6)


def test_crossings_resolve_a_tight_cluster(capsys):
    # the last two of six crossings are 0.0068 apart, well inside b-max = 1
    code, out, err = run_cli(capsys, "crossings", "--n", "12", "--j", "0.05", "--b-max", "1")
    assert code == 0, err
    lines = out.splitlines()
    assert len(lines) == 6 and lines[-1] == "0.1"


def test_crossings_up_to_an_infinite_field(capsys):
    code, everything, err = run_cli(capsys, "crossings", "--n", "4", "--j", "1", "--b-max", "inf")
    assert code == 0, err
    assert everything == run_cli(capsys, "crossings", "--n", "4", "--j", "1", "--b-max", "3")[1]
    code, out, err = run_cli(capsys, "crossings", "--n", "16", "--j", "-1", "--b-max", "inf")
    assert code == 0, err
    assert len(out.splitlines()) == 8 and out.splitlines()[-1] == "2"


def test_crossings_print_twelve_significant_digits_at_any_scale(capsys):
    # the n = 4 crossings 2 (sqrt 2 - 1) j and 2 j at j = 1e-10, which nine fixed
    # decimals printed as two identical lines
    code, out, err = run_cli(capsys, "crossings", "--n", "4", "--j", "1e-10", "--b-max", "3")
    assert code == 0, err
    assert out == "8.28427124746e-11\n2e-10\n"


@pytest.mark.parametrize("bounds", [
    ["--t-min", "1", "--t-max", "2", "--b-min", "0", "--b-max", "inf"],
    ["--t-min", "1", "--t-max", "inf", "--b-min", "0", "--b-max", "1"],
    ["--t-min", "1", "--t-max", "2", "--b-min=-inf", "--b-max", "1"],
    ["--t-min", "1", "--t-max", "2", "--b-min", "0", "--b-max", "nan"],
], ids=["b-max", "t-max", "b-min", "nan"])
def test_sweep_rejects_non_finite_bounds(capsys, bounds):
    code, out, err = run_cli(capsys, "sweep", "--n", "4", "--j", "1", "--t-steps", "3",
                             "--b-steps", "2", *bounds)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "finite" in err and err.count("\n") == 1


@pytest.mark.parametrize("axis", ["t", "b"])
def test_sweep_refuses_a_span_wider_than_the_doubles_before_building_it(capsys, axis):
    # both bounds are finite, but max - min overflows: refused with the options'
    # names, before a grid spacing overflows (a numpy warning is an error here)
    options = {"t": ["--t-min=1", "--t-max=1", "--t-steps=1"], "b": ["--b-min=1", "--b-max=1", "--b-steps=1"]}
    options[axis] = [f"--{axis}-min=-1e308", f"--{axis}-max=1e308", f"--{axis}-steps=2"]
    code, out, err = run_cli(capsys, "sweep", "--n", "3", "--j", "1", *options["t"], *options["b"])
    assert code == 2 and out == ""
    assert err == f"error: --{axis}-max - --{axis}-min must be finite\n"


def test_printed_digits_do_not_depend_on_the_blas_thread_count():
    # the kernel's matrix products must not round differently when BLAS
    # splits them across threads
    commands = [
        ["sweep", "--n", "10", "--j", "1", "--t-min", "0.05", "--t-max", "3", "--t-steps", "40",
         "--b-min", "0", "--b-max", "4", "--b-steps", "20"],
        ["sweep", "--n", "12", "--j", "-0.9", "--t-min", "0.05", "--t-max", "3", "--t-steps", "20",
         "--t-scale", "log", "--b-min", "0", "--b-max", "4", "--b-steps", "10"],
        ["thermal", "--n", "12", "--j", "1.3", "--b", "0.45", "--t", "0.6"],
        ["thermal", "--n", "16", "--j", "-0.7", "--b", "0.2", "--t", "0.9"],
        # 486 level classes, none merged
        ["sweep", "--n", "11", "--j", "1.2", "--t-min", "0.1", "--t-max", "4", "--t-steps", "20",
         "--b-min", "0", "--b-max", "3", "--b-steps", "10"],
        # 400 points x 2,901 classes: a BLAS product here rounds differently on two threads
        ["sweep", "--n", "16", "--j", "0.8", "--t-min", "0.1", "--t-max", "4", "--t-steps", "20",
         "--b-min", "0", "--b-max", "3", "--b-steps", "20"],
        # one stack of 2,911 classes at 1,500 points, in 5 kernel passes
        ["verify", "--n-list", "2,3,16", "--samples", "300", "--odd-control", "0"],
    ]
    script = ("import sys\nfrom xxring.cli import main\n"
              "for argv in sys.argv[1:]:\n    main(argv.split())\n")
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": str(Path(xxring.__file__).parents[1]),
               "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        result = subprocess.run([sys.executable, "-c", script, *(" ".join(c) for c in commands)],
                                env=env, capture_output=True, timeout=120)
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout)
    assert outputs[0].count(b"\n") == 1 + 800 + 1 + 200 + 6 + 6 + 1 + 200 + 1 + 400 + 3
    assert outputs[0] == outputs[1]


def test_sweep_csv_schema_and_determinism(capsys, tmp_path):
    argv = ["sweep", "--n", "4", "--j", "1",
            "--t-min", "0.5", "--t-max", "2.5", "--t-steps", "3",
            "--b-min", "0", "--b-max", "1", "--b-steps", "2"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "T,B,J,N,U,M,Gxx,Gzz,concurrence"
    assert len(lines) == 1 + 3 * 2
    b_column = [float(line.split(",")[1]) for line in lines[1:]]
    assert b_column == sorted(b_column)  # outer loop over B ascending

    code, out_again, _ = run_cli(capsys, *argv)
    assert out_again == out  # byte-identical rerun

    # the axis memo is invisible: a surface-shaped sweep prints the same bytes when both its
    # axes are kept from the run before and when a sweep on another T axis has replaced them
    surface = ["sweep", "--n", "10", "--j=-1.3", "--t-min=0.05", "--t-max=5.0", "--t-steps", "40",
               "--t-scale", "log", "--b-min=0.7", "--b-max=1.2", "--b-steps", "2"]
    first = run_cli(capsys, *surface)
    assert first[0] == 0 and first[1].count("\n") == 1 + 2 * 40
    hits = blocks._axis.cache_info().hits
    assert run_cli(capsys, *surface) == first
    assert blocks._axis.cache_info().hits == hits + 2
    assert run_cli(capsys, *argv)[1] == out
    assert run_cli(capsys, *surface) == first

    path = tmp_path / "sweep.csv"
    code, _, err = run_cli(capsys, *argv, "--output", str(path))
    assert code == 0
    assert path.read_text() == out
    assert "wrote 6 rows" in err


def test_csv_row_format_writes_the_per_field_bytes():
    edges = [-0.0, 5e-324, 1e16, 1.0 / 3.0, 0.0, -2.5e-300, 123456789012.5, math.inf, -math.inf,
             math.nan]
    for k in range(len(edges)):
        t, b, j, *values = [edges[(k + i) % len(edges)] for i in range(8)]
        want = ",".join(format(v, ".12g") for v in (t, b, j)) + ",16," \
            + ",".join(format(v, ".12g") for v in values) + "\n"
        (_, t_cells), (_, b_cells) = (
            blocks._grid(argparse.Namespace(**{f"{axis}_min": v, f"{axis}_max": v, f"{axis}_steps": 1,
                                            f"{axis}_scale": "linear"}), axis)
            for axis, v in (("t", t), ("b", b)))
        assert blocks._csv_lines(t_cells, b_cells, j, 16, [[[v]] for v in values]) == [
            "T,B,J,N,U,M,Gxx,Gzz,concurrence\n", want]


def test_sweep_csv_uses_twelve_significant_digits(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--n", "4", "--j", "1",
                           "--t-min", "1", "--t-max", "1", "--t-steps", "1",
                           "--b-min", "1", "--b-max", "1", "--b-steps", "1")
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    spectrum = full_spectrum(ModelParams(n=4, j=1.0, b=1.0))
    assert row[4] == format(float(reweight(spectrum.ring, 1.0, 1.0, 1.0).u), ".12g")
    assert row[8] == format(thermal_concurrence(spectrum, 1.0), ".12g")


def test_verify_reports_and_exit_code(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n-list", "2,4", "--samples", "20",
                           "--odd-control", "5")
    assert code == 0
    assert "proposition 1: pass" in out
    assert "proposition 2: pass" in out
    assert "proposition 3: pass" in out
    assert "out of claim" in out and "breaks as expected" in out


def test_verify_without_odd_control(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n-list", "3", "--samples", "3",
                           "--odd-control", "0")
    assert code == 0
    assert "out of claim" not in out


def test_verify_says_a_proposition_without_a_bond_in_scope_checked_nothing(capsys):
    # no even ring leaves proposition 2 nothing to check; a single site has no bond at all
    code, out, _ = run_cli(capsys, "verify", "--n-list", "3,5", "--odd-control", "0")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3 and lines[0].startswith("proposition 1: pass") and lines[2].startswith("proposition 3: pass")
    assert lines[1] == "proposition 2: nothing checked  (no ring with a bond, n in [])"
    code, out, _ = run_cli(capsys, "verify", "--n-list", "1", "--samples", "3", "--odd-control", "0")
    assert code == 0
    assert out == ("proposition 1: nothing checked  (no ring with a bond, n in [1])\n"
                   "proposition 2: nothing checked  (no ring with a bond, n in [])\n"
                   "proposition 3: nothing checked  (no ring with a bond, n in [1], b = 0, both exchange signs)\n")


@pytest.mark.parametrize("n_list", ["", ","])
def test_verify_refuses_an_empty_ring_list(capsys, n_list):
    # no ring would pass every proposition vacuously
    code, out, err = run_cli(capsys, "verify", "--n-list", n_list, "--samples", "3")
    assert code == 2 and out == ""
    assert err == "error: ring list must be nonempty\n"


@pytest.mark.parametrize("n_list", ["a", "2,x", "2.5", "2;3"])
def test_verify_names_the_ring_list_when_it_is_not_integers(capsys, n_list):
    code, out, err = run_cli(capsys, "verify", "--n-list", n_list, "--samples", "3")
    assert code == 2 and out == ""
    assert err == f"error: --n-list must be comma-separated integers, got {n_list!r}\n"


@pytest.mark.parametrize("n", ["1", "4", "-3"])
def test_verify_refuses_a_control_without_a_claim_to_break(capsys, n):
    # a single site has no bond, and even rings are inside the claim
    code, out, err = run_cli(capsys, "verify", "--n-list", "2", "--samples", "3",
                             "--odd-control", n)
    assert code == 2 and out == ""
    assert err == f"error: control requires an odd ring n >= 3, got n={n}\n"


def test_verify_checks_the_ring_list_before_the_control(capsys):
    code, out, err = run_cli(capsys, "verify", "--n-list", "17", "--samples", "3",
                             "--odd-control", "4")
    assert code == 2 and out == ""
    assert err == "error: ring size must be an integer in [1, 16], got 17\n"


def test_verify_refuses_more_samples_than_the_cap_before_drawing(capsys, monkeypatch):
    # a billion samples would draw for hours; five kernel points per sample are capped
    def no_draw(rng, samples):
        raise AssertionError("drew before refusing")

    monkeypatch.setattr(blocks, "_draw_parameters", no_draw)
    code, out, err = run_cli(capsys, "verify", "--samples", "1000000000")
    assert code == 2 and out == ""
    assert err == "error: 1000000000 samples make 5000000000 points per ring, over cap 2000000\n"


@pytest.mark.parametrize("t_steps, b_steps, scale, want", [
    ("2001", "1000", "linear", "grid of 2001000 rows exceeds cap 2000000"),
    ("1000000000000000", "1", "linear", "grid of 1000000000000000 rows exceeds cap 2000000"),
    ("0", "1", "linear", "--t-steps must be >= 1"),
    ("2", "2", "log", "log scale needs positive --b-min"),
], ids=["2001-1000", "1000000000000000-1", "no_t_steps", "log_b_from_zero"])
def test_sweep_refuses_a_grid_over_the_cap_before_building_it(capsys, monkeypatch, t_steps, b_steps, scale,
                                                               want):
    # a huge grid must exit 2 with the cap, not exhaust memory building the axes first; an
    # axis without points, or a log axis from B = 0, is refused before any axis is built too
    def no_grid(args, axis):
        raise AssertionError("built a grid before refusing it")

    monkeypatch.setattr(blocks, "_grid", no_grid)
    code, out, err = run_cli(capsys, "sweep", "--n", "4", "--j", "1", "--t-min", "1", "--t-max", "2",
                             "--t-steps", t_steps, "--b-min", "0", "--b-max", "1", "--b-steps", b_steps,
                             "--b-scale", scale)
    assert code == 2 and out == ""
    assert err == f"error: {want}\n"


@pytest.mark.parametrize("argv, want", [
    ("thermal --n 4 --j 1 --b 0 --t 1e-310",
     "Z_shifted   = 1\nU           = -5.65685424949\nM           = 0\n"
     "Gxx         = -0.707106781187\nGzz         = -0.5\nconcurrence = 0.457106781187\n"),
    ("sweep --n 4 --j 1 --t-min=1e-310 --t-max 1 --t-steps 3 --b-min 0 --b-max 1 --b-steps 2",
     "T,B,J,N,U,M,Gxx,Gzz,concurrence\n"
     "1e-310,0,1,4,-5.65685424949,0,-0.707106781187,-0.5,0.457106781187\n"
     "0.5,0,1,4,-5.54384435649,-6.06217750371e-18,-0.692980544562,-0.466022204493,0.425991646809\n"
     "1,0,1,4,-5.07018587419,-1.22843743438e-17,-0.633773234274,-0.35050806701,0.309027267779\n"
     "1e-310,1,1,4,-6,-2,-0.5,0,0.5\n"
     "0.5,1,1,4,-5.85975698505,-1.36193298633,-0.56222799984,-0.153278415889,0.310622119451\n"
     "1,1,1,4,-5.58022686797,-1.34870708615,-0.528939972727,-0.116113647198,0.243238037307\n"),
    # H and T scale together: the state of j = t = 1 to the ~4 digits a subnormal j carries
    ("thermal --n 4 --j 1e-320 --b 0 --t 1e-320",
     "Z_shifted   = 1.41664853217\nU           = -5.07010165762e-320\nM           = 0\n"
     "Gxx         = -0.633761132758\nGzz         = -0.350483403629\nconcurrence = 0.309002834573\n"),
], ids=["thermal", "sweep", "subnormal_exchange"])
def test_subnormal_temperatures_print_no_warnings(capsys, argv, want):
    # a positive gap divided by a subnormal T overflows to -inf on purpose
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, *argv.split())
    assert code == 0
    assert [str(w.message) for w in caught] == [] and err == ""
    assert out == want


def test_verify_exits_one_when_a_claim_fails(capsys, monkeypatch):
    import xxring.cli as cli
    from xxring.experiments import PropositionReport

    def broken(n_list, samples, seed, odd_control):
        return [PropositionReport(1, tuple(n_list), samples, 0.5, False),
                PropositionReport(2, tuple(n_list), samples, 0.0, True),
                PropositionReport(3, tuple(n_list), samples, 0.0, True)]

    monkeypatch.setattr(blocks, "verify_propositions", broken)
    code, out, _ = run_cli(capsys, "verify", "--n-list", "2", "--samples", "1",
                           "--odd-control", "0")
    assert code == 1
    assert "proposition 1: FAIL" in out


def test_argument_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["bogus-subcommand"])
    assert excinfo.value.code == 2

    code, _, err = run_cli(capsys, "thermal", "--n", "0", "--j", "1", "--b", "0", "--t", "1")
    assert code == 2
    assert "error" in err

    code, _, err = run_cli(capsys, "sweep", "--n", "4", "--j", "1",
                           "--t-min", "2", "--t-max", "1", "--t-steps", "3",
                           "--b-min", "0", "--b-max", "1", "--b-steps", "2")
    assert code == 2
    assert "error" in err

    # refused by name before numpy's draw, which names neither the option nor the value
    assert run_cli(capsys, "verify", "--n-list", "2", "--samples", "1", "--seed", "-1") == (
        2, "", "error: seed must be >= 0, got -1\n")


def test_sweep_log_scale_grid(capsys):
    # a one-field grid at -0 keeps the sign of its B cell
    for b in ("0", "-0"):
        code, out, _ = run_cli(capsys, "sweep", "--n", "2", "--j", "1",
                               "--t-min", "0.1", "--t-max", "10", "--t-steps", "3",
                               "--t-scale", "log",
                               "--b-min", b, "--b-max", b, "--b-steps", "1")
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert [float(row[0]) for row in rows] == pytest.approx([0.1, 1.0, 10.0], rel=1e-9)
        assert [row[1] for row in rows] == [b] * 3
    # and a T = 0 axis keeps the sign of its T cell in one process, where the axis memo
    # holds the previous run's axis, equal to this one but for the sign
    for t in ("0", "-0", "0"):
        code, out, _ = run_cli(capsys, "sweep", "--n", "2", "--j", "1",
                               "--t-min", t, "--t-max", t, "--t-steps", "1",
                               "--b-min", "1", "--b-max", "1", "--b-steps", "1")
        assert code == 0
        assert [line.split(",")[0] for line in out.strip().splitlines()[1:]] == [t]


def test_ground_diagonalizes_each_sector_once(capsys, ring_builds):
    # the ring's levels come from its modes: one build and no eigensolver
    code, out, _ = run_cli(capsys, "ground", "--n", "6", "--j", "1", "--b", "0.3")
    assert code == 0 and "tangle" in out
    assert ring_builds.builds == [6]
    assert ring_builds.eigh == []


def _multiplicities(out: str) -> list[str]:
    return [line.rsplit("x", 1)[1] for line in out.splitlines()]


def _lines(out: str, *keys: str) -> list[str]:
    return [line for line in out.splitlines() if line.startswith(keys)]


def test_tiny_exchange_keeps_the_nondegenerate_four_site_ground(capsys):
    # the headline ground state, concurrence 0.457 and tangle 1, at any scale of j
    code, out, _ = run_cli(capsys, "ground", "--n", "4", "--j", "1e-10")
    assert code == 0
    assert _lines(out, "concurrence", "tangle") == ["concurrence   = 0.457106781187", "tangle        = 1"]
    code, out, _ = run_cli(capsys, "thermal", "--n", "4", "--j", "1e-10", "--t", "0")
    assert code == 0
    assert _lines(out, "Z_shifted", "concurrence") == ["Z_shifted   = 1", "concurrence = 0.457106781187"]


def test_tiny_exchange_spectrum_keeps_its_five_levels(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--n", "4", "--j", "1e-10")
    assert code == 0
    assert _multiplicities(out) == ["1", "2", "10", "2", "1"]


def test_huge_exchange_spectrum_joins_classes_split_by_roundoff(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--n", "8", "--j", "1")
    want = _multiplicities(out)
    assert code == 0 and len(want) == 27
    code, out, _ = run_cli(capsys, "spectrum", "--n", "8", "--j", "1e8")
    assert code == 0
    assert _multiplicities(out) == want


def test_a_small_field_splits_a_level_of_a_huge_exchange(capsys):
    # the Zeeman pair of the second level splits by 1.2, 2.1e-9 |E0|: far above roundoff
    code, out, _ = run_cli(capsys, "spectrum", "--n", "4", "--j", "1e8", "--b", "0.3")
    assert code == 0
    lines = [line.strip() for line in out.splitlines()]
    assert lines[1:3] == ["-400000000.6  x1", "-399999999.4  x1"]
    assert len(lines) == 11


def test_a_tiny_field_splits_the_ground_at_zero_temperature_as_at_low(capsys):
    # b = 3e-9 splits the four zero-field ground levels of the n = 5 ring (a +-k mode pair
    # in each of two sectors) by 6e-9, 1.1e-9 |E0|: T = 0 is the limit of small T
    model = ["--n", "5", "--j", "1", "--b", "3e-9"]
    at_zero = run_cli(capsys, "thermal", *model, "--t", "0")
    assert at_zero == run_cli(capsys, "thermal", *model, "--t", "1e-11")
    assert _lines(at_zero[1], "Z_shifted", "M") == ["Z_shifted   = 2", "M           = -1"]


@pytest.mark.parametrize("n, b", [("5", "0.5"), ("3", "0.2"), ("5", "3e-9"), ("5", "0.3")])
def test_ground_names_no_cause_for_a_degeneracy(capsys, n, b):
    # an odd ring's +-k mode pair makes its ground 2-fold at a generic field, on no crossing;
    # ground prints the mixture `thermal --t 0` prints, and no tangle, whose pure-state
    # closed form does not hold for a mixture
    code, out, _ = run_cli(capsys, "ground", "--n", n, "--j", "1", "--b", b)
    assert code == 0
    thermal = run_cli(capsys, "thermal", "--n", n, "--j", "1", "--b", b, "--t", "0")[1]
    state = {key.strip(): value.strip() for key, value in (line.split("=") for line in thermal.splitlines())}
    assert state["Z_shifted"] == "2"
    assert out == (f"ground energy = {state['U']}\nground level is 2-fold degenerate\n"
                   f"concurrence   = {state['concurrence']}  (uniform mixture over the ground level, "
                   f"the T -> 0 limit)\n")
    if b == "0.3":
        assert state["concurrence"] == "0.286023497158"


_N4_CROSSING = 2.0 * (2.0 ** 0.5 - 1.0)


def _scale_free_outputs(capsys, n: int, j: float, b: float) -> list:
    """What scaling (j, b) by s > 0 must not move: the spectrum's multiplicities,
    the ground state's degeneracy or concurrence and tangle, and Z_shifted and
    the concurrence at T = 0."""
    model = ["--n", str(n), f"--j={j!r}", f"--b={b!r}"]
    outputs = []
    for argv, keep in ((["spectrum"], _multiplicities),
                       (["ground"], lambda out: _lines(out, "ground level", "concurrence", "tangle")),
                       (["thermal", "--t", "0"], lambda out: _lines(out, "Z_shifted", "concurrence"))):
        code, out, err = run_cli(capsys, argv[0], *model, *argv[1:])
        assert code == 0, err
        outputs.append(keep(out))
    return outputs


@pytest.mark.parametrize("n", [3, 4, 6, 8])
@pytest.mark.parametrize("j, b", [(1.0, 0.0), (-0.8, 0.4), (1.0, _N4_CROSSING)])
def test_scaling_the_couplings_moves_no_level_decision(capsys, n, j, b):
    # H(s j, s b) = s H(j, b): degeneracies, states and crossings in units of s cannot move
    want = _scale_free_outputs(capsys, n, j, b)
    fields = level_crossings(n, j, 10.0)
    assert fields
    for s in (1e-12, 1e-8, 1e-4, 1e4, 1e8, 1e12):
        assert _scale_free_outputs(capsys, n, s * j, s * b) == want, s
        scaled = level_crossings(n, s * j, s * 10.0)
        assert len(scaled) == len(fields), s
        assert all(abs(got - s * field) <= 1e-12 * s * field for got, field in zip(scaled, fields)), s


@pytest.mark.parametrize("command, j, b, extra", [
    ("thermal", -1.3, 0.45, ["--t=0.6"]),
    ("ground", 1.1, 0.0, []),
    ("threshold", 0.8, 1.1, []),
], ids=["thermal", "ground", "threshold"])
def test_sixteen_sites_pass_the_benchmark_checks(capsys, command, j, b, extra):
    # the benchmark's output checks: energy relation, T_c bracket, C and
    # tangle in [0, 1]
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        from checks import check_cold
        from workloads import Op
    finally:
        sys.path.pop(0)
    argv = [command, "--n", "16", f"--j={j!r}", f"--b={b!r}", *extra]
    code, out, err = run_cli(capsys, *argv)
    assert check_cold(Op("cold_cli", 0, tuple(argv), n=16, j=j, b=(b,)), code, out, err) is None, out
    if command == "ground":
        assert "tangle" in out and "tangle        = 0\n" not in out


def test_thermal_reads_everything_from_one_kernel_call(capsys, reweight_calls, point_calls):
    code, out, _ = run_cli(capsys, "thermal", "--n", "6", "--j", "1", "--b", "0.5", "--t", "0.7")
    assert code == 0 and "concurrence" in out
    # one call of the single-point kernel, none of the block kernel
    assert point_calls == [(6, 0.7)] and reweight_calls == []


_REUSE_COMMANDS = {
    "sweep_o": ["sweep", "--n", "2", "--j", "1", "--t-min", "0.5", "--t-max", "1", "--t-steps", "2",
                "--b-min", "0", "--b-max", "1", "--b-steps", "2", "-o", "{path}"],
    "sweep": ["sweep", "--n", "2", "--j", "1", "--t-min", "0.5", "--t-max", "1", "--t-steps", "2",
              "--b-min", "0", "--b-max", "1", "--b-steps", "2"],
    # refused by the sweep subparser after it has read a non-default --t-scale
    "sweep_refused": ["sweep", "--n", "2", "--j", "1", "--t-min", "0.5", "--t-max", "1", "--t-steps", "2",
                      "--t-scale", "log", "--b-min", "0", "--b-max", "1", "--b-steps", "two"],
    "verify": ["verify", "--n-list", "2,3", "--samples", "3"],
    "verify_no_control": ["verify", "--n-list", "2,3", "--samples", "3", "--odd-control", "0"],
    "thermal_b": ["thermal", "--n", "3", "--j", "1", "--b", "0.4", "--t", "1"],
    "ground": ["ground", "--n", "4", "--j", "1"],
    "threshold": ["threshold", "--n", "4", "--j", "1"],
    "threshold_tol": ["threshold", "--n", "4", "--j", "1", "--tol", "0.5"],
    "spectrum": ["spectrum", "--n", "2", "--j", "1"],
    "crossings": ["crossings", "--n", "4", "--j", "1", "--b-max", "3"],
}


def _run_named(capsys, tmp_path, name):
    path = tmp_path / f"{name}.csv"
    argv = [arg.format(path=path) for arg in _REUSE_COMMANDS[name]]
    try:
        code, out, err = run_cli(capsys, *argv)
    except SystemExit as exc:
        captured = capsys.readouterr()
        code, out, err = exc.code, captured.out, captured.err
    return code, out, err.replace(str(path), "<path>"), path.read_text() if path.exists() else None


@pytest.mark.parametrize("order", [
    ["sweep_o", "sweep_refused", "sweep", "verify_no_control", "verify", "thermal_b", "ground",
     "threshold_tol", "threshold", "spectrum", "crossings"],
    ["crossings", "spectrum", "threshold", "threshold_tol", "ground", "thermal_b",
     "verify", "verify_no_control", "sweep", "sweep_refused", "sweep_o"],
], ids=["options-first", "defaults-first"])
def test_reused_parser_matches_a_fresh_one(capsys, tmp_path, order):
    # a command that follows one which set its options must see the defaults again
    fresh = {}
    for name in order:
        cli._parser.cache_clear()
        fresh[name] = _run_named(capsys, tmp_path, name)
    cli._parser.cache_clear()
    for name in order:
        assert _run_named(capsys, tmp_path, name) == fresh[name], name
    assert cli._parser.cache_info().misses == 1


def _parsed(capsys, parse, argv):
    """vars of the namespace, or the exit code, stdout and stderr of a refused argv."""
    try:
        return vars(parse(list(argv)))
    except SystemExit as exc:
        captured = capsys.readouterr()
        return exc.code, captured.out, captured.err


_SWEEP_ARGV = "sweep --n 4 --j 1 --t-min 0.1 --t-max 1 --t-steps 3 --b-min 0 --b-max 1 --b-steps 2"


@pytest.mark.parametrize("argv", [command.split() for command in CORPUS] + [
    [], ["-h"], ["bogus-subcommand"], ["--n", "4", "thermal"], ["thermal", "--n", "4"],
    "thermal --n four --j 1 --t 1".split(), (_SWEEP_ARGV + " --t-scale cubic").split(),
    "ground --n 4 --j 1 --bogus 3".split(), _SWEEP_ARGV.replace("--t-min", "--t-mi").split(),
    ["sweep", "-h"],
])
def test_single_parse_matches_parse_args(capsys, argv):
    # a command's own subparser parses what the two-level parse_args parses, and refuses
    # what it refuses with the same exit code and bytes
    assert _parsed(capsys, cli._parse, argv) == _parsed(capsys, cli._parser().parse_args, argv)


def _outcome(parse, argv):
    """The namespace's values by repr (so that nan equals nan and -0.0 is not 0.0), or the
    exit code, stdout and stderr of a refused argv."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return {key: repr(value) for key, value in vars(parse(list(argv))).items()}
    except SystemExit as exc:
        return exc.code, out.getvalue(), err.getvalue()


# values of every kind: signed, exponent, underscore, empty, inf and nan, "--", and
# the values each option takes
_VALUES = ["4", "-4", "0.5", "-1.3", "1e-3", "-1e-3", "-.5", ".5", "+2", "1_000", "-1_0", "",
           "inf", "-inf", "nan", "-nan", "log", "linear", "cubic", "2,3", "--", "-", "x"]
_GOOD = {int: "3", float: "0.5"}


@st.composite
def _command_argvs(draw):
    """A command name, then each of its required options, and each of its options with
    choices half the time, with a value of its type (one may be dropped), and up to three
    options drawn from its own long options, their abbreviations and an unknown one, each
    with a value of its type or from _VALUES, in either spelling; one option may lose its
    value, and -h, --help, --, -o or a stray value may be mixed in. The value of its type,
    for an option with choices, is one of them or one value outside them."""
    name = draw(st.sampled_from(sorted(cli._COMMANDS)))
    # each long option string's row of the command table: (strings, type or choices, default, help)
    rows = {option: row for row in cli._COMMANDS[name][2] for option in row[0] if option.startswith("--")}
    abbreviations = [option[:k] for option in rows for k in range(3, len(option))]

    def good(row):
        if isinstance(row[1], tuple):
            return draw(st.sampled_from([*row[1], "cubic"]))
        return _GOOD.get(row[1], "2,3")

    items = [(option, good(row)) for option, row in rows.items()
             if row[2] is cli._REQUIRED or isinstance(row[1], tuple) and draw(st.booleans())]
    if items and draw(st.integers(0, 5)) == 0:
        del items[draw(st.integers(0, len(items) - 1))]
    for _ in range(draw(st.integers(0, 3))):
        option = draw(st.sampled_from(sorted(rows)) | st.sampled_from(abbreviations + ["--bogus"]))
        values = st.sampled_from(_VALUES)
        items.append((option, draw(st.just(good(rows[option])) | values if option in rows else values)))
    tokens = [[f"{option}={value}"] if draw(st.booleans()) else [option, value] for option, value in items]
    if tokens and draw(st.integers(0, 5)) == 0:
        index = draw(st.integers(0, len(tokens) - 1))
        tokens[index] = [tokens[index][0].partition("=")[0]]
    if draw(st.integers(0, 5)) == 0:
        tokens.append(draw(st.sampled_from([["-h"], ["--help"], ["--"], ["-o", "x"], ["x"]])))
    return [name, *itertools.chain.from_iterable(draw(st.permutations(tokens)))]


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(argv=_command_argvs())
# argparse drops a value of "--": --n-list=-- reads as []
@example(argv=["verify", "--n-list=--"])
def test_one_pass_read_matches_parse_args_on_drawn_argvs(argv):
    # either route gives parse_args's namespace, or its exit code and bytes
    assert _outcome(cli._parse, argv) == _outcome(cli._parser().parse_args, argv)


def _patched_out(monkeypatch, capsys, argv):
    def refused(*args, **kwargs):
        raise AssertionError(f"argparse parsed {argv}")

    with monkeypatch.context() as patch:
        for method in ("parse_args", "parse_known_args"):
            patch.setattr(argparse.ArgumentParser, method, refused)
        return run_cli(capsys, *argv)


def test_workload_argvs_skip_argparses_parse(monkeypatch, capsys):
    # the benchmark's argv shapes, signed values written --opt=value, take the one-pass
    # read; the cold_cli ones on a small ring
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        from workloads import make_op
    finally:
        sys.path.pop(0)
    argvs = [make_op(workload, 3, index).argv for workload in ("surface", "propositions") for index in range(2)]
    for index in range(6):
        argv = list(make_op("cold_cli", 3, index).argv)
        argv[argv.index("--n") + 1] = "6"
        argvs.append(argv)
    assert {argv[0] for argv in argvs} == {"sweep", "verify", "thermal", "ground", "threshold"}
    for argv in argvs:
        want = run_cli(capsys, *argv)
        assert want[0] == 0
        assert _patched_out(monkeypatch, capsys, argv) == want, argv


@pytest.mark.parametrize("value", ["-1e-3", "-.5", "-2E+1"])
def test_a_negative_number_reads_in_both_spellings(capsys, value):
    # the spaced value takes parse_args, the joined one the one-pass read
    spaced = ["thermal", "--n", "4", "--j", value, "--t", "1"]
    joined = ["thermal", "--n", "4", f"--j={value}", "--t", "1"]
    want = run_cli(capsys, *joined)
    assert want[0] == 0
    assert run_cli(capsys, *spaced) == want
    assert (_parsed(capsys, cli._parse, spaced) == _parsed(capsys, cli._parser().parse_args, spaced)
            == _parsed(capsys, cli._parse, joined))


def test_negative_infinity_still_needs_the_equals_sign(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["thermal", "--n", "4", "--j", "-inf", "--t", "1"])
    assert excinfo.value.code == 2
    assert capsys.readouterr().err.endswith("error: argument --j: expected one argument\n")


@pytest.mark.parametrize("argv, option", [
    (["verify", "--n-list=--"], "--n-list"),
    (["thermal", "--n", "4", "--j=--", "--t", "1"], "--j"),
    (_SWEEP_ARGV.split() + ["--output=--"], "--output/-o"),
    (["verify", "--n-li=--"], "--n-list"),
    (_SWEEP_ARGV.split() + ["-o=--"], "--output/-o"),
], ids=["n_list", "j", "output", "abbreviated", "short"])
def test_a_value_of_two_dashes_is_refused_as_a_missing_value(capsys, argv, option):
    # argparse reads a value of "--" as no value: the bytes of the spaced `--opt --` refusal
    spaced = [part for token in argv for part in (token.partition("=")[::2] if token.endswith("=--") else [token])]
    refusals = []
    for each in (argv, spaced):
        with pytest.raises(SystemExit) as refused:
            main(each)
        captured = capsys.readouterr()
        refusals.append((refused.value.code, captured.out, captured.err))
    code, out, err = refusals[0]
    assert (code, out) == (2, "")
    assert err.startswith(f"usage: xxring {argv[0]} [-h]")
    assert err.endswith(f"\nxxring {argv[0]}: error: argument {option}: expected one argument\n")
    assert refusals[1] == refusals[0]


def test_import_builds_no_parser():
    code = "import sys, xxring.cli; sys.exit(xxring.cli._parser.cache_info().currsize)"
    env = {**os.environ, "PYTHONPATH": str(Path(xxring.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=60)
    assert result.returncode == 0, result.stderr


def test_import_loads_only_the_standard_library():
    # start-up cost: a fresh `python -m xxring` imports nothing else, numpy included,
    # and `import xxring` neither dataclasses nor the inspect module it pulls in, nor the
    # block path's module
    code = ("import sys; before = set(sys.modules); import xxring; "
            "print(sorted({'dataclasses', 'inspect', 'xxring.blocks'} & set(sys.modules))); import xxring.cli; "
            "new = {name.partition('.')[0] for name in set(sys.modules) - before}; "
            "print(sorted(new - set(sys.stdlib_module_names)))")
    env = {**os.environ, "PYTHONPATH": str(Path(xxring.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n['xxring']\n"


def test_import_loads_every_layer_the_benchmark_tracer_reads():
    # the tracer wraps the public functions of each of its LAYERS modules, read from sys.modules
    # right after `import xxring.cli`: none of them may wait for a command to import it
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        from tracer import LAYERS, PACKAGE
    finally:
        sys.path.pop(0)
    code = f"import sys, xxring.cli; print([m for m in {list(LAYERS)!r} if '{PACKAGE}.' + m not in sys.modules])"
    env = {**os.environ, "PYTHONPATH": str(Path(xxring.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert len(LAYERS) == 7 and result.stdout == "[]\n"


def test_the_package_root_resolves_the_block_path_names_on_first_use():
    # the root holds every name it held when it imported them all
    code = ("import sys; from xxring import PropositionReport; print('xxring.blocks' in sys.modules); "
            "from xxring import reweight, sweep, gibbs_concurrence, verify_propositions, concurrence_xstate; "
            "import xxring.blocks as blocks; "
            "print([f is getattr(blocks, f.__name__) for f in (reweight, sweep, gibbs_concurrence, "
            "verify_propositions, concurrence_xstate)], PropositionReport is blocks.PropositionReport); "
            "print(hasattr(sys.modules['xxring'], 'no_such_name'))")
    env = {**os.environ, "PYTHONPATH": str(Path(xxring.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\n[True, True, True, True, True] True\nFalse\n"


# The fresh-process entry: `python -m xxring` and the console script run
# `cli.entry`, which freezes the heap and turns a closed stdout into exit 141.

_SRC = Path(xxring.__file__).parents[1]
# argparse wraps help text to the terminal's width: one fixed width on both sides
_FRESH_ENV = {**os.environ, "PYTHONPATH": str(_SRC), "COLUMNS": "80"}
_SWEEP_GRID = ["--t-min", "0.5", "--t-max", "2", "--t-steps", "3", "--b-min", "0", "--b-max", "1",
               "--b-steps", "2"]


@pytest.mark.parametrize("argv, want_code", [
    (["spectrum", "--n", "4", "--j", "1", "--b", "0.3"], 0),
    (["thermal", "--n", "4", "--j", "1", "--b", "0.5", "--t", "1"], 0),
    (["ground", "--n", "6", "--j", "1", "--b", "0.2"], 0),
    (["sweep", "--n", "4", "--j", "1", *_SWEEP_GRID], 0),
    (["sweep", "--n", "4", "--j", "1", *_SWEEP_GRID, "--output", "{path}"], 0),
    (["threshold", "--n", "4", "--j", "1"], 0),
    (["crossings", "--n", "4", "--j", "1", "--b-max", "3"], 0),
    (["verify", "--n-list", "2,3", "--samples", "3"], 0),
    (["--help"], 0),
    (["thermal", "--n", "4", "--j", "1"], 2),
    (["thermal", "--n", "4", "--j", "1", "--t", "-1"], 2),
], ids=["spectrum", "thermal", "ground", "sweep", "sweep_output", "threshold", "crossings", "verify",
        "help", "argparse_error", "refused"])
def test_python_m_matches_in_process_main(capsysbinary, monkeypatch, tmp_path, argv, want_code):
    # exit code, stdout, stderr and any written file: the same bytes from a fresh process
    path = tmp_path / "out.csv"
    argv = [arg.format(path=path) for arg in argv]
    fresh = subprocess.run([sys.executable, "-m", "xxring", *argv], env=_FRESH_ENV,
                           capture_output=True, timeout=60)
    fresh_file = path.read_bytes() if path.exists() else None
    path.unlink(missing_ok=True)
    monkeypatch.setenv("COLUMNS", "80")
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsysbinary.readouterr()
    assert code == want_code
    assert (fresh.returncode, fresh.stdout, fresh.stderr) == (code, captured.out, captured.err)
    assert (fresh_file is not None) == ("--output" in argv)
    assert fresh_file == (path.read_bytes() if path.exists() else None)


@pytest.mark.parametrize("argv, want_code, loads_argparse", [
    (["spectrum", "--n", "3", "--j", "1"], 0, False),
    (["thermal", "--n", "3", "--j=-1", "--t", "1"], 0, False),
    (["ground", "--n", "4", "--j", "1"], 0, False),
    (["sweep", "--n", "2", "--j", "1", *_SWEEP_GRID], 0, False),
    (["threshold", "--n", "4", "--j", "1", "--tol=1e-3"], 0, False),
    (["crossings", "--n", "4", "--j", "1", "--b-max", "3"], 0, False),
    (["verify", "--n-list", "2,3", "--samples", "3"], 0, False),
    (["-h"], 0, True),
    (["threshold", "--n", "4", "--j", "1", "--to", "1e-3"], 0, True),
    (["thermal", "--n", "4", "--j", "1"], 2, True),
], ids=["spectrum", "thermal", "ground", "sweep", "threshold", "crossings", "verify",
        "help", "abbreviation", "refusal"])
def test_python_m_imports_argparse_only_for_an_argv_the_table_declines(argv, want_code, loads_argparse):
    # -X importtime lists every module the process imports, one "| name" line each
    result = subprocess.run([sys.executable, "-X", "importtime", "-m", "xxring", *argv], env=_FRESH_ENV,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == want_code, result.stderr
    assert re.search(r"\|\s+xxring\.cli$", result.stderr, re.M)
    assert bool(re.search(r"\|\s+argparse$", result.stderr, re.M)) == loads_argparse
    # the four-site closed forms are a test oracle, never on a command's import path
    assert not re.search(r"\|\s+xxring\.analytic_n4$", result.stderr, re.M)
    # numpy, and the module of the block path, only for the commands that reweight a block of points
    loads_numpy = argv[0] in ("sweep", "verify")
    assert bool(re.search(r"\|\s+numpy$", result.stderr, re.M)) == loads_numpy
    assert bool(re.search(r"\|\s+xxring\.blocks$", result.stderr, re.M)) == loads_numpy
    # the records are named tuples: no argv imports dataclasses, and inspect comes only with numpy
    assert not re.search(r"\|\s+dataclasses$", result.stderr, re.M)
    assert bool(re.search(r"\|\s+inspect$", result.stderr, re.M)) == loads_numpy


def test_python_m_freezes_the_heap_before_the_command():
    # what the interpreter's exit would otherwise collect one object at a time
    code = ("import atexit, gc, runpy, sys\n"
            "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0, file=sys.stderr))\n"
            "sys.argv = ['xxring', 'ground', '--n', '4', '--j', '1']\n"
            "runpy.run_module('xxring', run_name='__main__', alter_sys=True)\n")
    result = subprocess.run([sys.executable, "-c", code], env=_FRESH_ENV, capture_output=True,
                            text=True, timeout=60)
    assert result.returncode == 0
    assert result.stderr == "frozen True\n"


def test_in_process_main_leaves_the_heap_unfrozen(capsys):
    assert run_cli(capsys, "ground", "--n", "4", "--j", "1")[0] == 0
    assert gc.get_freeze_count() == 0


def test_console_script_runs_the_function_python_m_runs(monkeypatch):
    text = (_SRC.parent / "pyproject.toml").read_text()
    module, name = re.search(r'^\[project\.scripts\]\nxxring = "([\w.]+):(\w+)"$', text, re.M).groups()
    # __main__.py calls the function the console script names...
    calls = []
    monkeypatch.setattr(importlib.import_module(module), name, lambda: calls.append(name) or 0)
    with pytest.raises(SystemExit) as stop:
        runpy.run_module("xxring", run_name="__main__")
    assert stop.value.code == 0 and calls == [name]
    # ...and the console script's wrapper, run on that function, freezes the heap
    code = (f"import atexit, gc, sys\nfrom {module} import {name}\n"
            "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0, file=sys.stderr))\n"
            f"sys.argv = ['xxring', 'ground', '--n', '4', '--j', '1']\nsys.exit({name}())\n")
    result = subprocess.run([sys.executable, "-c", code], env=_FRESH_ENV, capture_output=True,
                            text=True, timeout=60)
    assert result.returncode == 0
    assert result.stderr == "frozen True\n"


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv, lines_read", [
    # about 80 kB, more than a pipe holds, printed a line at a time: the reader leaves mid-write
    (["spectrum", "--n", "16", "--j", "1", "--b", "0.3"], 1),
    # a few lines, buffered until the flush after the command: the reader is gone before it
    (["ground", "--n", "4", "--j", "1"], 0),
    # about 1 MB of CSV, written a line at a time: a write-through stdout (unbuffered) drops
    # the unwritten rest of one large write without an error
    (["sweep", "--n", "4", "--j", "1", "--t-min", "0.1", "--t-max", "3", "--t-steps", "100",
      "--b-min", "0", "--b-max", "3", "--b-steps", "100"], 1),
], ids=["mid_write", "at_flush", "mid_write_sweep"])
def test_closed_stdout_ends_the_command_quietly(argv, lines_read, buffered):
    env = {key: value for key, value in _FRESH_ENV.items() if key != "PYTHONUNBUFFERED"}
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    # bufsize=0: readline takes exactly one line off the pipe
    with subprocess.Popen([sys.executable, "-m", "xxring", *argv], env=env, bufsize=0,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        for _ in range(lines_read):
            assert proc.stdout.readline().endswith(b"\n")
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert err == b""
    assert code == 141
