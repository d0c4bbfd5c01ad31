import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import xxring
import xxring.cli as cli
from xxring.cli import main
from xxring.eigensolver import full_spectrum
from xxring.experiments import level_crossings, thermal_concurrence
from xxring.hamiltonian import ModelParams
from xxring.thermal import reweight


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


def test_threshold_four_decimal_output(capsys):
    code, out, _ = run_cli(capsys, "threshold", "--n", "4", "--j", "1", "--b", "0")
    assert code == 0
    assert out.strip() == "2.2114"


def test_threshold_returns_for_tol_below_double_spacing():
    # near T_c = 2.21 adjacent doubles are 4.4e-16 apart, so the bracket can
    # never shrink to 1e-17; bisection must stop there instead of looping, and
    # a tol below ~1e-308, subnormal ones included, must not overflow the batch depth
    env = {**os.environ, "PYTHONPATH": str(Path(xxring.__file__).parents[1])}
    for tol in ("1e-17", "1e-310", "5e-324"):
        result = subprocess.run([sys.executable, "-m", "xxring", "threshold", "--n", "4", "--j", "1",
                                 "--b", "0", "--tol", tol],
                                env=env, capture_output=True, text=True, timeout=30)
        assert result.returncode == 0, (tol, result.stderr)
        assert result.stdout.strip() == "2.2114", tol


def test_threshold_none_for_zero_exchange(capsys):
    code, out, _ = run_cli(capsys, "threshold", "--n", "4", "--j", "0", "--b", "1")
    assert code == 0
    assert out.strip() == "none"


@pytest.mark.parametrize("j, want", [("0.01", "0.0221"), ("1000", "2211.3515")])
def test_threshold_scan_scales_with_the_exchange(capsys, j, want):
    # T_c is 2.21135148 j at n = 4, b = 0; a scan fixed to [0.05, 1e3] saw
    # nothing at j = 0.01 and was still entangled at its top at j = 1000
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
    assert len(lines) == 6 and lines[-1] == "0.100000000"


def test_crossings_up_to_an_infinite_field(capsys):
    code, everything, err = run_cli(capsys, "crossings", "--n", "4", "--j", "1", "--b-max", "inf")
    assert code == 0, err
    assert everything == run_cli(capsys, "crossings", "--n", "4", "--j", "1", "--b-max", "3")[1]
    code, out, err = run_cli(capsys, "crossings", "--n", "16", "--j", "-1", "--b-max", "inf")
    assert code == 0, err
    assert len(out.splitlines()) == 8 and out.splitlines()[-1] == "2.000000000"


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
        # 400 points x 4,029 classes: a BLAS product here rounds differently on two threads
        ["sweep", "--n", "16", "--j", "0.8", "--t-min", "0.1", "--t-max", "4", "--t-steps", "20",
         "--b-min", "0", "--b-max", "3", "--b-steps", "20"],
    ]
    script = ("import sys\nfrom xxring.cli import main\n"
              "for argv in sys.argv[1:]:\n    main(argv.split(','))\n")
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": str(Path(xxring.__file__).parents[1]),
               "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        result = subprocess.run([sys.executable, "-c", script, *(",".join(c) for c in commands)],
                                env=env, capture_output=True, timeout=120)
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout)
    assert outputs[0].count(b"\n") == 1 + 800 + 1 + 200 + 6 + 6 + 1 + 200 + 1 + 400
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

    path = tmp_path / "sweep.csv"
    code, _, err = run_cli(capsys, *argv, "--output", str(path))
    assert code == 0
    assert path.read_text() == out
    assert "wrote 6 rows" in err


def test_csv_row_format_writes_the_per_field_bytes():
    edges = [-0.0, 5e-324, 1e16, 1.0 / 3.0, 0.0, -2.5e-300, 123456789012.5, math.inf, -math.inf,
             math.nan]
    for k in range(len(edges)):
        values = [edges[(k + i) % len(edges)] for i in range(8)]
        row = values[:3] + [16] + values[3:]
        want = ",".join(format(v, ".12g") for v in values[:3]) + ",16," \
            + ",".join(format(v, ".12g") for v in values[3:])
        assert cli._CSV_ROW % tuple(row) == want


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
    assert err == "error: ring size must be in [1, 16], got 17\n"


def test_verify_refuses_more_samples_than_the_cap_before_drawing(capsys, monkeypatch):
    # a billion samples would draw for hours; five kernel points per sample are capped
    import xxring.experiments as experiments

    def no_draw(rng):
        raise AssertionError("drew before refusing")

    monkeypatch.setattr(experiments, "_draw_parameters", no_draw)
    code, out, err = run_cli(capsys, "verify", "--samples", "1000000000")
    assert code == 2 and out == ""
    assert err == "error: 1000000000 samples make 5000000000 points per ring, over cap 2000000\n"


@pytest.mark.parametrize("t_steps, b_steps", [("2001", "1000"), ("1000000000000000", "1")])
def test_sweep_refuses_a_grid_over_the_cap_before_building_it(capsys, monkeypatch, t_steps, b_steps):
    # a huge grid must exit 2 with the cap, not exhaust memory building the axes first
    def no_grid(args, axis):
        raise AssertionError("built a grid before refusing it")

    monkeypatch.setattr(cli, "_grid", no_grid)
    code, out, err = run_cli(capsys, "sweep", "--n", "4", "--j", "1", "--t-min", "1", "--t-max", "2",
                             "--t-steps", t_steps, "--b-min", "0", "--b-max", "1", "--b-steps", b_steps)
    assert code == 2 and out == ""
    assert err == f"error: grid of {int(t_steps) * int(b_steps)} rows exceeds cap 2000000\n"


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
], ids=["thermal", "sweep"])
def test_subnormal_temperatures_print_no_warnings(capsys, argv, want):
    # -1/T and the scaled gaps overflow to -inf on purpose below T ~ 5.6e-309
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
        return [PropositionReport(1, samples, 0.5, False),
                PropositionReport(2, samples, 0.0, True),
                PropositionReport(3, samples, 0.0, True)]

    monkeypatch.setattr(cli, "verify_propositions", broken)
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


def test_sweep_log_scale_grid(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--n", "2", "--j", "1",
                           "--t-min", "0.1", "--t-max", "10", "--t-steps", "3",
                           "--t-scale", "log",
                           "--b-min", "0", "--b-max", "0", "--b-steps", "1")
    assert code == 0
    t_column = [float(line.split(",")[0]) for line in out.strip().splitlines()[1:]]
    assert t_column == pytest.approx([0.1, 1.0, 10.0], rel=1e-9)


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


def test_thermal_reads_everything_from_one_kernel_call(capsys, reweight_calls):
    code, out, _ = run_cli(capsys, "thermal", "--n", "6", "--j", "1", "--b", "0.5", "--t", "0.7")
    assert code == 0 and "concurrence" in out
    assert reweight_calls == [(6, ())]


_REUSE_COMMANDS = {
    "sweep_o": ["sweep", "--n", "2", "--j", "1", "--t-min", "0.5", "--t-max", "1", "--t-steps", "2",
                "--b-min", "0", "--b-max", "1", "--b-steps", "2", "-o", "{path}"],
    "sweep": ["sweep", "--n", "2", "--j", "1", "--t-min", "0.5", "--t-max", "1", "--t-steps", "2",
              "--b-min", "0", "--b-max", "1", "--b-steps", "2"],
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
    code, out, err = run_cli(capsys, *argv)
    return code, out, err.replace(str(path), "<path>"), path.read_text() if path.exists() else None


@pytest.mark.parametrize("order", [
    ["sweep_o", "sweep", "verify_no_control", "verify", "thermal_b", "ground",
     "threshold_tol", "threshold", "spectrum", "crossings"],
    ["crossings", "spectrum", "threshold", "threshold_tol", "ground", "thermal_b",
     "verify", "verify_no_control", "sweep", "sweep_o"],
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


def test_import_builds_no_parser():
    code = "import sys, xxring.cli; sys.exit(xxring.cli._parser.cache_info().currsize)"
    env = {**os.environ, "PYTHONPATH": str(Path(xxring.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=60)
    assert result.returncode == 0, result.stderr


def test_import_loads_only_the_standard_library_and_numpy():
    # start-up cost: a fresh `python -m xxring` imports nothing else
    code = ("import sys; before = set(sys.modules); import xxring.cli; "
            "new = {name.partition('.')[0] for name in set(sys.modules) - before}; "
            "print(sorted(new - set(sys.stdlib_module_names)))")
    env = {**os.environ, "PYTHONPATH": str(Path(xxring.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "['numpy', 'xxring']\n"
