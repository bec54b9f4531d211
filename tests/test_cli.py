import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qspf
from qspf import build_grid, forward_spf, inverse_spf, random_staircase_signal, synthesize_on_grid
from qspf.cli import (
    CliError,
    descriptor_from_grid,
    format_coefficients_csv,
    format_points_csv,
    grid_from_descriptor,
    main,
    parse_coefficients_csv,
    parse_queries,
    parse_samples,
)


@pytest.fixture(scope="module")
def grid():
    return build_grid(4, 8000.0, (3, 5, 9, 11))


def write_default_descriptor(tmp_path, grid):
    path = tmp_path / "scheme.json"
    path.write_text(json.dumps(descriptor_from_grid(grid), indent=2) + "\n")
    return path


def test_grid_bvec_output(tmp_path):
    prefix = tmp_path / "scheme"
    assert main(["grid", "--format", "bvec", "--output", str(prefix)]) == 0
    bvals = np.loadtxt(prefix.with_suffix(".bvals"))
    bvecs = np.loadtxt(prefix.with_suffix(".bvecs"))
    assert bvals.shape == (132,)
    assert bvecs.shape == (3, 132)
    unique, counts = np.unique(bvals, return_counts=True)
    assert np.max(np.abs(unique - [411.3, 1694.4, 4036.3, 8000.0])) < 0.05
    assert list(counts) == [6, 15, 45, 66]
    norms = np.linalg.norm(bvecs, axis=0)
    assert np.max(np.abs(norms - 1.0)) < 2e-6


def test_descriptor_regenerates_byte_identical_files(tmp_path, grid):
    desc_path = write_default_descriptor(tmp_path, grid)
    first = tmp_path / "a"
    second = tmp_path / "b"
    assert main(["grid", "--format", "bvec", "--output", str(first)]) == 0
    assert main([
        "grid", "--from-descriptor", str(desc_path), "--format", "bvec",
        "--output", str(second),
    ]) == 0
    assert first.with_suffix(".bvals").read_bytes() == second.with_suffix(".bvals").read_bytes()
    assert first.with_suffix(".bvecs").read_bytes() == second.with_suffix(".bvecs").read_bytes()


@pytest.mark.parametrize(
    "n_shells, b_max, bandlimits",
    [(4, 8000.0, (3, 5, 9, 11)), (1, 3925.284601749901, (3,)), (3, 15822.821163919247, (3, 3, 3))],
    ids=["defaults", "one-shell", "three-shells"],
)
def test_descriptor_round_trip_rebuilds_grid(n_shells, b_max, bandlimits):
    # b -> q -> b does not return these two b_max values, so the descriptor stores the request
    grid = build_grid(n_shells, b_max, bandlimits)
    desc = json.loads(json.dumps(descriptor_from_grid(grid)))
    assert desc["b_max"] == b_max
    rebuilt = grid_from_descriptor(desc)
    assert descriptor_from_grid(rebuilt) == desc
    assert np.array_equal(rebuilt.points, grid.points)
    assert np.array_equal(rebuilt.bvalues, grid.bvalues)
    assert rebuilt.radial.zeta == grid.radial.zeta
    samples = np.random.default_rng(4).standard_normal(grid.n_samples)
    for mode in ("staircase", "zero_padded"):
        assert np.array_equal(
            forward_spf(rebuilt, samples, radial_mode=mode).values,
            forward_spf(grid, samples, radial_mode=mode).values,
        )


def test_grid_csv_mirror(tmp_path):
    out = tmp_path / "points.csv"
    assert main(["grid", "--format", "csv", "--mirror", "--output", str(out)]) == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "shell,b,x,y,z"
    assert len(rows) == 1 + 264
    data = np.array([[float(v) for v in row.split(",")] for row in rows[1:]])
    assert np.max(np.abs(data[:132, 2:] + data[132:, 2:])) == 0.0
    # the antipodes follow every sample, each with its sample's shell and b-value
    assert np.array_equal(data[:132, :2], data[132:, :2])
    grid = build_grid(1, 1000.0, (5,))
    assert format_points_csv(grid, mirror=True).startswith(format_points_csv(grid))


def test_mirror_requires_csv_format(capsys):
    with pytest.raises(SystemExit):
        main(["grid", "--format", "bvec", "--mirror"])


def test_forward_then_evaluate_round_trip(tmp_path, grid):
    desc_path = write_default_descriptor(tmp_path, grid)
    coeffs = random_staircase_signal(3, grid)
    values = synthesize_on_grid(coeffs, grid).real
    samples_path = tmp_path / "samples.txt"
    samples_path.write_text(
        "# samples\n" + "\n".join(repr(float(v)) for v in values) + "\n"
    )
    coeffs_path = tmp_path / "coeffs.csv"
    assert main([
        "forward", "--scheme", str(desc_path), "--samples", str(samples_path),
        "--output", str(coeffs_path),
    ]) == 0
    parsed = parse_coefficients_csv(coeffs_path.read_text())
    assert np.max(np.abs(parsed.values - coeffs.values)) < 1e-9

    queries_path = tmp_path / "queries.txt"
    rng = np.random.default_rng(4)
    dirs = rng.standard_normal((20, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    b = rng.uniform(0.0, 8000.0, 20)
    lines = [f"{b[i]} {dirs[i, 0]} {dirs[i, 1]} {dirs[i, 2]}" for i in range(20)]
    queries_path.write_text("\n".join(lines) + "\n")
    values_path = tmp_path / "values.txt"
    assert main([
        "evaluate", "--coefficients", str(coeffs_path), "--queries", str(queries_path),
        "--output", str(values_path),
    ]) == 0
    got = np.array([float(line) for line in values_path.read_text().splitlines()])
    expected = inverse_spf(coeffs, dirs, b=b).real
    assert np.max(np.abs(got - expected)) < 1e-9


def test_forward_counts_mismatch_message(tmp_path, grid, capsys):
    desc_path = write_default_descriptor(tmp_path, grid)
    samples_path = tmp_path / "short.txt"
    samples_path.write_text("\n".join(["1.0"] * 50) + "\n")
    code = main(["forward", "--scheme", str(desc_path), "--samples", str(samples_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert "132" in err and "50" in err


def test_zero_samples_give_zero_csv(tmp_path, grid, capsys):
    desc_path = write_default_descriptor(tmp_path, grid)
    samples_path = tmp_path / "zeros.txt"
    samples_path.write_text("\n".join(["0.0"] * 132) + "\n")
    assert main(["forward", "--scheme", str(desc_path), "--samples", str(samples_path)]) == 0
    parsed = parse_coefficients_csv(capsys.readouterr().out)
    assert np.max(np.abs(parsed.values)) == 0.0


def test_query_parse_errors_carry_line_numbers():
    with pytest.raises(CliError, match="line 2"):
        parse_queries("1000 1 0 0\n2000 0 0\n")
    with pytest.raises(CliError, match="line 3"):
        parse_queries("# c\n1000 1 0 0\n2000 0 zero 0\n")
    with pytest.raises(CliError, match="line 1"):
        parse_queries("-3 1 0 0\n")
    with pytest.raises(CliError, match="zero length"):
        parse_queries("1000 0 0 0\n")
    with pytest.raises(CliError):
        parse_queries("# only comments\n")


def test_query_directions_at_the_ends_of_the_float_range():
    # hypot of the raw components would overflow to inf or underflow to 0
    _, dirs = parse_queries("1 1.7e308 1.7e308 1.7e308\n1 1e-200 1e-200 0\n2 -5e-324 0 0\n")
    assert np.allclose(dirs, [[3**-0.5] * 3, [2**-0.5, 2**-0.5, 0.0], [-1.0, 0.0, 0.0]],
                       rtol=0, atol=1e-15)
    for zero in ("1 0 0 0\n", "1 -0.0 0 0.0\n"):
        with pytest.raises(CliError, match="line 1: direction has zero length"):
            parse_queries(zero)


def test_sample_parse_accepts_comments_and_complex():
    values = parse_samples("# header\n1.5\n\n2.5+0.5j\n")
    assert values.dtype == complex
    assert values[0] == 1.5 and values[1] == 2.5 + 0.5j
    real = parse_samples("1.0\n2.0\n")
    assert real.dtype == float
    with pytest.raises(CliError, match="line 2"):
        parse_samples("1.0\nnope\n")


def test_sample_parse_joins_a_spaced_complex_but_not_two_numbers():
    assert parse_samples("2.5 + 0.5j\n2.5+0.5j\n1 -2j\n").tolist() == [2.5 + 0.5j] * 2 + [1 - 2j]
    for text in ("1 2\n3\n", "3\n1.5 -2\n", "0\n1\n2.5 0.5j\n"):
        lineno = text.count("\n", 0, text.index(" ")) + 1
        with pytest.raises(CliError, match=f"line {lineno}: '.*' is not a number"):
            parse_samples(text)


_COEFFS_TEXT = format_coefficients_csv(random_staircase_signal(0, build_grid(1, 1000.0, (3,))))
_NOT_FINITE = ["nan", "inf", "1e400", "1x"]


@pytest.mark.parametrize(
    "parse, text, lineno, sep, field, tokens",
    [
        (parse_samples, "# c\n1.5\n\n2.5\n", 4, ",", 0, _NOT_FINITE + ["1+nanj"]),
        *[(parse_queries, "1000 0 0 1\n# c\n2500,0.6,0.8,0\n", 3, ",", field, _NOT_FINITE)
          for field in range(4)],
        # a 30-digit integer is exact, so only the coefficient set can refuse it
        *[(parse_coefficients_csv, _COEFFS_TEXT, 8, ",", field, _NOT_FINITE + ["1.5", "1" * 30])
          for field in range(3)],
        *[(parse_coefficients_csv, _COEFFS_TEXT, 8, ",", field, _NOT_FINITE)
          for field in (3, 4)],
    ],
    ids=["sample", "query-b", "query-ux", "query-uy", "query-uz",
         "coeff-n", "coeff-l", "coeff-m", "coeff-re", "coeff-im"],
)
def test_every_numeric_field_names_its_line(parse, text, lineno, sep, field, tokens):
    parse(text)
    lines = text.splitlines()
    for token in tokens:
        fields = lines[lineno - 1].split(sep)
        fields[field] = token
        bad = lines[: lineno - 1] + [sep.join(fields)] + lines[lineno:]
        with pytest.raises(CliError, match=rf"line {lineno}\b"):
            parse("\n".join(bad) + "\n")


def test_coefficients_csv_round_trip(grid):
    coeffs = random_staircase_signal(9, grid)
    text = format_coefficients_csv(coeffs)
    parsed = parse_coefficients_csv(text)
    assert np.array_equal(parsed.values, coeffs.values)
    assert parsed.zeta == coeffs.zeta
    assert parsed.index.bandlimits == coeffs.index.bandlimits
    with pytest.raises(CliError, match="missing"):
        parse_coefficients_csv("n,l,m,re,im\n")
    with pytest.raises(CliError, match="rows"):
        parse_coefficients_csv(text.rsplit("\n", 2)[0] + "\n")
    lines = text.splitlines()
    with pytest.raises(CliError, match=r"line 9: duplicate coefficient row for \(n=1, l=0, m=0\)"):
        parse_coefficients_csv("\n".join(lines[:8] + lines[7:8] + lines[9:]) + "\n")


def test_coefficient_row_count_is_checked_before_the_index_is_built(grid, monkeypatch):
    def fail(bandlimits):
        raise AssertionError("staircase_index called before the row count check")

    monkeypatch.setattr("qspf.cli.staircase_index", fail)
    text = format_coefficients_csv(random_staircase_signal(9, grid))
    header = text.split("n,l,m,re,im")[0]
    with pytest.raises(CliError, match="expected 8911 coefficient rows, got 0"):
        parse_coefficients_csv(header.replace("3,5,9,11", "133") + "n,l,m,re,im\n")
    # a band limit above 133 is refused before any row is counted
    with pytest.raises(CliError, match="bad metadata: band limit 1601 is above 133"):
        parse_coefficients_csv(header.replace("3,5,9,11", "1601") + "n,l,m,re,im\n")
    with pytest.raises(CliError, match="expected 132 coefficient rows, got 131"):
        parse_coefficients_csv(text.rsplit("\n", 2)[0] + "\n")


def test_evaluate_at_huge_b_gives_zero(tmp_path, grid, capsys):
    coeffs = random_staircase_signal(9, grid)
    coeffs_path = tmp_path / "c.csv"
    coeffs_path.write_text(format_coefficients_csv(coeffs))
    queries_path = tmp_path / "q.txt"
    queries_path.write_text("1e200 0 0 1\n")
    assert main([
        "evaluate", "--coefficients", str(coeffs_path), "--queries", str(queries_path),
    ]) == 0
    captured = capsys.readouterr()
    assert captured.out == "0.0\n"
    assert captured.err == ""


def test_evaluate_at_huge_physical_b_gives_zero(tmp_path, capsys):
    # the physical q = sqrt(b / (4 pi^2 tau)) overflows to its limit inf, where the signal is 0
    scheme_path = tmp_path / "scheme.json"
    assert main([
        "grid", "--convention", "physical", "--tau", "0.001", "--format", "json",
        "--output", str(scheme_path),
    ]) == 0
    samples_path = tmp_path / "samples.txt"
    samples_path.write_text("1.0\n" * 132)
    coeffs_path = tmp_path / "c.csv"
    assert main([
        "forward", "--scheme", str(scheme_path), "--samples", str(samples_path),
        "--output", str(coeffs_path),
    ]) == 0
    queries_path = tmp_path / "q.txt"
    queries_path.write_text("1.7e308 0 0 1\n")
    capsys.readouterr()
    assert main([
        "evaluate", "--coefficients", str(coeffs_path), "--queries", str(queries_path),
    ]) == 0
    captured = capsys.readouterr()
    assert captured.out == "0.0\n"
    assert captured.err == ""


def test_evaluate_prints_complex_for_non_real_tables(tmp_path, grid, capsys):
    coeffs = random_staircase_signal(9, grid)
    coeffs.values[coeffs.index.locate(0, 2, 0)] = 1.0 + 0.7j
    coeffs_path = tmp_path / "c.csv"
    coeffs_path.write_text(format_coefficients_csv(coeffs))
    queries_path = tmp_path / "q.txt"
    queries_path.write_text("1000 0 0 1\n")
    assert main([
        "evaluate", "--coefficients", str(coeffs_path), "--queries", str(queries_path),
    ]) == 0
    out = capsys.readouterr().out.strip()
    assert "j" in out
    complex(out)


def test_validate_default_passes(tmp_path):
    report_path = tmp_path / "report.json"
    code = main(["validate", "--draws", "5", "--output", str(report_path)])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["passed"] is True
    assert set(report["checks"]) == {
        "radial_orthonormality",
        "gaussian_moments",
        "quadrature_sharpness",
        "sht_conditioning",
        "sht_round_trip",
        "spf_round_trip",
    }


def test_validate_flags_degenerate_descriptor(tmp_path, grid):
    desc = descriptor_from_grid(grid)
    lats = desc["shells"][3]["ring_latitudes"]
    lats[1] = lats[0]
    desc_path = tmp_path / "degenerate.json"
    desc_path.write_text(json.dumps(desc))
    report_path = tmp_path / "report.json"
    code = main([
        "validate", "--from-descriptor", str(desc_path), "--draws", "3",
        "--output", str(report_path),
    ])
    assert code == 1
    report = json.loads(report_path.read_text())
    assert report["passed"] is False
    assert report["checks"]["sht_conditioning"]["passed"] is False
    assert report["checks"]["spf_round_trip"]["passed"] is False


def test_validate_micro_scheme(tmp_path):
    code = main([
        "validate", "--shells", "1", "--bmax", "1000", "--bandlimits", "1",
        "--draws", "3", "--output", str(tmp_path / "r.json"),
    ])
    assert code == 0


@pytest.mark.parametrize("draws", ["0", "-3"])
def test_validate_without_draws_is_an_error(tmp_path, capsys, draws):
    # zero draws would make both round trips read 0.0 and pass unchecked
    report_path = tmp_path / "r.json"
    code = main(["validate", "--bandlimits", "15,25,41,63", "--draws", draws,
                 "--output", str(report_path)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not report_path.exists()


def _run_qspf(*argv):
    """Run the CLI as a process, so that an uncaught exception would show as a traceback."""
    src = str(Path(qspf.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "qspf.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)


def test_validate_with_a_negative_seed_is_an_error(tmp_path):
    done = _run_qspf("validate", "--shells", "1", "--bmax", "1000", "--bandlimits", "1",
                     "--seed", "-1", "--output", str(tmp_path / "r.json"))
    assert done.returncode == 1
    assert done.stderr.startswith("error:") and "seed" in done.stderr
    assert "Traceback" not in done.stderr


def test_a_file_that_is_not_utf8_is_an_error(tmp_path, grid):
    scheme = write_default_descriptor(tmp_path, grid)
    samples = tmp_path / "samples.txt"
    samples.write_bytes(b"\xff1.0\n" * 132)
    done = _run_qspf("forward", "--scheme", str(scheme), "--samples", str(samples))
    assert done.returncode == 1
    assert done.stderr.startswith("error:") and str(samples) in done.stderr
    assert "Traceback" not in done.stderr


def test_a_huge_band_limit_is_refused_before_any_table_is_built():
    # L = 10001 once allocated 10001^2-sized tables until the process was killed
    done = _run_qspf("grid", "--shells", "1", "--bandlimits", "10001", "--format", "json")
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr.startswith("error: band limit 10001 is above 133")
    assert done.stderr.count("\n") == 1


def test_a_shell_count_whose_roots_overflow_is_one_error_line():
    # N = 400 once printed two RuntimeWarning lines before its error
    done = _run_qspf("grid", "--shells", "400", "--bandlimits", ",".join(["1"] * 400),
                     "--format", "json")
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr.startswith("error: the roots of the order-400 Laguerre polynomial")
    assert done.stderr.count("\n") == 1


def test_extreme_b_max_is_refused_or_validated_without_overflow():
    done = _run_qspf("grid", "--bmax", "1e300", "--format", "json")
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr.startswith("error:") and "b_max" in done.stderr
    assert "Traceback" not in done.stderr
    done = _run_qspf("validate", "--bmax", "1e60", "--draws", "3")
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["b_max"] == 1e60 and report["passed"]
    assert report["checks"]["gaussian_moments"]["value"] < 1e-13


def test_physical_convention_needs_tau(capsys):
    assert main(["grid", "--convention", "physical"]) == 1
    assert "tau" in capsys.readouterr().err
    assert main(["grid", "--convention", "physical", "--tau", "-1"]) == 1
    assert "tau" in capsys.readouterr().err
    # a diffusion time means nothing to the normalized convention
    assert main(["grid", "--tau", "0.02", "--format", "json"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "tau" in err


def test_cli_outputs_are_deterministic(tmp_path, grid):
    first = tmp_path / "one.json"
    second = tmp_path / "two.json"
    for out in (first, second):
        assert main(["grid", "--format", "json", "--output", str(out)]) == 0
    assert first.read_bytes() == second.read_bytes()
    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    for out in (r1, r2):
        assert main(["validate", "--draws", "5", "--seed", "3", "--output", str(out)]) == 0
    assert r1.read_bytes() == r2.read_bytes()


def _descriptor_edit(edit):
    def transform(desc):
        edit(desc)
        return json.dumps(desc)
    return transform


def _set_path(desc, path, value):
    """Set the descriptor entry at path, a tuple of keys and list indices."""
    for key in path[:-1]:
        desc = desc[key]
    desc[path[-1]] = value


def _set_field(path, value):
    return _descriptor_edit(lambda desc: _set_path(desc, path, value))


def _sample_line(lineno, text):
    def transform(samples):
        lines = samples.splitlines()
        lines[lineno - 1] = text
        return "\n".join(lines) + "\n"
    return transform


@pytest.mark.parametrize(
    "command, bad_file, transform, message",
    [
        ("forward", "scheme.json", lambda desc: "{not json", "is not valid JSON"),
        ("forward", "scheme.json", _descriptor_edit(lambda d: d.pop("b_max")), "'b_max'"),
        ("forward", "scheme.json",
         _descriptor_edit(lambda d: d["shells"][3]["ring_latitudes"].pop()), "ring latitudes"),
        ("forward", "scheme.json",
         _descriptor_edit(lambda d: d["shells"][1].update(bandlimit=7)), "shells[1].bandlimit"),
        ("forward", "samples.txt", _sample_line(5, "nan"), "line 5"),
        ("forward", "samples.txt", _sample_line(132, "-inf"), "line 132"),
        ("evaluate", "coeffs.csv",
         lambda text: text.replace("# convention=normalized", "# convention=weird"), "weird"),
        ("forward", "scheme.json",
         _set_field(("shells", 3, "ring_latitudes"), [0.2, 0.2, 0.5, 0.8, 1.1, 1.4]),
         "ill-conditioned"),
        ("forward", "scheme.json", _set_field(("shells", 2, "ring_phi_offsets", 0), float("inf")),
         "finite"),
        ("grid", "scheme.json", _set_field(("shells", 1, "ring_phi_offsets", 2), float("nan")),
         "finite"),
        ("forward", "scheme.json", _set_field(("shells", 0, "ring_latitudes", 0), float("nan")),
         "ring latitudes"),
        ("forward", "scheme.json", _set_field(("convention",), "normalized"), "convention"),
        ("forward", "scheme.json", _set_field(("b_max",), 1e300), "float range"),
        ("forward", "scheme.json", _set_field(("b_max",), 10**400), "too large"),
        ("evaluate", "queries.txt", lambda text: "nan 0 0 1\n", "line 1"),
        ("evaluate", "queries.txt", lambda text: "inf 0 0 1\n", "line 1"),
        ("evaluate", "queries.txt", lambda text: "1e400 0 0 1\n", "line 1"),
        ("evaluate", "queries.txt", lambda text: "# c\n1000 nan 0 1\n", "line 2"),
        ("evaluate", "queries.txt", lambda text: "1000 0 inf 1\n", "line 1"),
        ("evaluate", "coeffs.csv", _sample_line(7, "0,0,0,nan,0.0"), "line 7"),
        ("evaluate", "coeffs.csv", _sample_line(2, "# zeta=nan"), "zeta"),
        # both entries agree, so only the band limit rule can refuse it (it used to build L = 11)
        ("forward", "scheme.json",
         _descriptor_edit(lambda d: [_set_path(d, path, 11.5)
                                     for path in (("bandlimits", 3), ("shells", 3, "bandlimit"))]),
         "odd positive integer, got 11.5"),
        ("forward", "scheme.json",
         _descriptor_edit(lambda d: [_set_path(d, path, 135)
                                     for path in (("bandlimits", 3), ("shells", 3, "bandlimit"))]),
         "band limit 135 is above 133"),
    ],
    ids=["not-json", "no-bmax", "ring-count", "shell-bandlimit", "nan", "inf", "convention",
         "equal-latitudes", "inf-offset", "nan-offset-grid", "nan-latitude", "convention-string",
         "huge-bmax", "bmax-overflow",
         "query-b-nan", "query-b-inf", "query-b-overflow", "query-dir-nan", "query-dir-inf",
         "coeff-nan", "zeta-nan", "fractional-bandlimit", "bandlimit-over-133"],
)
def test_malformed_inputs_exit_with_error(tmp_path, grid, capsys, command, bad_file, transform,
                                          message):
    coeffs = random_staircase_signal(3, grid)
    samples = synthesize_on_grid(coeffs, grid).real
    good = {
        "scheme.json": descriptor_from_grid(grid),
        "samples.txt": "".join(f"{float(v)!r}\n" for v in samples),
        "coeffs.csv": format_coefficients_csv(coeffs),
        "queries.txt": "1000 0 0 1\n",
    }
    for name, content in good.items():
        if name == bad_file:
            content = transform(content)
        elif name == "scheme.json":
            content = json.dumps(content)
        (tmp_path / name).write_text(content)
    argv = {
        "forward": ["forward", "--scheme", "scheme.json", "--samples", "samples.txt"],
        "evaluate": ["evaluate", "--coefficients", "coeffs.csv", "--queries", "queries.txt"],
        "grid": ["grid", "--from-descriptor", "scheme.json", "--format", "csv"],
    }[command]
    argv = [str(tmp_path / a) if "." in a else a for a in argv]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert message in err


# Tokens that break parsers: non-finite and overflowing numbers, complex text, stray bytes.
_TOKENS = st.one_of(
    st.floats().map(repr),
    st.integers(-100, 100).map(str),
    st.sampled_from(["nan", "-inf", "1e400", "Infinity", "1+2j", "nanj", "#", "", "1" * 30]),
    st.text(max_size=4),
)


def _edited_text(text, sep):
    """Arbitrary text, or text with up to three of its sep-separated fields replaced."""
    lines = [line.split(sep) for line in text.splitlines()]
    edit = st.tuples(st.integers(0, len(lines) - 1), st.integers(0, 4), _TOKENS)

    def apply(edits):
        out = [list(fields) for fields in lines]
        for i, j, token in edits:
            out[i][j % len(out[i])] = token
        return "\n".join(sep.join(fields) for fields in out) + "\n"

    return st.one_of(st.text(), st.lists(edit, min_size=1, max_size=3).map(apply))


def _finite_queries(parsed):
    b, dirs = parsed
    return np.all(np.isfinite(b)) and np.all(np.abs(np.linalg.norm(dirs, axis=1) - 1.0) < 1e-12)


@pytest.mark.parametrize(
    "parse, valid, sep, check",
    [
        (parse_samples, "1.5\n-2\n3+1j\n# c\n0.25\n", ",",
         lambda values: np.all(np.isfinite(values))),
        (parse_queries, "1000 0 0 1\n# c\n2500,0.6,0.8,0\n0 1 0 0\n", " ", _finite_queries),
        (parse_coefficients_csv,
         format_coefficients_csv(random_staircase_signal(0, build_grid(1, 1000.0, (3,)))), ",",
         lambda coeffs: np.all(np.isfinite(coeffs.values)) and np.isfinite(coeffs.zeta)),
    ],
    ids=["samples", "queries", "coefficients"],
)
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_parsers_return_finite_data_or_cli_error(parse, valid, sep, check, data):
    text = data.draw(_edited_text(valid, sep))
    try:
        parsed = parse(text)
    except CliError:
        return
    assert check(parsed)


_JSON_VALUES = st.recursive(
    st.one_of(
        st.sampled_from([float("nan"), float("inf"), float("-inf")]),
        st.integers(-100, 100),
        st.text(max_size=6),
    ),
    lambda inner: st.lists(inner, max_size=6) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=3),
    max_leaves=8,
)
_DESCRIPTOR_FIELDS = (
    [(key,) for key in ("version", "n_shells", "b_max", "convention", "bandlimits", "zeta",
                        "bvalues", "weights", "shells")]
    + [("convention", key) for key in ("mode", "tau")]
    + [("shells", i, key) for i in range(4)
       for key in ("bandlimit", "ring_latitudes", "ring_phi_offsets")]
)


@given(path=st.sampled_from(_DESCRIPTOR_FIELDS), value=_JSON_VALUES)
@settings(max_examples=100, deadline=None)
def test_descriptor_fields_give_a_finite_grid_or_cli_error(grid, path, value):
    desc = descriptor_from_grid(grid)
    _set_path(desc, path, value)
    try:
        rebuilt = grid_from_descriptor(json.loads(json.dumps(desc)))
    except CliError:
        return
    assert np.all(np.isfinite(rebuilt.points)) and np.all(np.isfinite(rebuilt.bvalues))
