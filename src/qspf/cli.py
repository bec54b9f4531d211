"""Command line for grid generation, transforms, evaluation, validation.

Owns every file format the package reads or writes:

* FSL-style gradient tables: a `bvals` line (b-values to 0.1 s/mm^2) and
  three `bvecs` lines (unit-vector components, 6 significant digits).
* JSON scheme descriptor: lossless, self-contained record of a grid,
  b_max as requested; rebuilding from it reproduces the grid exactly, and
  the rebuilt grid writes the same descriptor.
* Points CSV: plot-ready `shell,b,x,y,z` rows, optionally mirrored to the
  full sphere.
* Coefficients CSV: `n,l,m,re,im` rows in coefficient-table order, with
  `# key=value` header comments carrying the radial scale and convention
  so the file is self-contained.
* Samples file: one value per line in grid sample order.
* Queries file: `b ux uy uz` per line (whitespace or commas).

Every input is UTF-8 text. The line-based inputs (samples, coefficients,
queries) skip blank lines and `#` comments, every number must be finite,
and a malformed line raises CliError naming its line; `main` prints any
CliError, ConditioningError or library ValueError as `error: ...` and
returns 1. Output is deterministic: identical invocations produce
byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

import numpy as np

from .errors import ConditioningError
from .multishell import (MultiShellGrid, SpfCoefficients, _checked_bandlimits, _finite_values,
                         build_grid, forward_spf, inverse_spf, staircase_index)
from .radial import BConvention
from .validate import run_validation

__all__ = [
    "main",
    "descriptor_from_grid",
    "grid_from_descriptor",
    "format_bvals",
    "format_bvecs",
    "format_points_csv",
    "format_coefficients_csv",
    "parse_coefficients_csv",
    "parse_samples",
    "parse_queries",
]

DESCRIPTOR_VERSION = 1


class CliError(Exception):
    """User-facing command failure; message printed to stderr, exit 1."""


# ---------------------------------------------------------------- formats


def descriptor_from_grid(grid: MultiShellGrid) -> dict:
    """Lossless JSON-ready description of a grid."""
    radial = grid.radial
    return {
        "version": DESCRIPTOR_VERSION,
        "n_shells": grid.n_shells,
        "b_max": radial.b_max,
        "convention": {"mode": radial.convention.mode, "tau": radial.convention.tau},
        "bandlimits": list(grid.bandlimits),
        "zeta": float(radial.zeta),
        "bvalues": [float(b) for b in radial.bvalues],
        "weights": [float(w) for w in radial.weights],
        "shells": [
            {
                "bandlimit": scheme.bandlimit,
                "ring_latitudes": [float(t) for t in scheme.thetas],
                "ring_phi_offsets": [float(p) for p in scheme.phi_offsets],
            }
            for scheme in grid.angular
        ],
    }


def grid_from_descriptor(desc: dict) -> MultiShellGrid:
    """Rebuild a grid from its descriptor, ring placements included.

    Only the primary fields (shell count, b_max, convention, band limits,
    ring placements) drive the rebuild; stored derived values (zeta,
    b-values, weights) are informational.
    """
    if not isinstance(desc, dict):
        raise CliError("descriptor must be a JSON object")
    if desc.get("version") != DESCRIPTOR_VERSION:
        raise CliError(f"unsupported descriptor version {desc.get('version')!r}")
    try:
        conv = desc.get("convention", {})
        if not isinstance(conv, dict):
            raise CliError("descriptor convention must be a JSON object")
        convention = BConvention(conv.get("mode", "normalized"), conv.get("tau"))
        shells = desc["shells"]
        if len(shells) != desc["n_shells"]:
            raise CliError("descriptor shell list does not match n_shells")
        for i, (shell, L) in enumerate(zip(shells, desc["bandlimits"])):
            if shell["bandlimit"] != L:
                raise CliError(f"shells[{i}].bandlimit disagrees with bandlimits[{i}] = {L}")
        return build_grid(
            desc["n_shells"],
            desc["b_max"],
            desc["bandlimits"],
            convention,
            ring_latitudes=[np.asarray(s["ring_latitudes"], dtype=float) for s in shells],
            ring_offsets=[np.asarray(s["ring_phi_offsets"], dtype=float) for s in shells],
        )
    except KeyError as exc:
        raise CliError(f"descriptor is missing {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:  # JSON ints have no size limit
        raise CliError(f"bad descriptor: {exc}") from None


def format_bvals(grid: MultiShellGrid) -> str:
    return " ".join(f"{b:.1f}" for b in grid.bvalues) + "\n"


def format_bvecs(grid: MultiShellGrid) -> str:
    lines = []
    for axis in range(3):
        lines.append(" ".join(f"{c:.6g}" for c in grid.points[:, axis]))
    return "\n".join(lines) + "\n"


def format_points_csv(grid: MultiShellGrid, mirror: bool = False) -> str:
    points = grid.points
    shells = grid.shell_of
    bvals = grid.bvalues
    if mirror:
        points = np.vstack([points, -points])
        shells = np.concatenate([shells, shells])
        bvals = np.concatenate([bvals, bvals])
    lines = ["shell,b,x,y,z"]
    for i in range(len(points)):
        x, y, z = (float(c) for c in points[i])
        lines.append(f"{int(shells[i])},{float(bvals[i])!r},{x!r},{y!r},{z!r}")
    return "\n".join(lines) + "\n"


def format_coefficients_csv(coeffs: SpfCoefficients) -> str:
    conv = coeffs.convention
    lines = [
        "# qspf coefficients",
        f"# zeta={float(coeffs.zeta)!r}",
        f"# convention={conv.mode}",
        f"# tau={'' if conv.tau is None else repr(float(conv.tau))}",
        "# bandlimits=" + ",".join(str(L) for L in coeffs.index.bandlimits),
        "n,l,m,re,im",
    ]
    for (n, l, m), value in zip(coeffs.index.entries, _finite_values(coeffs)):
        lines.append(f"{n},{l},{m},{float(value.real)!r},{float(value.imag)!r}")
    return "\n".join(lines) + "\n"


def _records(text: str):
    """Yield (line number, stripped line) for each line that is neither blank nor a # comment."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def _numbers(lineno: int, fields, kind) -> list:
    """Each field converted by kind (int, float or complex); CliError names the line and field."""
    values = []
    for field in fields:
        try:
            value = kind(field)
        except ValueError:
            kind_name = "an integer" if kind is int else "a number"
            raise CliError(f"line {lineno}: {field!r} is not {kind_name}") from None
        # ints are exact, and np.isfinite raises TypeError on one wider than 64 bits
        if kind is not int and not np.isfinite(value):
            raise CliError(f"line {lineno}: {field!r} is not finite")
        values.append(value)
    return values


def parse_coefficients_csv(text: str) -> SpfCoefficients:
    comments = [line.lstrip("#") for line in map(str.strip, text.splitlines())
                if line.startswith("#")]
    meta = {key.strip(): val.strip() for key, eq, val in (c.partition("=") for c in comments) if eq}
    records = list(_records(text))
    for lineno, line in records[:1]:  # the header, if the file has any record
        if line.replace(" ", "") != "n,l,m,re,im":
            raise CliError(f"line {lineno}: expected header 'n,l,m,re,im', got {line!r}")
    rows = []
    for lineno, line in records[1:]:
        parts = line.split(",")
        if len(parts) != 5:
            raise CliError(f"line {lineno}: expected 5 fields, got {len(parts)}")
        rows.append((lineno, _numbers(lineno, parts[:3], int), _numbers(lineno, parts[3:], float)))
    for key in ("zeta", "convention", "bandlimits"):
        if key not in meta:
            raise CliError(f"coefficients file is missing '# {key}=' metadata")
    try:
        tau = float(meta["tau"]) if meta.get("tau") else None
        convention = BConvention(meta["convention"], tau)
        bandlimits = _checked_bandlimits(int(t) for t in meta["bandlimits"].split(","))
        zeta = float(meta["zeta"])
    except ValueError as exc:
        raise CliError(f"bad metadata: {exc}") from None
    # the index costs time and memory as L^2, so count the rows before building it
    expected = sum(L * (L + 1) // 2 for L in bandlimits)
    if len(rows) != expected:
        raise CliError(f"expected {expected} coefficient rows, got {len(rows)}")
    index = staircase_index(bandlimits)
    values = np.zeros(index.size, dtype=complex)
    seen = np.zeros(index.size, dtype=bool)
    for lineno, (n, l, m), (re, im) in rows:
        try:
            pos = index.locate(n, l, m)
        except ValueError as exc:
            raise CliError(f"line {lineno}: {exc}") from None
        if seen[pos]:
            raise CliError(f"line {lineno}: duplicate coefficient row for (n={n}, l={l}, m={m})")
        seen[pos] = True
        values[pos] = re + 1j * im
    return SpfCoefficients(index, zeta, convention, values)


def parse_samples(text: str) -> np.ndarray:
    """One finite value per line in grid sample order; complex as 'a+bj' or 'a + bj'.

    Real (float) unless some value has a non-zero imaginary part; '1 2' is an error.
    """
    values = np.array([_numbers(lineno, [re.sub(r"\s*([+-])\s*", r"\1", line)], complex)[0]
                       for lineno, line in _records(text)], dtype=complex)
    return values.real.copy() if np.all(values.imag == 0) else values


def parse_queries(text: str):
    """Rows of b-value and direction; returns (b array, unit directions)."""
    bvals, dirs = [], []
    for lineno, line in _records(text):
        parts = line.replace(",", " ").split()
        if len(parts) != 4:
            raise CliError(f"line {lineno}: expected 'b ux uy uz', got {len(parts)} fields")
        b, ux, uy, uz = _numbers(lineno, parts, float)
        if b < 0:
            raise CliError(f"line {lineno}: b-value must be non-negative")
        # scaled by a power of two, hypot neither overflows nor underflows and the ratios are exact
        exponent = math.frexp(max(abs(ux), abs(uy), abs(uz)))[1]
        ux, uy, uz = (math.ldexp(c, -exponent) for c in (ux, uy, uz))
        norm = math.hypot(ux, uy, uz)
        if norm == 0.0:
            raise CliError(f"line {lineno}: direction has zero length")
        bvals.append(b)
        dirs.append((ux / norm, uy / norm, uz / norm))
    if not bvals:
        raise CliError("query file contains no rows")
    return np.asarray(bvals), np.asarray(dirs)


def _is_real_signal(coeffs: SpfCoefficients) -> bool:
    """True when the table obeys the real-signal conjugation symmetry."""
    values = coeffs.values
    scale = max(np.max(np.abs(values)), 1.0)
    # c_{n,l,-m} = (-1)^m conj(c_{n,l,m}); at m = 0 this asks for a zero imaginary part
    return bool(np.all(np.abs(values - coeffs.index.mirrored(values)) <= 1e-9 * scale))


# ---------------------------------------------------------------- commands


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}") from None


def _write_text(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from None
    print(f"wrote {path}", file=sys.stderr)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float) and not np.isfinite(obj):
        return repr(obj)
    return obj


def _load_descriptor(path: str) -> MultiShellGrid:
    try:
        desc = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise CliError(f"{path} is not valid JSON: {exc}") from None
    return grid_from_descriptor(desc)


def _grid_from_args(args) -> MultiShellGrid:
    if args.from_descriptor:
        return _load_descriptor(args.from_descriptor)
    try:
        bandlimits = tuple(int(t) for t in args.bandlimits.split(","))
    except ValueError:
        raise CliError(f"cannot parse band limits {args.bandlimits!r}") from None
    return build_grid(args.shells, args.bmax, bandlimits, BConvention(args.convention, args.tau))


def cmd_grid(args) -> int:
    grid = _grid_from_args(args)
    if args.format == "bvec":
        if args.output:
            _write_text(format_bvals(grid), args.output + ".bvals")
            _write_text(format_bvecs(grid), args.output + ".bvecs")
        else:
            sys.stdout.write(format_bvals(grid))
            sys.stdout.write(format_bvecs(grid))
    elif args.format == "json":
        text = json.dumps(descriptor_from_grid(grid), indent=2) + "\n"
        _write_text(text, args.output)
    else:
        _write_text(format_points_csv(grid, mirror=args.mirror), args.output)
    return 0


def cmd_forward(args) -> int:
    grid = _load_descriptor(args.scheme)
    samples = parse_samples(_read_text(args.samples))
    if samples.shape != (grid.n_samples,):
        raise CliError(
            f"scheme expects {grid.n_samples} samples, file has {len(samples)}"
        )
    coeffs = forward_spf(grid, samples, radial_mode=args.radial_mode)
    _write_text(format_coefficients_csv(coeffs), args.output)
    return 0


def cmd_evaluate(args) -> int:
    coeffs = parse_coefficients_csv(_read_text(args.coefficients))
    bvals, dirs = parse_queries(_read_text(args.queries))
    values = inverse_spf(coeffs, dirs, b=bvals)
    if _is_real_signal(coeffs):
        lines = [repr(float(v.real)) for v in values]
    else:
        lines = [repr(complex(v)) for v in values]
    _write_text("\n".join(lines) + "\n", args.output)
    return 0


def cmd_validate(args) -> int:
    grid = _grid_from_args(args)
    report = run_validation(grid=grid, seed=args.seed, n_draws=args.draws)
    _write_text(json.dumps(_jsonable(report), indent=2) + "\n", args.output)
    return 0 if report["passed"] else 1


def _add_grid_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--shells", type=int, default=4, help="number of shells (default 4)")
    parser.add_argument("--bmax", type=float, default=8000.0,
                        help="outermost shell b-value in s/mm^2 (default 8000)")
    parser.add_argument("--bandlimits", default="3,5,9,11",
                        help="comma-separated odd band limits, one per shell")
    parser.add_argument("--convention", choices=("normalized", "physical"),
                        default="normalized", help="b-value convention")
    parser.add_argument("--tau", type=float, default=None,
                        help="diffusion time in seconds (physical convention)")
    parser.add_argument("--from-descriptor", default=None, metavar="FILE",
                        help="rebuild the grid from a JSON descriptor instead")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qspf",
        description="Multi-shell q-space sampling schemes and their exact transforms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_grid = sub.add_parser("grid", help="generate a sampling grid and export it")
    _add_grid_arguments(p_grid)
    p_grid.add_argument("--format", choices=("bvec", "json", "csv"), default="bvec",
                        help="bvec: FSL bvals/bvecs; json: descriptor; csv: plot points")
    p_grid.add_argument("--mirror", action="store_true",
                        help="csv only: append antipodes for full-sphere plotting")
    p_grid.add_argument("--output", default=None,
                        help="output path (bvec: prefix for .bvals/.bvecs); default stdout")
    p_grid.set_defaults(func=cmd_grid)

    p_fwd = sub.add_parser("forward", help="transform a sample file to coefficients")
    p_fwd.add_argument("--scheme", required=True, help="JSON scheme descriptor")
    p_fwd.add_argument("--samples", required=True,
                       help="signal values, one per line in grid order")
    p_fwd.add_argument("--radial-mode", choices=("staircase", "zero_padded"),
                       default="staircase", help="radial recovery path")
    p_fwd.add_argument("--output", default=None, help="coefficients CSV path; default stdout")
    p_fwd.set_defaults(func=cmd_forward)

    p_eval = sub.add_parser("evaluate", help="evaluate coefficients at query points")
    p_eval.add_argument("--coefficients", required=True, help="coefficients CSV")
    p_eval.add_argument("--queries", required=True,
                        help="query rows 'b ux uy uz' (directions are normalized)")
    p_eval.add_argument("--output", default=None, help="values path; default stdout")
    p_eval.set_defaults(func=cmd_evaluate)

    p_val = sub.add_parser("validate", help="run scheme self-checks, exit 1 on failure")
    _add_grid_arguments(p_val)
    p_val.add_argument("--seed", type=int, default=0, help="seed for random-signal checks")
    p_val.add_argument("--draws", type=int, default=100,
                       help="random draws per round-trip check (default 100)")
    p_val.add_argument("--output", default=None, help="report JSON path; default stdout")
    p_val.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "grid" and args.mirror and args.format != "csv":
        parser.error("--mirror applies only to --format csv")
    # ValueError is the error the library documents for bad input
    try:
        return args.func(args)
    except (CliError, ConditioningError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
