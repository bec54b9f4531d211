"""The four benchmark workloads and the closed loop that times them.

Each workload is driven as a closed loop by a single client in one
process: the next operation starts only after the previous one returned,
because qspf serves no arriving traffic and every caller waits for its
result. Operations come in fixed blocks whose mix is drawn from the seed,
so every block holds the same classes of work in the same proportions.

A workload object
  * generates every input from the seed before anything is timed (the
    program receives only arrays and files),
  * ``setup()``: the qspf calls the timed loop depends on; the caller
    times them and reports the median as ``setup_s``,
  * ``block()``: the ``(kind, call, check)`` operations of the next block.
    ``check(output)`` runs outside the timed region and returns None when
    the output is correct, KNOWN for the documented known failure, or a
    message for any other failure.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import qspf
import qspf.cli

KNOWN = "known"

N_SHELLS = 4
B_MAX = 8000.0
DEFAULT_BANDLIMITS = (3, 5, 9, 11)
NOISE_SIGMAS = (0.0, 0.02, 0.05)

# Scheme construction and SHT round trips from the default grid up to L=63.
LADDER = (
    (3, 5, 9, 11),
    (5, 9, 13, 17),
    (7, 11, 15, 21),
    (9, 15, 21, 31),
    (11, 19, 29, 41),
    (15, 25, 41, 63),
)
# One draw per round-trip check keeps a 28 s run above 100 operations.
VALIDATION_DRAWS = 1
# run_validation at (15,25,41,63) misses these thresholds on every seed
# tried (sht_round_trip ~4e-10 > 1e-10, spf_round_trip ~3e-9 > 1e-9).
# The failure is counted in `failed`; only a failure outside this set
# makes the run incorrect.
KNOWN_VALIDATION_FAILURES = {(15, 25, 41, 63): {"sht_round_trip", "spf_round_trip"}}

GATE_TOL = 1e-9
EVAL_CHECKED_POINTS = 16


def default_grid():
    return qspf.build_grid(N_SHELLS, B_MAX, DEFAULT_BANDLIMITS)


def random_directions(rng, count: int) -> np.ndarray:
    dirs = rng.standard_normal((count, 3))
    return dirs / np.linalg.norm(dirs, axis=1, keepdims=True)


def phantom_voxels(rng, grid, count: int) -> np.ndarray:
    """Noisy 1-3 fibre crossings sampled on the grid, one row per voxel.

    Fibres lie in one plane at random crossing angles with random volume
    fractions; the whole configuration is randomly rotated, and Rician
    noise with sigma drawn from NOISE_SIGMAS is added.
    """
    voxels = np.empty((count, grid.n_samples))
    for v in range(count):
        n_fibres = int(rng.integers(1, 4))
        angles = np.concatenate([[0.0], np.cumsum(rng.uniform(30.0, 90.0, n_fibres - 1))])
        fractions = rng.dirichlet(np.ones(n_fibres))
        mixture = [
            qspf.TensorComponent(qspf.two_tensor_crossing(float(a))[1].tensor, float(f))
            for a, f in zip(angles, fractions)
        ]
        rotation, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        clean = qspf.multi_tensor_eval(mixture, grid.bvalues, grid.points @ rotation)
        sigma = float(rng.choice(NOISE_SIGMAS))
        voxels[v] = qspf.add_rician_noise(clean, sigma, int(rng.integers(2**31)))
    return voxels


def direct_basis(entries, theta, phi, q, zeta, limits=None) -> np.ndarray:
    """Matrix of R_n(q_p) Y_l^m(theta_p, phi_p), one row per point.

    Built term by term from spherical_harmonic and radial_basis_eval, as
    the reference the transforms are checked against. With ``limits``,
    degrees at or above a point's band limit are zero (the per-shell
    truncation synthesize_on_grid applies).
    """
    harmonics = {}
    radial = {}
    out = np.empty((len(theta), len(entries)), dtype=complex)
    for col, (n, l, m) in enumerate(entries):
        if (l, m) not in harmonics:
            harmonics[l, m] = qspf.spherical_harmonic(l, m, theta, phi)
        if n not in radial:
            radial[n] = qspf.radial_basis_eval(n, q, zeta)
        out[:, col] = radial[n] * harmonics[l, m]
    if limits is not None:
        degrees = np.array([l for _, l, _ in entries])
        out[degrees[None, :] >= np.asarray(limits)[:, None]] = 0.0
    return out


def angles_of(directions):
    theta = np.arccos(np.clip(directions[:, 2], -1.0, 1.0))
    return theta, np.arctan2(directions[:, 1], directions[:, 0])


def relative_error(got, want) -> float:
    return float(np.max(np.abs(got - want)) / max(1.0, float(np.max(np.abs(want)))))


class Workload:
    """Defaults shared by the workloads."""

    def prepare_checks(self):
        """Build the correctness references; runs after setup, untimed."""


class FitVoxels(Workload):
    """Noisy voxels on the default grid, one forward_spf call each.

    The production path: N voxels through one grid. Time goes mostly to
    the radial and angular layers. radial_mode is passed on every call,
    3 staircase : 1 zero_padded per block, so a later change of default
    does not change the workload and both radial paths stay measured.
    """

    pool = 256

    def __init__(self, seed: int, workdir: Path):
        self.rng = np.random.default_rng(seed)
        grid = default_grid()
        self.voxels = phantom_voxels(self.rng, grid, self.pool)
        theta, phi = angles_of(grid.points)
        zp_index = qspf.staircase_index((max(grid.bandlimits),) * grid.n_shells)
        limits = np.asarray(grid.bandlimits)[grid.shell_of]
        self.synthesis = {
            mode: direct_basis(index.entries, theta, phi, grid.radii, grid.radial.zeta, limits)
            for mode, index in (("staircase", grid.index), ("zero_padded", zp_index))
        }
        self.next_voxel = 0

    def setup(self):
        self.grid = default_grid()

    def block(self):
        ops = []
        for mode in self.rng.permutation(["staircase"] * 3 + ["zero_padded"]):
            samples = self.voxels[self.next_voxel % self.pool]
            self.next_voxel += 1
            ops.append((
                str(mode),
                lambda s=samples, m=str(mode): qspf.forward_spf(self.grid, s, radial_mode=m),
                lambda c, s=samples, m=str(mode): self.check(c, s, m),
            ))
        return ops

    def check(self, coeffs, samples, mode):
        # in both modes, synthesizing the fitted table on the grid (each
        # shell truncated at its band limit) returns the input samples
        err = relative_error(self.synthesis[mode] @ coeffs.values, samples)
        return None if err <= GATE_TOL else f"{mode} round trip error {err:.3g}"


class EvalQueries(Workload):
    """Fitted tables evaluated by inverse_spf at batches of 1, 64 and 4096 points.

    The read side of the multishell layer. Its cost sits in inverse_spf's
    per-entry loop and in normalized_legendre; the forward path only runs
    in set-up. Equal thirds put p50 in the 64-point class and p90 in the
    4096-point class, so a change that helps big batches but costs small
    ones shows.
    """

    sizes = (1, 64, 4096)
    tables = 8
    batches_per_size = 4

    def __init__(self, seed: int, workdir: Path):
        self.rng = np.random.default_rng(seed)
        self.voxels = phantom_voxels(self.rng, default_grid(), self.tables)
        self.batches = {
            size: [
                (random_directions(self.rng, size), self.rng.uniform(0.0, B_MAX, size))
                for _ in range(self.batches_per_size)
            ]
            for size in self.sizes
        }
        self.used = 0

    def setup(self):
        grid = default_grid()
        self.fitted = [qspf.forward_spf(grid, v, radial_mode="staircase") for v in self.voxels]

    def prepare_checks(self):
        """Direct-sum reference values on the first points of every batch."""
        index = self.fitted[0].index
        zeta = self.fitted[0].zeta
        convention = self.fitted[0].convention
        self.expected = {}
        for size, batches in self.batches.items():
            for b_idx, (dirs, bvals) in enumerate(batches):
                k = min(size, EVAL_CHECKED_POINTS)
                theta, phi = angles_of(dirs[:k])
                basis = direct_basis(index.entries, theta, phi, convention.q_from_b(bvals[:k]), zeta)
                for t_idx, table in enumerate(self.fitted):
                    self.expected[size, b_idx, t_idx] = basis @ table.values

    def block(self):
        ops = []
        for size in self.rng.permutation(self.sizes):
            size = int(size)
            b_idx = self.used % self.batches_per_size
            t_idx = self.used % self.tables
            self.used += 1
            dirs, bvals = self.batches[size][b_idx]
            key = (size, b_idx, t_idx)
            ops.append((
                str(size),
                lambda t=self.fitted[t_idx], d=dirs, b=bvals: qspf.inverse_spf(t, d, b=b),
                lambda out, key=key: self.check(out, key),
            ))
        return ops

    def check(self, values, key):
        want = self.expected[key]
        err = relative_error(np.asarray(values)[: len(want)], want)
        return None if err <= GATE_TOL else f"inverse_spf differs from the direct sum by {err:.3g}"


class BuildValidate(Workload):
    """build_grid plus run_validation over a ladder of band limits.

    The only place scheme construction runs at high band limits
    (make_angular_scheme with its condition-number sweep and Legendre
    tables) and SHT round trips run at large L.
    """

    def __init__(self, seed: int, workdir: Path):
        self.rng = np.random.default_rng(seed)

    def setup(self):
        # one build per rung before timing; the timed operations build again
        for bandlimits in LADDER:
            qspf.build_grid(N_SHELLS, B_MAX, bandlimits)

    def block(self):
        ops = []
        for rung in self.rng.permutation(len(LADDER)):
            bandlimits = LADDER[rung]
            seed = int(self.rng.integers(2**31))
            ops.append((
                "L" + str(max(bandlimits)),
                lambda bl=bandlimits, s=seed: qspf.run_validation(
                    grid=qspf.build_grid(N_SHELLS, B_MAX, bl), seed=s, n_draws=VALIDATION_DRAWS
                ),
                lambda report, bl=bandlimits: self.check(report, bl),
            ))
        return ops

    @staticmethod
    def check(report, bandlimits):
        if report["passed"]:
            return None
        failing = {name for name, c in report["checks"].items() if not c["passed"]}
        if failing <= KNOWN_VALIDATION_FAILURES.get(tuple(bandlimits), set()):
            return KNOWN
        return f"validation of {bandlimits} failed {sorted(failing)}"


CLI_COMMANDS = ("import", "grid", "forward", "evaluate", "validate")


class CliCold(Workload):
    """Cold processes: import qspf, then the grid, forward, evaluate and validate commands.

    The process layer (interpreter start and cold import, mostly scipy) is
    invisible to the in-process workloads. qspf is run from source with
    src on PYTHONPATH; nothing is installed.
    """

    queries = 64
    validate_draws = 10

    def __init__(self, seed: int, workdir: Path):
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        grid = default_grid()
        self.voxel = phantom_voxels(self.rng, grid, 1)[0]
        dirs = random_directions(self.rng, self.queries)
        bvals = self.rng.uniform(0.0, B_MAX, self.queries)
        (workdir / "samples.txt").write_text("".join(f"{float(v)!r}\n" for v in self.voxel))
        (workdir / "queries.txt").write_text(
            "".join(f"{b!r} {x!r} {y!r} {z!r}\n" for b, (x, y, z) in zip(bvals.tolist(), dirs.tolist()))
        )
        self.validate_seed = int(self.rng.integers(2**31))
        self.env = dict(os.environ)
        src = str(Path(qspf.__file__).resolve().parent.parent)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))

    def setup(self):
        grid = default_grid()
        self.descriptor = qspf.cli.descriptor_from_grid(grid)
        self.coeffs = qspf.forward_spf(grid, self.voxel, radial_mode="staircase")

    def argv(self, command):
        if command == "import":
            return ["-c", "import qspf"]
        work = self.workdir
        cli = {
            "grid": ["grid", "--format", "json"],
            "forward": ["forward", "--scheme", str(work / "scheme.json"),
                        "--samples", str(work / "samples.txt")],
            "evaluate": ["evaluate", "--coefficients", str(work / "coeffs.csv"),
                         "--queries", str(work / "queries.txt")],
            "validate": ["validate", "--draws", str(self.validate_draws),
                         "--seed", str(self.validate_seed)],
        }[command]
        return ["-m", "qspf.cli"] + cli

    def prepare_checks(self):
        """Write the input files and render every command's output in-process."""
        (self.workdir / "scheme.json").write_text(json.dumps(self.descriptor, indent=2) + "\n")
        (self.workdir / "coeffs.csv").write_text(qspf.cli.format_coefficients_csv(self.coeffs))
        self.expected = {"import": ""}
        for command in CLI_COMMANDS[1:]:
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = qspf.cli.main(self.argv(command)[2:])
            if code != 0:
                raise RuntimeError(f"in-process reference for {command} exited {code}")
            self.expected[command] = buffer.getvalue()

    def run(self, command):
        proc = subprocess.run(
            [sys.executable] + self.argv(command),
            cwd=self.workdir, env=self.env, capture_output=True, text=True, timeout=120,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def block(self):
        return [
            (command, lambda c=command: self.run(c), lambda out, c=command: self.check(out, c))
            for command in CLI_COMMANDS
        ]

    def check(self, result, command):
        code, stdout, stderr = result
        if code != 0:
            return f"{command} exited {code}: {stderr.strip()[-200:]}"
        if stdout != self.expected[command]:
            return f"{command} output differs from the in-process reference"
        return None


WORKLOADS = {
    "fit_voxels": FitVoxels,
    "eval_queries": EvalQueries,
    "build_validate": BuildValidate,
    "cli_cold": CliCold,
}


# Share of each operation class's executions that its timings are taken
# over: the fastest fiftieth. On a shared 2-vCPU VM the core speed flips
# between two states about 1.5x apart for seconds at a time, and the share
# of a run spent in the slow state is not reproducible; the fast state is.
FAST_SHARE = 0.02


def fastest(times) -> list:
    """The fastest fiftieth of a list of timings, at least one."""
    times = sorted(times)
    return times[: max(1, round(len(times) * FAST_SHARE))]


def fast_median(times) -> float:
    return statistics.median(fastest(times))


class LoopResult:
    def __init__(self):
        self.latencies = []  # (kind, seconds) per operation
        self.setup_times = []
        self.blocks = 0
        self.failed = 0
        self.known = 0
        self.messages = []

    @property
    def ops(self):
        return len(self.latencies)

    def fast_latencies(self) -> list:
        """The fastest fiftieth of every operation class, in the block's proportions."""
        by_kind = {}
        for kind, t in self.latencies:
            by_kind.setdefault(kind, []).append(t)
        return [t for times in by_kind.values() for t in fastest(times)]

    def summary(self, latencies) -> dict:
        return {
            "ops_per_s": len(latencies) / sum(latencies),
            "op_p50_ms": 1e3 * float(np.percentile(latencies, 50)),
            "op_p90_ms": 1e3 * float(np.percentile(latencies, 90)),
        }


def closed_loop(workload, seconds: float, tracer=None, setups: int = 0) -> LoopResult:
    """Run whole blocks, one operation at a time, until ``seconds`` have passed.

    ``setups`` timed set-ups are spread evenly over the run, between
    blocks; their time does not count towards ``seconds``.
    """
    result = LoopResult()
    begin = perf_counter()
    in_setup = 0.0
    while True:
        for kind, call, check in workload.block():
            t0 = perf_counter()
            try:
                output = call()
                error = None
            except Exception as exc:  # a raising operation is a failed operation
                output, error = None, f"{kind} raised {type(exc).__name__}: {exc}"
            if tracer is not None:
                tracer.end_op()
            result.latencies.append((kind, perf_counter() - t0))
            if error is None:
                error = check(output)
            if error == KNOWN:
                result.known += 1
                result.failed += 1
            elif error is not None:
                result.failed += 1
                if len(result.messages) < 5:
                    result.messages.append(error)
        result.blocks += 1
        elapsed = perf_counter() - begin - in_setup
        if elapsed >= seconds:
            return result
        done = len(result.setup_times)
        if done < setups and elapsed >= (done + 1) * seconds / (setups + 1):
            t0 = perf_counter()
            workload.setup()
            result.setup_times.append(perf_counter() - t0)
            in_setup += result.setup_times[-1]


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0
