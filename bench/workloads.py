"""The three benchmark workloads and the checks on their outputs.

Every workload is a closed loop with one caller: each library call or
CLI process starts when the previous one has returned. A pass runs the
workload's whole operation table once and returns the seconds it spent
in each end-to-end phase:

- ``pack_s``: ``pack()`` calls;
- ``certify_s``: library ``certify()`` calls made by the benchmark;
- ``frame_io_s``: ``save_frame`` then ``load_frame`` round trips;
- ``cli_s``: ``grasspack`` CLI cold processes.

Every workload has some work in every phase, so that every end-to-end
metric is measured (and nonzero) on every workload. See README.md for
why each workload exists and which layers it stresses.
"""

from __future__ import annotations

import importlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from grasspack import DifferenceSet, FieldTag, PackConfig, harmonic_etf, random_frame, tensor_eitff
from grasspack.optimize import Criterion
from tracing import worst_overlap

# The package re-exports the function ``certify`` under the name of its
# module, so modules are looked up by import_module, not as package
# attributes. The benchmark calls the library through these module
# attributes, which the tracer wraps.
optimize = importlib.import_module("grasspack.optimize")
certify_mod = importlib.import_module("grasspack.certify")
cli = importlib.import_module("grasspack.cli")
bounds = importlib.import_module("grasspack.bounds")

PHASES = ("pack_s", "certify_s", "frame_io_s", "cli_s")
R, C = FieldTag.REAL, FieldTag.COMPLEX
CHORDAL, SPECTRAL = Criterion.CHORDAL_OVERLAP, Criterion.SPECTRAL_OVERLAP
ORTHONORMAL_TOL = 1e-8
KNOWN_GAP_LIMIT = 1e-3  # the acceptance test c07's threshold
SOLVED_GAP = 1e-8


@dataclass(frozen=True)
class Instance:
    label: str
    field: FieldTag
    d: int
    c: int
    n: int
    criterion: Criterion = CHORDAL
    iterations: int = 2000  # PackConfig's defaults
    restarts: int = 10
    expect: str | None = None  # certificate flag a solved result must set

    def config(self, seed: int) -> PackConfig:
        return PackConfig(
            criterion=self.criterion, iterations=self.iterations, restarts=self.restarts, seed=seed
        )

    def bound(self) -> float:
        if self.criterion is CHORDAL:
            return bounds.simplex_bound_gram(self.n, self.d, self.c)
        return bounds.eitff_bound(self.n, self.d, self.c)


SEARCH_KNOWN = (
    Instance("simplex-R-2-1-3", R, 2, 1, 3, expect="is_ectff"),
    Instance("ectff-R-4-2-3", R, 4, 2, 3, expect="is_ectff"),
    Instance("etf-C-3-1-7", C, 3, 1, 7, expect="is_ectff"),
    Instance("eitff-R-4-2-3", R, 4, 2, 3, SPECTRAL, expect="is_eitff"),
)
SEARCH_WIDE = (
    Instance("wide-R-6-2-16", R, 6, 2, 16, iterations=300, restarts=1),
    Instance("wide-C-4-1-16", C, 4, 1, 16, iterations=300, restarts=1),
    Instance("wide-R-8-3-40", R, 8, 3, 40, iterations=100, restarts=1),
)
# The CLI `pack` command of certify-io, with the CLI's default config.
CLI_PACK = Instance("cli-simplex-R-2-1-3", R, 2, 1, 3, expect="is_ectff")


class Tally:
    """Operations attempted and failed, with the first few diagnostics."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, what: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(f"{what}: {'; '.join(problems)}")
        return not problems

    def run(self, what: str, fn):
        """Call fn; a raise counts as one failed operation and returns None."""
        try:
            return fn()
        except Exception as exc:  # any library error is a failed operation
            self.check(what, [f"raised {type(exc).__name__}: {exc}"])
            return None


def frame_key(f) -> tuple:
    """Everything that makes two frames bit-identical."""
    return (f.field, f.n, f.d, f.c, b"".join(b.array.tobytes() for b in f.bases))


# Seconds the calibration kernel takes on the reference machine: one
# uncontended core of a 2-vCPU x86-64 VM (Intel Xeon, 2.1 GHz) with
# Python 3.11 and numpy 2.4.
REFERENCE_KERNEL_S = 0.0005
SAMPLE_INTERVAL_S = 0.05
_KERNEL_BASES = [np.full((6, 2), 0.01 * (i + 1)) for i in range(16)]


def calibration_kernel() -> float:
    """Seconds for a fixed loop of small numpy products over all pairs of
    16 matrices: the same mix of interpreter and tiny-kernel work as
    grasspack's pair loops, in code the library cannot change."""
    t = time.perf_counter()
    for _ in range(2):
        for j, a in enumerate(_KERNEL_BASES):
            for b in _KERNEL_BASES[j + 1 :]:
                g = a.T @ b
                np.vdot(g, g)
    return time.perf_counter() - t


class Clock:
    """Times operations in reference seconds.

    The machines the benchmark runs on share their cores with other
    tenants, and their speed swings by up to 2x within a second. The
    clock runs the calibration kernel before and after every operation
    and, when ``sampling`` is on, every SAMPLE_INTERVAL_S during it (from
    a SIGALRM handler, whose own time is taken out of the operation's).
    The operation's wall time is then scaled by the mean of
    REFERENCE_KERNEL_S / kernel time over those samples. A change to
    grasspack moves the scaled time as it moves the wall time; a change
    in the machine's speed moves the wall time and the kernel alike, and
    cancels. ``wall`` keeps the unscaled total.
    """

    def __init__(self, sampling: bool):
        self.sampling = sampling
        self.speeds: list[float] = []
        self.in_handler = 0.0
        self.wall = 0.0
        if sampling:
            signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum=None, frame=None) -> None:
        t = time.perf_counter()
        self.speeds.append(REFERENCE_KERNEL_S / calibration_kernel())
        self.in_handler += time.perf_counter() - t

    def _edge(self) -> None:
        """One robust sample between operations: the median of three."""
        self.speeds.append(statistics.median(REFERENCE_KERNEL_S / calibration_kernel() for _ in range(3)))

    def timed(self, fn, reps: int = 1):
        """Result of fn and its duration in reference seconds: the median
        over `reps` calls."""
        durations = []
        for _ in range(reps):
            out, dt = self._timed_once(fn)
            durations.append(dt)
        return out, statistics.median(durations)

    def _timed_once(self, fn):
        self._edge()
        first = len(self.speeds) - 1
        handler0 = self.in_handler
        if self.sampling:
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        t = time.perf_counter()
        try:
            out = fn()
        finally:
            wall = time.perf_counter() - t
            if self.sampling:
                signal.setitimer(signal.ITIMER_REAL, 0)
        wall -= self.in_handler - handler0
        self._edge()
        self.wall += wall
        return out, wall * statistics.fmean(self.speeds[first:])


def current_cpu(allowed: set[int]) -> int:
    """The CPU this process last ran on (Linux), else the lowest allowed one."""
    try:
        # Field 39 of /proc/self/stat; the 36th after the ")" closing the name.
        return int(Path("/proc/self/stat").read_text().rsplit(")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        return min(allowed)


def as_json(obj):
    return json.loads(json.dumps(obj))


class Workload:
    """What the workloads share: the clock, the output checks and the CLI runner."""

    # Calls per small operation (round trip, certify) and per CLI process;
    # the median is reported. Workloads with few passes per run repeat
    # them so that each phase has enough samples to be steady.
    reps = 1
    cli_reps = 1

    def __init__(self, root: Path, outdir: Path, seed: int, tally: Tally, clock: Clock):
        self.root = root
        self.outdir = outdir
        self.seed = seed
        self.tally = tally
        self.probe = None  # a tracing.ConvergenceProbe during traced passes
        self.clock = clock
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else src
        self.results: dict[str, object] = {}  # label -> latest PackResult
        self.first_frames: dict[str, tuple] = {}
        self.cli_equiv_s = 0.0  # same library work as the CLI calls, in-process
        self.frame_bytes = 0

    def cli_call(self, argv: list[str], expected: dict, subset: bool = False) -> float:
        """Run one CLI cold process; check its payload; return its wall time."""
        cmd = [sys.executable, "-m", "grasspack.cli", *argv]

        # The clock calibrates the CPU this process runs on, so the child
        # runs there too: both are pinned to it for the call.
        allowed = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {current_cpu(allowed)})
        try:
            proc, dt = self.clock.timed(
                lambda: subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True, text=True, timeout=150),
                self.cli_reps,
            )
        finally:
            os.sched_setaffinity(0, allowed)
        problems = []
        if proc.returncode != 0:
            problems.append(f"exit {proc.returncode}: {proc.stderr.strip()[:200]}")
        else:
            try:
                payload = json.loads(proc.stdout)
            except json.JSONDecodeError as exc:
                payload = None
                problems.append(f"stdout is not one JSON object ({exc})")
            if not isinstance(payload, dict):
                problems.append("stdout is not a JSON object")
            else:
                want = as_json(expected)
                got = {k: payload.get(k) for k in want} if subset else payload
                if got != want:
                    diff = sorted(k for k in set(want) | set(got) if want.get(k) != got.get(k))
                    problems.append(f"payload differs from the library result in {diff}")
        self.tally.check(f"cli {argv[0]}", problems)
        return dt

    def pack(self, inst: Instance, check_gap: bool):
        """One pack() call with its output checks; returns (result or None, seconds)."""
        if self.probe is not None:
            self.probe.start_instance(inst.label, inst.bound())
        r, dt = self.clock.timed(
            lambda: self.tally.run(
                f"pack {inst.label}", lambda: optimize.pack(inst.field, inst.d, inst.c, inst.n, inst.config(self.seed))
            )
        )
        if r is None:
            return None, dt
        problems = []
        mats = [b.array if inst.field is C else b.array.real for b in r.frame.bases]
        for k, a in enumerate(mats):
            defect = float(np.linalg.norm(a.conj().T @ a - np.eye(inst.c)))
            if not defect <= ORTHONORMAL_TOL:
                problems.append(f"basis {k + 1} orthonormality defect {defect:.2e}")
        if r.achieved < r.bound - inst.config(self.seed).tolerance:
            problems.append(f"achieved {r.achieved!r} below bound {r.bound!r}")
        oracle = worst_overlap(mats, inst.criterion is SPECTRAL)
        if not abs(oracle - r.achieved) <= 1e-12 * max(1.0, abs(oracle)):
            problems.append(f"achieved {r.achieved!r} but worst overlap is {oracle!r}")
        key = frame_key(r.frame)
        if self.first_frames.setdefault(inst.label, key) != key:
            problems.append("frame not bit-identical to the first pass with this seed")
        if check_gap and not r.gap <= KNOWN_GAP_LIMIT:
            problems.append(f"gap {r.gap:.3e} > {KNOWN_GAP_LIMIT}")
        self.tally.check(f"pack {inst.label}", problems)
        self.results[inst.label] = r
        return r, dt

    def round_trip(self, frame, path: Path, what: str):
        """save_frame then load_frame; returns (loaded or None, save s, load s)."""
        _, save_s = self.clock.timed(lambda: cli.save_frame(frame, str(path)), self.reps)
        loaded, load_s = self.clock.timed(lambda: self.tally.run(what, lambda: cli.load_frame(str(path))), self.reps)
        self.frame_bytes += path.stat().st_size
        if loaded is not None:
            same = frame_key(loaded) == frame_key(frame)
            self.tally.check(what, [] if same else ["loaded frame differs from the saved one"])
        return loaded, save_s, load_s

    def verify(self) -> None:
        """Checks that run once after the timed passes."""

    def quality(self) -> tuple[float, float]:
        """(solved_frac, rel_gap) over the latest results of the instance table."""
        rs = [(inst, self.results.get(inst.label)) for inst in self.table]
        solved = [
            r is not None and r.gap <= SOLVED_GAP and inst.expect is not None
            and getattr(r.certificate, inst.expect)
            for inst, r in rs
        ]
        gaps = [r.achieved / r.bound - 1.0 for _, r in rs if r is not None]
        return sum(solved) / len(rs), (statistics.fmean(gaps) if gaps else float("nan"))


class Search(Workload):
    """pack() over an instance table, then the user path for each result:
    save and reload the frame, certify the reloaded frame, and certify the
    saved file of the last instance once more through the CLI."""

    def __init__(self, table, check_gap, reps, cli_reps, *args):
        super().__init__(*args)
        self.table, self.check_gap = table, check_gap
        self.reps, self.cli_reps = reps, cli_reps

    def setup(self) -> None:
        self.outdir.mkdir(parents=True, exist_ok=True)
        # Warm-up: one iteration of each instance, so lazy numpy and LAPACK
        # set-up is not timed in the first pass.
        for inst in self.table:
            optimize.pack(inst.field, inst.d, inst.c, inst.n, PackConfig(iterations=1, restarts=1, seed=self.seed))

    def run_pass(self) -> dict:
        times = dict.fromkeys(PHASES, 0.0)
        self.cli_equiv_s = 0.0
        self.frame_bytes = 0
        last = None
        for inst in self.table:
            r, dt = self.pack(inst, self.check_gap)
            times["pack_s"] += dt
            if r is None:
                continue
            path = self.outdir / f"{inst.label}.json"
            loaded, save_s, load_s = self.round_trip(r.frame, path, f"round trip {inst.label}")
            times["frame_io_s"] += save_s + load_s
            if loaded is None:
                continue
            cert, cert_s = self.clock.timed(
                lambda: self.tally.run(f"certify {inst.label}", lambda: certify_mod.certify(loaded)), self.reps
            )
            times["certify_s"] += cert_s
            if cert is not None:
                same = cert.as_dict() == r.certificate.as_dict()
                self.tally.check(f"certify {inst.label}", [] if same else ["certificate differs after the round trip"])
                last = (path, cert, load_s + cert_s)
        if last is not None:
            path, cert, equiv_s = last
            times["cli_s"] += self.cli_call(["certify", str(path), "--format", "json"], cert.as_dict())
            self.cli_equiv_s += equiv_s
        return times


class CertifyIO(Workload):
    """No search: frame file round trips, certify() on large random frames
    and on two known-structure frames, and three CLI cold processes."""

    table = (CLI_PACK,)

    def setup(self) -> None:
        self.outdir.mkdir(parents=True, exist_ok=True)
        s100, s400 = (int(s) for s in np.random.SeedSequence(self.seed).generate_state(2))
        self.random = {
            "fr100": random_frame(C, 10, 2, 100, s100),
            "fr400": random_frame(C, 20, 2, 400, s400),
        }
        etf = harmonic_etf(DifferenceSet(13, [0, 1, 3, 9]))
        self.known = {"etf-13-4": etf, "eitff-13-4x3": tensor_eitff(etf, 3)}
        # The file the CLI `certify` command reads.
        self.cli_frame = self.outdir / "fr100.json"
        cli.save_frame(self.random["fr100"], str(self.cli_frame))
        self.certs: dict[str, list[dict]] = {k: [] for k in self.random}

    def run_pass(self) -> dict:
        times = dict.fromkeys(PHASES, 0.0)
        self.frame_bytes = 0
        loaded, load_s = {}, {}
        for key, frame in self.random.items():
            path = self.outdir / f"{key}-roundtrip.json"
            loaded[key], save_s, load_s[key] = self.round_trip(frame, path, f"round trip {key}")
            times["frame_io_s"] += save_s + load_s[key]

        certs, cert_s = {}, {}
        for key, frame in {**loaded, **self.known}.items():
            if frame is None:
                continue
            certs[key], cert_s[key] = self.clock.timed(lambda: self.tally.run(f"certify {key}", lambda: certify_mod.certify(frame)))
            times["certify_s"] += cert_s[key]
        for key in self.random:
            if certs.get(key) is not None:
                self.certs[key].append(certs[key].as_dict())
        for key in self.known:
            cert = certs.get(key)
            if cert is not None:
                ok = cert.is_ectff and cert.is_eitff
                self.tally.check(f"certify {key}", [] if ok else ["known frame does not certify ECTFF and EITFF"])

        r, times["pack_s"] = self.pack(CLI_PACK, check_gap=True)

        report, bounds_s = self.clock.timed(lambda: bounds.bound_report(13, 4, 1, C))
        times["cli_s"] += self.cli_call(["bounds", "--n", "13", "--d", "4", "--c", "1", "--field", "C", "--format", "json"], report.as_dict())
        self.cli_equiv_s = bounds_s
        if certs.get("fr100") is not None:
            times["cli_s"] += self.cli_call(["certify", str(self.cli_frame), "--format", "json"], certs["fr100"].as_dict())
            self.cli_equiv_s += load_s["fr100"] + cert_s["fr100"]
        if r is not None:
            frame_obj, obj_s = self.clock.timed(lambda: cli.frame_to_json_obj(r.frame))
            expected = {
                "achieved": r.achieved,
                "bound": r.bound,
                "gap": r.gap,
                "restart_index": r.restart_index,
                "iterations_used": r.iterations_used,
                "certificate": r.certificate.as_dict(),
                "frame": frame_obj,
            }
            argv = ["pack", "--d", "2", "--c", "1", "--n", "3", "--seed", str(self.seed), "--format", "json"]
            times["cli_s"] += self.cli_call(argv, expected, subset=True)
            self.cli_equiv_s += times["pack_s"] + obj_s
        return times

    def verify(self) -> None:
        """Certificates of the random frames before the round trip must equal
        every pass's certificate of the reloaded frames. Run once, untimed."""
        for key, frame in self.random.items():
            before = self.tally.run(f"certify {key} before round trip", lambda: certify_mod.certify(frame))
            if before is None:
                continue
            for after in self.certs[key]:
                same = after == before.as_dict()
                self.tally.check(f"certify {key}", [] if same else ["certificate differs before and after the round trip"])


def make(name: str, root: Path, outdir: Path, seed: int, tally: Tally, clock: Clock) -> Workload:
    args = (root, outdir, seed, tally, clock)
    if name == "search-known":
        return Search(SEARCH_KNOWN, True, 21, 7, *args)
    if name == "search-wide":
        return Search(SEARCH_WIDE, False, 5, 3, *args)
    return CertifyIO(*args)


WORKLOADS = ("search-known", "search-wide", "certify-io")
