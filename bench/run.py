"""grasspack benchmark: one workload, one process, one caller.

Usage, from the repository root:

    python3 bench/run.py --workload search-known --seed 0 --seconds 30 --trace 0

With ``--trace 0`` the run sets the workload up several times (median
reported as ``setup_s``), then runs whole passes of the workload for
about ``--seconds`` seconds and reports the median of each end-to-end
phase over the passes, in reference seconds (see ``workloads.Clock``).
With ``--trace 1`` it spends half the time on untraced passes and half
on passes traced from outside the library (see tracing.py), and reports
the per-layer metrics, including the tracing overhead. Every output is
checked; the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. The lines before it print
every metric by name and unit.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_REPEATS = 9


def parse_args(argv):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def blas_threads() -> int | None:
    """Thread count of numpy's bundled OpenBLAS, when it can be asked."""
    import numpy

    libdir = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "libscipy_openblas*.so")):
        handle = ctypes.CDLL(lib)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, fn):
                return int(getattr(handle, fn)())
    return None


def run_metadata() -> dict:
    import numpy

    cfg = numpy.show_config(mode="dicts")
    blas = cfg.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def percentile_label(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, else the max."""
    n = len(values)
    s = sorted(values)
    for p in (99.9, 99.0, 90.0):
        if n * (1 - p / 100) >= 10:
            return f"p{p:g} {s[min(n - 1, int(n * p / 100))]:.6g}"
    return f"max {s[-1]:.6g}"


def measure(wl, seconds: float, first_pass: int, tracer=None) -> list[dict]:
    """Run whole passes until the next one would end after `seconds`; at least one."""
    from workloads import PHASES

    passes = []
    t0 = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.current_pass = first_pass + len(passes)
        t = time.perf_counter()
        wall = wl.clock.wall
        phases = wl.run_pass()
        phases["pass_s"] = sum(phases[k] for k in PHASES)
        phases["wall_s"] = wl.clock.wall - wall
        phases["cli_equiv_s"] = wl.cli_equiv_s
        phases["frame_bytes"] = wl.frame_bytes
        phases["iterations_used"] = sum(r.iterations_used for r in wl.results.values())
        phases["quality"] = wl.quality()
        passes.append(phases)
        now = time.perf_counter()
        if now - t0 + (now - t) > seconds:
            return passes


def median_of(passes, key) -> float:
    return statistics.median(p[key] for p in passes)


def describe(passes, label: str) -> None:
    """Print the pass time, each phase and the result quality of these passes."""
    from workloads import PHASES

    for k in ("pass_s", "wall_s", *PHASES):
        vals = [p[k] for p in passes]
        print(f"{k:<14} {median_of(passes, k):.6g} s  (median of {len(vals)} {label} passes, {percentile_label(vals)})")
    solved, rel_gap = passes[-1]["quality"]
    print(f"{'solved_frac':<14} {solved:.6g} fraction")
    print(f"{'rel_gap':<14} {rel_gap:.6g} ratio")


def cli_import_s(env, reps=3) -> float:
    """Seconds to import grasspack.cli in a fresh interpreter (median of reps)."""
    code = "import time; t = time.perf_counter(); import grasspack.cli; print(time.perf_counter() - t)"
    vals = []
    for _ in range(reps):
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=True)
        vals.append(float(out.stdout))
    return statistics.median(vals)


def layer_metrics(tracer, probe, traced: list[dict], untraced: list[dict], import_s: float) -> dict:
    """Per-layer metrics per traced pass; null where a boundary is gone."""
    tot = tracer.totals()
    npass = len(traced)

    def span(name, field):
        if name in tracer.absent:
            return None
        return tot.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})[field] / npass

    def per_call_us(name):
        calls, secs = span(name, "calls"), span(name, "s")
        if calls is None:
            return None
        return 1e6 * secs / calls if calls else 0.0

    def ratio(a, b):
        return None if a is None or b is None else (a / b if b else 0.0)

    der = tot["derived"]
    conv = probe.summary()
    m = {
        "linalg.retraction_calls": span("linalg.retraction", "calls"),
        "linalg.retraction_us": per_call_us("linalg.retraction"),
        "linalg.retraction_s": span("linalg.retraction", "s"),
        "optimize.obj_grad_calls": span("optimize.obj_grad", "calls"),
        "optimize.obj_grad_us": per_call_us("optimize.obj_grad"),
        "optimize.obj_grad_s": span("optimize.obj_grad", "s"),
        "optimize.obj_calls": span("optimize.obj", "calls"),
        "optimize.obj_us": per_call_us("optimize.obj"),
        "optimize.obj_s": span("optimize.obj", "s"),
        "optimize.trials_per_step": ratio(span("optimize.obj", "calls"), span("optimize.obj_grad", "calls")),
        "optimize.iterations_used": statistics.fmean(p["iterations_used"] for p in traced),
        "optimize.iters_to_target": ratio(conv["iters"], conv["restarts"]),
        "optimize.restarts_reaching_target": conv["reached"] / npass,
        "optimize.self_s": span("optimize.pack", "self_s"),
        "optimize.worst_overlap_s": span("optimize.worst_overlap", "s"),
        "construct.random_frame_s": span("construct.random_frame", "s"),
        "linalg.orthonormalize_s": span("linalg.orthonormalize", "s"),
        "certify.certify_s": span("certify.certify", "s"),
        "certify.tight_s": span("certify.tight", "s"),
        "certify.equichordal_s": span("certify.equichordal", "s"),
        "certify.equiisoclinic_s": span("certify.equiisoclinic", "s"),
        "certify.self_s": span("certify.certify", "self_s"),
        "certify.pairs": der["certify_pairs"] / npass,
        "certify.gramian_flops": der["certify_flops"] / npass,
        "metrics.cross_gramian_calls": span("metrics.cross_gramian", "calls"),
        "metrics.cross_gramian_s": span("metrics.cross_gramian", "s"),
        "metrics.gramians_per_pair": None
        if "metrics.cross_gramian" in tracer.absent
        else ratio(der["gramians_in_certify"], der["certify_pairs"]),
        "metrics.fusion_frame_operator_s": span("metrics.fusion_frame_operator", "s"),
        "cli.import_s": import_s,
        "cli.overhead_s": median_of(untraced, "cli_s") - median_of(untraced, "cli_equiv_s"),
        "cli.save_frame_s": span("cli.save_frame", "s"),
        "cli.load_frame_s": span("cli.load_frame", "s"),
        "cli.frame_bytes": median_of(traced, "frame_bytes"),
        "solved_frac": traced[-1]["quality"][0],
        "rel_gap": traced[-1]["quality"][1],
        "trace.probe_s": span("bench.probe", "s"),
        "trace.overhead_pack_s": median_of(traced, "pack_s") - median_of(untraced, "pack_s"),
        "trace.overhead_certify_s": median_of(traced, "certify_s") - median_of(untraced, "certify_s"),
    }
    return m


def declared_units(trace: int) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    src = ROOT / "src"
    if not (src / "grasspack" / "__init__.py").is_file():
        print(f"bench: grasspack sources not found at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH))
    args = parse_args(argv)

    import grasspack
    import workloads
    from tracing import ConvergenceProbe, Tracer

    if Path(grasspack.__file__).resolve().parent != (src / "grasspack").resolve():
        print(f"bench: imported grasspack from {grasspack.__file__}, not {src}", file=sys.stderr)
        return 2

    meta = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace, **run_metadata()}
    print("# meta " + json.dumps(meta))
    units = declared_units(args.trace)
    tally = workloads.Tally()
    # In-operation clock samples would land inside the traced spans.
    clock = workloads.Clock(sampling=not args.trace)
    wl = workloads.make(args.workload, ROOT, OUT / args.workload, args.seed, tally, clock)

    setup_times = [wl.clock.timed(wl.setup)[1] for _ in range(SETUP_REPEATS)]

    if not args.trace:
        passes = measure(wl, args.seconds, 0)
        wl.verify()
        metrics = {
            **{k: median_of(passes, k) for k in ("pass_s", *workloads.PHASES)},
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        describe(passes, "untraced")
        print(f"{'setup_s':<14} {metrics['setup_s']:.6g} s  (median of {SETUP_REPEATS} set-ups, {percentile_label(setup_times)})")
        print(f"{'peak_rss_mb':<14} {metrics['peak_rss_mb']:.6g} MB")
    else:
        tracer = Tracer()
        tracer.check_boundaries()
        for name in tracer.missing:
            print(f"# boundary missing, its metrics are null: {name}")
        untraced = measure(wl, args.seconds / 2, 0)
        import_s = cli_import_s(wl.env)
        probe = ConvergenceProbe()
        wl.probe = probe
        with tracer.active(probe):
            traced = measure(wl, args.seconds / 2, len(untraced), tracer)
        wl.probe = None
        wl.verify()
        metrics = layer_metrics(tracer, probe, traced, untraced, import_s)
        metrics["failed_frac"] = tally.failed / max(1, tally.attempted)
        describe(untraced, "untraced")
        for k, v in metrics.items():
            print(f"{k:<34} {'null' if v is None else format(v, '.6g')} {units.get(k)}")
        print(f"# {len(untraced)} untraced and {len(traced)} traced passes; {len(tracer.name)} spans")
        print(f"# solved_frac untraced {untraced[-1]['quality'][0]:.6g}, traced {traced[-1]['quality'][0]:.6g}")
        for (label,), secs, children in tracer.breakdown("optimize.pack"):
            detail = ", ".join(f"{k} {n} x {1e6 * t / n:.1f} us" for k, (n, t) in sorted(children.items()))
            print(f"# pack {label} {secs:.4g} s: {detail}")
        by_pairs: dict[int, list[float]] = {}
        for (pairs, _), secs, _children in tracer.breakdown("certify.certify"):
            by_pairs.setdefault(pairs, []).append(secs)
        for pairs, secs in sorted(by_pairs.items()):
            print(f"# certify {pairs} pairs: median {statistics.median(secs):.4g} s over {len(secs)} calls")
        for inst in probe.instances:
            firsts = [f for f in inst["first"] if f is not None]
            print(
                f"# convergence {inst['label']}: {len(firsts)}/{len(inst['first'])} restarts reach gap <= 1e-8, "
                f"first at iterations {sorted(firsts)}"
            )
        OUT.mkdir(parents=True, exist_ok=True)
        trace_path = OUT / f"spans-{args.workload}.jsonl.gz"
        tracer.write_jsonl(trace_path, meta)
        print(f"# spans written to {trace_path.relative_to(ROOT)}")

    failed_frac = tally.failed / max(1, tally.attempted)
    print(f"{'failed_frac':<14} {failed_frac:.6g} fraction  ({tally.failed} of {tally.attempted} operations)")
    for msg in tally.messages:
        print(f"# FAILED {msg}", file=sys.stderr)
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(metrics))}")
    result = {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": max(1, tally.attempted),
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
