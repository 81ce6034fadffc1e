"""Span tracing of grasspack from outside the library.

The tracer replaces, for the duration of a traced measurement, the
module attributes through which one grasspack module calls another (and
through which the benchmark calls the library). Each replacement records
one span per call: name, start, end, parent span and pass number. Spans
are kept in flat in-memory arrays and written as JSONL when the run ends.
Nothing under ``src/`` is modified; the originals are restored on exit.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import json
import time
from array import array

import numpy as np

# (module, attribute, span name). The span name is "<layer>.<operation>",
# where the layer is the module that implements the called function.
BOUNDARIES = [
    ("grasspack.optimize", "pack", "optimize.pack"),
    ("grasspack.optimize", "smoothed_objective_and_gradient", "optimize.obj_grad"),
    ("grasspack.optimize", "smoothed_objective", "optimize.obj"),
    # The one non-public boundary: the QR retraction of every basis in
    # every line-search trial.
    ("grasspack.optimize", "_qr_columns", "linalg.retraction"),
    ("grasspack.optimize", "worst_overlap", "optimize.worst_overlap"),
    ("grasspack.optimize", "random_frame", "construct.random_frame"),
    ("grasspack.construct", "orthonormalize", "linalg.orthonormalize"),
    ("grasspack.optimize", "certify", "certify.certify"),
    ("grasspack.certify", "certify", "certify.certify"),
    ("grasspack.certify", "is_tight_fusion_frame", "certify.tight"),
    ("grasspack.certify", "is_equichordal", "certify.equichordal"),
    ("grasspack.certify", "is_equiisoclinic", "certify.equiisoclinic"),
    ("grasspack.certify", "cross_gramian", "metrics.cross_gramian"),
    ("grasspack.optimize", "cross_gramian", "metrics.cross_gramian"),
    ("grasspack.certify", "fusion_frame_operator", "metrics.fusion_frame_operator"),
    ("grasspack.cli", "save_frame", "cli.save_frame"),
    ("grasspack.cli", "load_frame", "cli.load_frame"),
]

PROBE_SPAN = "bench.probe"
TARGET_GAP = 1e-8


def worst_overlap(mats, spectral: bool) -> float:
    """Worst pairwise overlap of a list of d x c bases, in plain numpy.

    Chordal: max ||A_j* A_k||_F^2; spectral: max ||A_j* A_k||_2^2. This
    is the benchmark's own oracle, independent of grasspack's code.
    """
    x = np.stack(mats)
    g = np.einsum("idk,jdl->ijkl", x.conj(), x)
    iu = np.triu_indices(len(mats), 1)
    blocks = g[iu]
    if spectral:
        return float(np.linalg.svd(blocks, compute_uv=False)[:, 0].max() ** 2)
    return float((np.abs(blocks) ** 2).sum(axis=(1, 2)).max())


class ConvergenceProbe:
    """Iterations each restart needs before an iterate is within TARGET_GAP of its bound.

    Restarts are delimited by ``random_frame`` calls inside ``pack``; the
    iterate is the first argument of each ``smoothed_objective_and_gradient``
    call. The gap is computed by :func:`worst_overlap` inside a span of
    its own, so the library's spans exclude it.
    """

    def __init__(self):
        self.instances: list[dict] = []
        self._cur: dict | None = None

    def start_instance(self, label: str, bound: float) -> None:
        self._cur = {"label": label, "bound": bound, "first": [], "ran": []}
        self.instances.append(self._cur)

    def on_restart(self, args, kwargs) -> None:
        if self._cur is not None:
            self._cur["first"].append(None)
            self._cur["ran"].append(0)

    def wants_gap(self) -> bool:
        """Count one iteration of the current restart; True while it has not
        yet reached the target, so its iterate's gap must be computed."""
        cur = self._cur
        if cur is None or not cur["ran"]:
            return False
        cur["ran"][-1] += 1
        return cur["first"][-1] is None

    def measure(self, args, kwargs) -> None:
        cur = self._cur
        criterion = args[1] if len(args) > 1 else kwargs.get("criterion")
        spectral = getattr(criterion, "value", "chordal") == "spectral"
        if worst_overlap(args[0], spectral) - cur["bound"] <= TARGET_GAP:
            cur["first"][-1] = cur["ran"][-1] - 1

    def summary(self) -> dict:
        """Totals over all instances: restarts, restarts reaching the target,
        and iterations to target (a restart that never reaches it counts
        the iterations it ran)."""
        restarts = reached = iters = 0
        for inst in self.instances:
            for first, ran in zip(inst["first"], inst["ran"]):
                restarts += 1
                reached += first is not None
                iters += ran if first is None else first
        return {"restarts": restarts, "reached": reached, "iters": iters}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.pass_no = array("i")
        self.notes: dict[int, tuple] = {}  # span index -> extra counts
        self.current_pass = 0
        self.missing: list[str] = []
        self.absent: set[str] = set()
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.pass_no.append(self.current_pass)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, orig, nid, before=None):
        tracer = self

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            note = before(args, kwargs) if before is not None else None
            idx = tracer.begin(nid)
            if note is not None:
                tracer.notes[idx] = note
            try:
                return orig(*args, **kwargs)
            finally:
                tracer.finish(idx)

        return traced

    def check_boundaries(self) -> None:
        """Record every wrapped name that no longer exists; the metrics of
        its span are then reported as null."""
        for modname, attr, span in BOUNDARIES:
            try:
                target = getattr(importlib.import_module(modname), attr, None)
            except ImportError:
                target = None
            if not callable(target):
                self.missing.append(f"{modname}.{attr}")
                self.absent.add(span)

    @contextlib.contextmanager
    def active(self, probe: ConvergenceProbe | None):
        """Install the wrappers for the duration of the block."""
        probe_id = self.name_id(PROBE_SPAN)

        def probed(args, kwargs):
            if probe.wants_gap():
                idx = self.begin(probe_id)
                try:
                    probe.measure(args, kwargs)
                finally:
                    self.finish(idx)

        def certify_note(args, kwargs):
            f = args[0]
            pairs = f.n * (f.n - 1) // 2
            flops = 2 * f.d * f.c * f.c * (4 if f.field.value == "C" else 1)
            return (pairs, pairs * flops)

        def pack_note(args, kwargs):
            field, d, c, n = args[:4]
            config = args[4] if len(args) > 4 else kwargs.get("config")
            criterion = getattr(getattr(config, "criterion", None), "value", "default")
            return (f"({field.value},{d},{c},{n}) {criterion}",)

        before = {"certify.certify": certify_note, "optimize.pack": pack_note}
        if probe is not None:
            before["optimize.obj_grad"] = probed
            before["construct.random_frame"] = probe.on_restart
        restore = []
        try:
            for modname, attr, span in BOUNDARIES:
                if f"{modname}.{attr}" in self.missing:
                    continue
                mod = importlib.import_module(modname)
                orig = getattr(mod, attr)
                setattr(mod, attr, self._wrap(orig, self.name_id(span), before.get(span)))
                restore.append((mod, attr, orig))
            yield self
        finally:
            for mod, attr, orig in reversed(restore):
                setattr(mod, attr, orig)

    def write_jsonl(self, path, meta: dict) -> None:
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({"meta": meta}) + "\n")
            names = self.names
            for i in range(len(self.name)):
                fh.write(
                    f'{{"id":{i},"name":"{names[self.name[i]]}","start_ns":{self.start[i]},'
                    f'"end_ns":{self.end[i]},"parent":{self.parent[i]},"pass":{self.pass_no[i]}}}\n'
                )

    def breakdown(self, span: str) -> list[tuple[tuple, float, dict]]:
        """For each span of this name called by the benchmark itself: its
        note, its seconds, and (calls, seconds) per direct child span name."""
        nid = self._ids.get(span, -1)
        rows = []
        index = {}
        for i in range(len(self.name)):
            p = self.parent[i]
            if self.name[i] == nid and p < 0:
                index[i] = {}
                rows.append((self.notes[i], (self.end[i] - self.start[i]) / 1e9, index[i]))
            elif p in index:
                child = self.names[self.name[i]]
                calls, secs = index[p].get(child, (0, 0.0))
                index[p][child] = (calls + 1, secs + (self.end[i] - self.start[i]) / 1e9)
        return rows

    def totals(self) -> dict:
        """Per span name: calls, total seconds, self seconds; plus derived counts."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = (np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)) / 1e9
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_t = dur - child
        out = {}
        for nid, span in enumerate(self.names):
            sel = name == nid
            out[span] = {
                "calls": int(sel.sum()),
                "s": float(dur[sel].sum()),
                "self_s": float(self_t[sel].sum()),
            }
        # Cross-Gramians computed anywhere below a certify span.
        cert_id = self._ids.get("certify.certify", -1)
        gram_id = self._ids.get("metrics.cross_gramian", -1)
        under = np.zeros(len(dur), dtype=bool)
        anc = parent.copy()
        while (anc >= 0).any():
            live = anc >= 0
            safe = np.where(live, anc, 0)
            under |= live & (name[safe] == cert_id)
            anc = np.where(live, parent[safe], -1)
        cert_notes = [v for k, v in self.notes.items() if self.name[k] == cert_id]
        out["derived"] = {
            "gramians_in_certify": int((under & (name == gram_id)).sum()),
            "certify_pairs": sum(p for p, _ in cert_notes),
            "certify_flops": sum(f for _, f in cert_notes),
        }
        return out
