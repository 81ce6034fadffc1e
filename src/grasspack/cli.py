"""Command-line front end.

Subcommands::

    grasspack bounds --n N --d D --c C [--field R|C]
    grasspack certify FRAME.json [--tol T]
    grasspack angles FRAME.json --i I --j J
    grasspack construct simplex --n N [-o OUT]
    grasspack construct orthoplex --d D [-o OUT]
    grasspack construct harmonic --modulus N --set k1,k2,... [-o OUT]
    grasspack construct tensor ETF.json --c C [-o OUT]
    grasspack pack --field R|C --d D --c C --n N [--criterion chordal|spectral]
                   [--seed S] [--restarts R] [--iters K] [-o OUT]

``--format json`` switches any report to a single machine-readable JSON
object on stdout. Frames are stored one per file in a JSON format whose
decimal serialization round-trips every entry bit-exactly.

Exit codes: 0 success, 1 invalid input or an unwritable ``-o`` or stdout
(with a one-line diagnostic naming the failing field), 2 numerical
failure or out of memory.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from itertools import chain
from typing import TYPE_CHECKING, Iterable, Sequence

# numpy and the layers above bounds are imported by the handlers and frame
# functions that use them, so `bounds` starts without numpy and `certify`
# and `angles` never load the search.
from . import bounds as bounds_mod
from ._rules import DEFAULT_TOL, Criterion, FieldTag, NumericalError, PackConfig, _check_count, _check_tol

if TYPE_CHECKING:
    import numpy as np

    from .certify import Certificate
    from .metrics import FusionFrame

__all__ = ["frame_from_json_obj", "frame_to_json_obj", "load_frame", "main", "run", "save_frame"]


def _print_stdout(text: str, end: str = "\n") -> None:
    """Print ``text`` to stdout and flush it; a failed write is invalid
    input naming ``stdout``."""
    try:
        print(text, end=end, flush=True)
    except OSError as exc:
        raise ValueError(f"stdout: {exc}") from None


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; route through the
    # package's invalid-input path (exit 1) instead.
    def error(self, message):
        raise ValueError(message)

    # argparse drops a failed write of --help or usage; report it instead.
    def _print_message(self, message, file=None):
        if message and file is sys.stdout:
            _print_stdout(message, end="")
        else:
            super()._print_message(message, file)


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if x is None:
        return "n/a"
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _parse_field(value: str) -> FieldTag:
    try:
        return FieldTag(value)
    except ValueError:
        raise ValueError(f"field: must be 'R' or 'C', got {value!r}") from None


# ---------------------------------------------------------------------------
# Frame file format


def frame_to_json_obj(f: FusionFrame) -> dict:
    """FrameFile object: real entries as numbers, complex as [re, im] pairs."""
    import numpy as np

    x = f.array
    entries = x if f.field is FieldTag.REAL else np.stack([x.real, x.imag], axis=-1)
    return {"field": f.field.value, "d": f.d, "c": f.c, "n": f.n, "bases": entries.tolist()}


def _well_typed(entries: list, real: bool) -> bool:
    """True when every entry is a number (real) or an [re, im] pair of numbers
    (complex). Bools are not numbers. Checked once per distinct type."""
    if not real:
        if not set(map(type, entries)) <= {list, tuple} or set(map(len, entries)) != {2}:
            return False
        entries = chain.from_iterable(entries)
    return all(issubclass(t, (int, float)) and not issubclass(t, bool) for t in set(map(type, entries)))


def _parse_entries(entries: list, real: bool, where: str) -> np.ndarray:
    """Entries in row-major order as float64; an [re, im] pair becomes a trailing axis."""
    import numpy as np

    if not _well_typed(entries, real):
        bad = next(e for e in entries if not _well_typed([e], real))
        kind = "real frames need numeric entries" if real else "complex frames need [re, im] entries"
        raise ValueError(f"{where}: {kind}, got {bad!r}")
    try:
        return np.array(entries, dtype=np.float64)
    except OverflowError:
        raise ValueError(f"{where}: matrix entries must be finite, got an integer too large for a float") from None


def frame_from_json_obj(obj, tol: float = DEFAULT_TOL) -> FusionFrame:
    """Parse and validate a FrameFile object.

    Shapes are checked against the declared (d, c, n) and every basis is
    re-verified to have orthonormal columns within ``tol``; diagnostics
    name the failing field (bases are numbered from 1).
    """
    import numpy as np

    from .metrics import FusionFrame

    if not isinstance(obj, dict):
        raise ValueError("frame: top-level value must be an object")
    for key in ("field", "d", "c", "n", "bases"):
        if key not in obj:
            raise ValueError(f"{key}: missing")
    field = _parse_field(obj["field"])
    for key in ("d", "c", "n"):
        _check_count(obj[key], f"{key}:", 1)
    d, c, n = obj["d"], obj["c"], obj["n"]
    if c > d:
        raise ValueError(f"c: subspace dimension {c} exceeds ambient dimension {d}")
    if not isinstance(obj["bases"], list) or len(obj["bases"]) != n:
        found = len(obj["bases"]) if isinstance(obj["bases"], list) else "non-list"
        raise ValueError(f"bases: declared n = {n} but found {found}")

    for idx, rows in enumerate(obj["bases"], start=1):
        name = f"bases[{idx}]"
        if not isinstance(rows, list) or len(rows) != d:
            found = len(rows) if isinstance(rows, list) else "non-list"
            raise ValueError(f"{name}: expected {d} rows, found {found}")
        for i, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != c:
                found = len(row) if isinstance(row, list) else "non-list"
                raise ValueError(f"{name}: row {i + 1} has {found} entries, expected {c}")

    real = field is FieldTag.REAL
    entries = list(chain.from_iterable(chain.from_iterable(obj["bases"])))
    try:
        flat = _parse_entries(entries, real, "bases")
    except ValueError:
        # The first basis that fails on its own names the diagnostic.
        per = d * c
        for k in range(n):
            _parse_entries(entries[k * per : (k + 1) * per], real, f"bases[{k + 1}]")
        raise
    stack = flat.reshape(n, d, c) if real else flat.reshape(n, d, c, 2).view(np.complex128)[..., 0]
    try:
        return FusionFrame.from_arrays(stack, field, tol)
    except ValueError as exc:
        raise ValueError(re.sub(r"^basis (\d+):", r"bases[\1]:", str(exc))) from None


def load_frame(path: str, tol: float = DEFAULT_TOL) -> FusionFrame:
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ValueError(f"frame file: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"frame file: not UTF-8 text ({exc})") from None
    except ValueError as exc:  # JSONDecodeError, or an integer literal too long to convert
        raise ValueError(f"frame file: not valid JSON ({exc})") from None
    except RecursionError:
        raise ValueError("frame file: JSON nested too deeply to parse") from None
    return frame_from_json_obj(obj, tol)


def save_frame(f: FusionFrame, path: str) -> None:
    # json.dumps runs the C encoder; json.dump into a file streams through
    # the pure-Python one, about 2.5x slower on large frames.
    text = json.dumps(frame_to_json_obj(f))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


# ---------------------------------------------------------------------------
# Subcommands


def _report(args, payload: dict, lines: Iterable[str]) -> int:
    """Print a command's result: ``payload`` as one JSON object under
    ``--format json``, else ``lines``, which only human output consumes.
    Returns the exit code 0; a failed write names ``stdout``."""
    _print_stdout(json.dumps(payload) if args.format == "json" else "\n".join(lines))
    return 0


def _emit_frame(args, frame: FusionFrame, summary: dict, certificate: Certificate | None = None) -> int:
    """Report a new frame with its summary: written to ``-o`` and named, or
    printed inline. A search passes its certificate, which joins the JSON
    payload; a construction without ``-o`` prints the frame alone. A failed
    write is invalid input, naming ``output``.
    """
    lines = [f"{key}: {_fmt(val)}" for key, val in summary.items()]
    if certificate is not None:
        summary = {**summary, "certificate": certificate.as_dict()}
    if args.output:
        try:
            save_frame(frame, args.output)
        except OSError as exc:
            raise ValueError(f"output: {exc}") from None
        return _report(args, {**summary, "output": args.output}, [*lines, f"frame written: {args.output}"])
    obj = frame_to_json_obj(frame)
    frame_line = map(json.dumps, [obj])  # lazy: serialized for human output only
    if certificate is None:
        return _report(args, obj, frame_line)
    return _report(args, {**summary, "frame": obj}, chain(lines, frame_line))


def _cmd_bounds(args) -> int:
    report = bounds_mod.bound_report(args.n, args.d, args.c, _parse_field(args.field))
    payload = report.as_dict()
    lines = [f"parameters: n={report.n} d={report.d} c={report.c} field={report.field.value}"]
    for name, value in list(payload.items())[4:-1]:  # the bounds, between (n, d, c, field) and notes
        label = "gerzon limit" if name == "gerzon" else name.replace("_", " ")
        line = f"{label + ':':<19}{_fmt(value)}"
        note = report.notes.get(name.split("_")[0], "")  # a note is keyed by the bound's name
        if value is None and note:
            line += f"  ({note})"
        lines.append(line)
    return _report(args, payload, lines)


def _cmd_certify(args) -> int:
    from .certify import certify

    _check_tol(args.tol, "tol:")
    frame = load_frame(args.frame, args.tol)
    if frame.n < 2:
        raise ValueError(f"n: certification needs n >= 2, got {frame.n}")
    cert = certify(frame, args.tol)
    lines = [
        f"frame: n={frame.n} d={frame.d} c={frame.c} field={frame.field.value} tolerance={cert.tolerance:.1g}",
        f"is_tight:         {_fmt(cert.is_tight)}  (residual {_fmt(cert.tight_residual)}, alpha {_fmt(cert.alpha)})",
        f"is_equichordal:   {_fmt(cert.is_equichordal)}  (beta {_fmt(cert.beta)}, deviation {_fmt(cert.beta_deviation)})",
        f"is_equiisoclinic: {_fmt(cert.is_equiisoclinic)}  (sigma_sq {_fmt(cert.sigma_sq)}, deviation {_fmt(cert.sigma_deviation)})",
        f"is_ectff:         {_fmt(cert.is_ectff)}",
        f"is_eitff:         {_fmt(cert.is_eitff)}",
        f"simplex_gap:      {_fmt(cert.simplex_gap)}",
        f"eitff_gap:        {_fmt(cert.eitff_gap)}",
        f"orthoplex_gap:    {_fmt(cert.orthoplex_gap)}",
    ]
    return _report(args, cert.as_dict(), lines)


def _cmd_angles(args) -> int:
    from . import metrics as metrics_mod

    frame = load_frame(args.frame)
    for label, idx in (("i", args.i), ("j", args.j)):
        if not 1 <= idx <= frame.n:
            raise ValueError(f"{label}: index {idx} out of range 1..{frame.n}")
    if args.i == args.j:
        raise ValueError(f"j: indices must differ, got i = j = {args.i}")
    b1 = frame.bases[args.i - 1]
    b2 = frame.bases[args.j - 1]
    thetas = metrics_mod.principal_angles(b1, b2).thetas
    payload = {
        "i": args.i,
        "j": args.j,
        "principal_angles": [float(t) for t in thetas],
        "chordal_distance_sq": metrics_mod.chordal_distance_sq(b1, b2),
        "spectral_distance_sq": metrics_mod.spectral_distance_sq(b1, b2),
        "geodesic_distance": metrics_mod.geodesic_distance(b1, b2),
    }
    lines = [
        f"pair ({args.i}, {args.j}) of n={frame.n}",
        "principal angles (rad): " + " ".join(_fmt(t) for t in payload["principal_angles"]),
        *(f"{key}: {_fmt(payload[key])}" for key in ("chordal_distance_sq", "spectral_distance_sq", "geodesic_distance")),
    ]
    return _report(args, payload, lines)


def _parse_index_set(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise ValueError(f"set: expected comma-separated integers, got {text!r}") from None


def _cmd_construct(args) -> int:
    from . import construct as construct_mod

    if args.kind == "simplex":
        frame = construct_mod.regular_simplex(args.n)
    elif args.kind == "orthoplex":
        frame = construct_mod.orthoplex(args.d)
    elif args.kind == "harmonic":
        ds = construct_mod.DifferenceSet(args.modulus, _parse_index_set(args.set))
        frame = construct_mod.harmonic_etf(ds)
    else:  # tensor
        etf = load_frame(args.etf)
        frame = construct_mod.tensor_eitff(etf, args.c)
    summary = {"kind": args.kind, "n": frame.n, "d": frame.d, "c": frame.c, "field": frame.field.value}
    return _emit_frame(args, frame, summary)


def _cmd_pack(args) -> int:
    config = PackConfig(criterion=Criterion(args.criterion), iterations=args.iters, restarts=args.restarts, seed=args.seed)
    from . import optimize as optimize_mod

    result = optimize_mod.pack(_parse_field(args.field), args.d, args.c, args.n, config)
    summary = {
        "criterion": args.criterion,
        "achieved": result.achieved,
        "bound": result.bound,
        "bound_name": result.bound_name,
        "gap": result.gap,
        "restart_index": result.restart_index,
        "iterations_used": result.iterations_used,
        "is_ectff": result.certificate.is_ectff,
        "is_eitff": result.certificate.is_eitff,
    }
    return _emit_frame(args, result.frame, summary, result.certificate)


# ---------------------------------------------------------------------------
# Parser and entry point


def _build_parser() -> _Parser:
    parser = _Parser(prog="grasspack", description="Subspace packing toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    # Each option shared by several commands is declared once, in a parent.
    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--format", choices=("human", "json"), default="human")
    output = argparse.ArgumentParser(add_help=False, parents=[report])
    output.add_argument("-o", "--output", default=None)
    shape = argparse.ArgumentParser(add_help=False)
    for name in ("--n", "--d", "--c"):
        shape.add_argument(name, type=int, required=True)
    shape.add_argument("--field", default="R")

    p = sub.add_parser("bounds", parents=[shape, report], help="evaluate every packing bound for (n, d, c)")
    p.set_defaults(handler=_cmd_bounds)

    p = sub.add_parser("certify", parents=[report], help="certify the structure of a frame file")
    p.add_argument("frame")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.set_defaults(handler=_cmd_certify)

    p = sub.add_parser("angles", parents=[report], help="principal angles and distances for one pair")
    p.add_argument("frame")
    p.add_argument("--i", type=int, required=True, help="first subspace, 1-based")
    p.add_argument("--j", type=int, required=True, help="second subspace, 1-based")
    p.set_defaults(handler=_cmd_angles)

    p = sub.add_parser("construct", help="build a known packing and write it as a frame file")
    p.set_defaults(handler=_cmd_construct)
    csub = p.add_subparsers(dest="kind", required=True)
    csub.add_parser("simplex", parents=[output]).add_argument("--n", type=int, required=True)
    csub.add_parser("orthoplex", parents=[output]).add_argument("--d", type=int, required=True)
    q = csub.add_parser("harmonic", parents=[output])
    q.add_argument("--modulus", type=int, required=True)
    q.add_argument("--set", required=True, help="comma-separated residues, e.g. 1,2,4")
    q = csub.add_parser("tensor", parents=[output])
    q.add_argument("etf", help="frame file holding a c = 1 frame (ideally an ETF)")
    q.add_argument("--c", type=int, required=True)

    p = sub.add_parser("pack", parents=[shape, output], help="numerically search for a packing")
    p.add_argument("--criterion", choices=[k.value for k in Criterion], default=PackConfig.criterion.value)
    p.add_argument("--seed", type=int, default=PackConfig.seed, help="seed of the random starting frames (default %(default)s)")
    p.add_argument(
        "--restarts",
        type=int,
        default=PackConfig.restarts,
        help="maximum number of restarts; the search stops after the first one within tolerance of the bound (default %(default)s)",
    )
    p.add_argument("--iters", type=int, default=PackConfig.iterations, help="maximum descent iterations per restart (default %(default)s)")
    p.set_defaults(handler=_cmd_pack)

    return parser


def run(argv: Sequence[str]) -> int:
    """Execute one CLI invocation; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
        return args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"numerical failure: out of memory ({exc})", file=sys.stderr)
        return 2
    except SystemExit as exc:  # argparse --help
        code = exc.code
        return int(code) if isinstance(code, int) else 0


def main() -> None:
    code = run(sys.argv[1:])
    try:
        sys.stdout.flush()
    except OSError:
        # run() flushes each write and has reported the one that failed,
        # whose text is still buffered. The interpreter flushes stdout again
        # at exit; devnull keeps that quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main()
