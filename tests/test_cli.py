import errno
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from grasspack.certify import certify
from grasspack.cli import frame_from_json_obj, frame_to_json_obj, load_frame, run, save_frame
from grasspack.construct import DifferenceSet, harmonic_etf, regular_simplex, tensor_eitff
from grasspack.linalg import FieldTag, NumericalError
from grasspack.metrics import FusionFrame

from conftest import child_env


def run_capture(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFrameFileFormat:
    @pytest.mark.parametrize(
        "frame",
        [regular_simplex(4), tensor_eitff(harmonic_etf(DifferenceSet(7, [1, 2, 4])), 2)],
        ids=["real", "complex"],
    )
    def test_round_trip_is_bit_exact(self, frame):
        obj = json.loads(json.dumps(frame_to_json_obj(frame)))
        loaded = frame_from_json_obj(obj)
        assert loaded.field is frame.field
        for a, b in zip(frame.bases, loaded.bases):
            assert a.array.tobytes() == b.array.tobytes()

    @pytest.mark.parametrize(
        "frame",
        [
            regular_simplex(4),
            FusionFrame.from_arrays([[[-0.0], [1.0]], [[1.0], [-0.0]]], FieldTag.REAL),
            tensor_eitff(harmonic_etf(DifferenceSet(7, [1, 2, 4])), 2),
            FusionFrame.from_arrays(
                [[[complex(-0.0, 1.0)], [complex(0.0, -0.0)]], [[complex(-0.0, -0.0)], [complex(-1.0, 0.0)]]],
                FieldTag.COMPLEX,
            ),
        ],
        ids=["real", "real-signed-zeros", "complex", "complex-signed-zeros"],
    )
    def test_saved_bytes_match_entrywise_encoder(self, frame, tmp_path):
        # Reference: the entry-by-entry encoder the vectorized one replaced.
        real = frame.field is FieldTag.REAL
        bases = []
        for b in frame.bases:
            a = b.array
            if real:
                rows = [[float(a[i, k].real) for k in range(frame.c)] for i in range(frame.d)]
            else:
                rows = [
                    [[float(a[i, k].real), float(a[i, k].imag)] for k in range(frame.c)]
                    for i in range(frame.d)
                ]
            bases.append(rows)
        obj = {"field": frame.field.value, "d": frame.d, "c": frame.c, "n": frame.n, "bases": bases}
        path = tmp_path / "frame.json"
        save_frame(frame, str(path))
        assert path.read_bytes() == (json.dumps(obj) + "\n").encode("utf-8")

    def test_save_load_file(self, tmp_path):
        path = str(tmp_path / "frame.json")
        frame = regular_simplex(3)
        save_frame(frame, path)
        loaded = load_frame(path)
        assert loaded == frame

    def test_save_into_a_directory_raises_os_error(self, tmp_path):
        with pytest.raises(OSError):
            save_frame(regular_simplex(3), str(tmp_path))

    def test_loader_names_failing_basis(self):
        obj = frame_to_json_obj(regular_simplex(3))
        obj["bases"][1][0][0] = 5.0  # breaks unit norm of basis 2
        with pytest.raises(ValueError, match=r"bases\[2\]"):
            frame_from_json_obj(obj)

    def test_loader_names_shape_problems(self):
        obj = frame_to_json_obj(regular_simplex(3))
        obj["bases"][2][0] = [1.0, 2.0]
        with pytest.raises(ValueError, match=r"bases\[3\]"):
            frame_from_json_obj(obj)
        obj = frame_to_json_obj(regular_simplex(3))
        obj["n"] = 4
        with pytest.raises(ValueError, match="n"):
            frame_from_json_obj(obj)

    def test_loader_checks_entry_shape_for_field(self):
        obj = frame_to_json_obj(harmonic_etf(DifferenceSet(7, [1, 2, 4])))
        obj["field"] = "R"  # complex [re, im] entries now invalid
        with pytest.raises(ValueError, match="numeric"):
            frame_from_json_obj(obj)

    @pytest.mark.parametrize("field", ["R", "C"])
    @pytest.mark.parametrize("bad", [True, False, "0.5", "1", None, [0.5, 0.0, 0.0], {}])
    def test_loader_rejects_non_numeric_entries(self, field, bad):
        frame = regular_simplex(3) if field == "R" else harmonic_etf(DifferenceSet(7, [1, 2, 4]))
        obj = frame_to_json_obj(frame)
        obj["bases"][1][0][0] = bad
        with pytest.raises(ValueError, match=r"^bases\[2\]: (real|complex) frames need"):
            frame_from_json_obj(obj)

    @pytest.mark.parametrize("bad", [[True, 0.0], [0.0, False], ["0.5", 0.0], [0.5], 0.5])
    def test_loader_rejects_malformed_complex_entries(self, bad):
        obj = frame_to_json_obj(harmonic_etf(DifferenceSet(7, [1, 2, 4])))
        obj["bases"][4][1][0] = bad
        with pytest.raises(ValueError, match=r"^bases\[5\]: complex frames need \[re, im\] entries"):
            frame_from_json_obj(obj)

    def test_loader_rejects_pair_in_real_frame(self):
        obj = frame_to_json_obj(regular_simplex(3))
        obj["bases"][2][1][0] = [0.5, 0.0]
        with pytest.raises(ValueError, match=r"^bases\[3\]: real frames need numeric entries"):
            frame_from_json_obj(obj)

    def test_loader_accepts_integer_entries(self):
        obj = {"field": "C", "d": 2, "c": 1, "n": 2, "bases": [[[[1, 0]], [[0, 0]]], [[[0, 0]], [[0, -1]]]]}
        f = frame_from_json_obj(obj)
        assert f.field is FieldTag.COMPLEX
        assert f.array.tolist() == [[[1 + 0j], [0j]], [[0j], [-1j]]]

    @pytest.mark.parametrize("field", ["R", "C"])
    def test_loader_names_basis_of_oversized_integer(self, field):
        frame = regular_simplex(3) if field == "R" else harmonic_etf(DifferenceSet(7, [1, 2, 4]))
        obj = frame_to_json_obj(frame)
        huge = 10**400
        obj["bases"][1][0][0] = huge if field == "R" else [0.0, huge]
        with pytest.raises(ValueError, match=r"^bases\[2\]: matrix entries must be finite"):
            frame_from_json_obj(obj)


class TestBoundsCommand:
    def test_human_output(self, capsys):
        code, out, _ = run_capture(capsys, "bounds", "--n", "3", "--d", "4", "--c", "2")
        assert code == 0
        assert "simplex chordal:   1.5" in out
        assert "simplex gram:      0.5" in out
        assert "eitff spectral:    0.25" in out

    def test_json_output(self, capsys):
        code, out, _ = run_capture(
            capsys, "bounds", "--n", "10", "--d", "3", "--c", "1", "--field", "C", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["orthoplex_gram"] == pytest.approx(1 / 3)
        assert payload["gerzon"] == 9

    def test_invalid_field(self, capsys):
        code, _, err = run_capture(capsys, "bounds", "--n", "3", "--d", "2", "--c", "1", "--field", "Q")
        assert code == 1
        assert "field" in err

    def test_invalid_dimensions(self, capsys):
        code, _, err = run_capture(capsys, "bounds", "--n", "3", "--d", "2", "--c", "5")
        assert code == 1
        assert "c" in err


class TestConstructAndCertify:
    def test_simplex_certify_pipeline(self, tmp_path, capsys):
        path = str(tmp_path / "s.json")
        code, _, _ = run_capture(capsys, "construct", "simplex", "--n", "3", "-o", path)
        assert code == 0
        code, out, _ = run_capture(capsys, "certify", path, "--format", "json")
        assert code == 0
        cert = json.loads(out)
        assert cert["is_ectff"] is True and cert["is_eitff"] is True
        assert cert["sigma_sq"] == pytest.approx(0.25, abs=1e-12)

    def test_certify_json_has_exactly_certificate_fields(self, tmp_path, capsys):
        path = str(tmp_path / "s.json")
        run_capture(capsys, "construct", "simplex", "--n", "4", "-o", path)
        code, out, _ = run_capture(capsys, "certify", path, "--format", "json")
        assert code == 0
        cert = certify(load_frame(path))
        assert json.loads(out) == json.loads(json.dumps(cert.as_dict()))

    def test_tensor_pipeline(self, tmp_path, capsys):
        etf = str(tmp_path / "etf.json")
        out_path = str(tmp_path / "tensor.json")
        run_capture(capsys, "construct", "simplex", "--n", "3", "-o", etf)
        code, _, _ = run_capture(capsys, "construct", "tensor", etf, "--c", "2", "-o", out_path)
        assert code == 0
        frame = load_frame(out_path)
        assert (frame.n, frame.d, frame.c) == (3, 4, 2)
        code, out, _ = run_capture(capsys, "certify", out_path, "--format", "json")
        assert json.loads(out)["is_eitff"] is True

    @pytest.mark.parametrize("c", ["0", "-1"])
    def test_tensor_bad_c_names_the_flag(self, tmp_path, capsys, c):
        etf = str(tmp_path / "etf.json")
        run_capture(capsys, "construct", "simplex", "--n", "3", "-o", etf)
        code, out, err = run_capture(capsys, "construct", "tensor", etf, "--c", c)
        assert (code, out, err) == (1, "", f"error: c must be an integer >= 1, got {c}\n")

    def test_harmonic_and_orthoplex(self, tmp_path, capsys):
        h = str(tmp_path / "h.json")
        code, _, _ = run_capture(
            capsys, "construct", "harmonic", "--modulus", "7", "--set", "1,2,4", "-o", h
        )
        assert code == 0
        frame = load_frame(h)
        assert (frame.n, frame.d, frame.field) == (7, 3, FieldTag.COMPLEX)

        o = str(tmp_path / "o.json")
        code, _, _ = run_capture(capsys, "construct", "orthoplex", "--d", "2", "-o", o)
        assert code == 0
        assert load_frame(o).n == 4

    def test_construct_without_output_prints_frame(self, capsys):
        code, out, _ = run_capture(capsys, "construct", "simplex", "--n", "3")
        assert code == 0
        obj = json.loads(out)
        assert obj["n"] == 3 and obj["field"] == "R"

    def test_certify_rejects_bad_basis_naming_it(self, tmp_path, capsys):
        path = str(tmp_path / "bad.json")
        obj = frame_to_json_obj(regular_simplex(3))
        obj["bases"][1] = [[2.0], [0.0]]  # non-unit column in basis 2
        with open(path, "w") as fh:
            json.dump(obj, fh)
        code, _, err = run_capture(capsys, "certify", path)
        assert code == 1
        assert "bases[2]" in err

    def test_certify_oversized_integer_is_invalid_input(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        obj = frame_to_json_obj(regular_simplex(3))
        text = json.dumps(obj).replace(json.dumps(obj["bases"][1][0][0]), "1" + "0" * 400, 1)
        path.write_text(text)
        assert json.loads(text)["bases"][1][0][0] == 10**400
        code, out, err = run_capture(capsys, "certify", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: bases[2]: matrix entries must be finite")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("tol", ["inf", "-inf", "nan", "-1", "0"])
    def test_certify_rejects_bad_tol_before_loading(self, tol, capsys):
        code, out, err = run_capture(capsys, "certify", "/nonexistent/frame.json", f"--tol={tol}", "--format", "json")
        assert code == 1
        assert out == ""
        assert err.startswith("error: tol: must be finite and positive")

    def test_certify_missing_file(self, capsys):
        code, _, err = run_capture(capsys, "certify", "/nonexistent/frame.json")
        assert code == 1
        assert "frame file" in err

    def test_harmonic_bad_set(self, capsys):
        code, _, err = run_capture(
            capsys, "construct", "harmonic", "--modulus", "7", "--set", "1,x"
        )
        assert code == 1
        assert "set" in err


class TestAngles:
    def test_values_match_library(self, tmp_path, capsys):
        import grasspack.metrics as metrics

        path = str(tmp_path / "s.json")
        run_capture(capsys, "construct", "simplex", "--n", "3", "-o", path)
        code, out, _ = run_capture(capsys, "angles", path, "--i", "1", "--j", "2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        f = load_frame(path)
        assert payload["principal_angles"] == pytest.approx(
            list(metrics.principal_angles(f.bases[0], f.bases[1]).thetas)
        )
        assert payload["chordal_distance_sq"] == pytest.approx(0.75)

    def test_one_based_indices_validated(self, tmp_path, capsys):
        path = str(tmp_path / "s.json")
        run_capture(capsys, "construct", "simplex", "--n", "3", "-o", path)
        code, _, err = run_capture(capsys, "angles", path, "--i", "0", "--j", "2")
        assert code == 1 and "range" in err
        code, _, err = run_capture(capsys, "angles", path, "--i", "2", "--j", "2")
        assert code == 1 and "differ" in err


class TestPackCommand:
    def test_pack_writes_frame_and_summary(self, tmp_path, capsys):
        path = str(tmp_path / "packed.json")
        code, out, _ = run_capture(
            capsys,
            "pack", "--field", "R", "--d", "2", "--c", "1", "--n", "3",
            "--iters", "200", "--restarts", "2", "--seed", "1",
            "-o", path, "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["achieved"] <= 0.26
        assert payload["output"] == path
        frame = load_frame(path)
        assert (frame.n, frame.d, frame.c) == (3, 2, 1)

    def test_pack_human_output_names_the_written_file(self, tmp_path, capsys):
        path = str(tmp_path / "packed.json")
        code, out, _ = run_capture(
            capsys, "pack", "--field", "R", "--d", "2", "--c", "1", "--n", "3", "--restarts", "1", "-o", path
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("criterion: chordal")
        assert lines[-1] == f"frame written: {path}"
        assert load_frame(path).n == 3

    def test_pack_spectral_criterion(self, capsys):
        code, out, _ = run_capture(
            capsys,
            "pack", "--field", "C", "--d", "3", "--c", "1", "--n", "4",
            "--criterion", "spectral", "--iters", "150", "--restarts", "2",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["criterion"] == "spectral"
        assert payload["gap"] >= -1e-10
        assert payload["frame"]["n"] == 4

    def test_pack_is_deterministic_cli_level(self, tmp_path, capsys):
        args = [
            "pack", "--field", "R", "--d", "2", "--c", "1", "--n", "3",
            "--iters", "50", "--restarts", "2", "--seed", "9", "--format", "json",
        ]
        _, out1, _ = run_capture(capsys, *args)
        _, out2, _ = run_capture(capsys, *args)
        assert out1 == out2

    def test_pack_reports_the_governing_bound(self, capsys):
        code, out, _ = run_capture(
            capsys,
            "pack", "--field", "R", "--d", "2", "--c", "1", "--n", "4",
            "--iters", "300", "--restarts", "3", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert (payload["bound"], payload["bound_name"]) == (0.5, "orthoplex")
        assert payload["gap"] == payload["achieved"] - 0.5
        code, out, _ = run_capture(
            capsys, "pack", "--field", "R", "--d", "6", "--c", "2", "--n", "2", "--iters", "300", "--restarts", "3"
        )
        assert code == 0
        assert "bound_name: trivial" in out.splitlines()

    @pytest.mark.parametrize(
        "flag, value, field",
        [("--seed", "-1", "seed"), ("--iters", "0", "iterations"), ("--restarts", "0", "restarts")],
    )
    def test_pack_rejects_bad_counts_naming_the_field(self, capsys, flag, value, field):
        code, out, err = run_capture(
            capsys, "pack", "--field", "R", "--d", "2", "--c", "1", "--n", "3", flag, value
        )
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {field} must be an integer >= ")

    def test_numerical_failure_maps_to_exit_2(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise NumericalError("diverged")

        monkeypatch.setattr("grasspack.optimize.pack", boom)
        code, _, err = run_capture(
            capsys, "pack", "--field", "R", "--d", "2", "--c", "1", "--n", "3"
        )
        assert code == 2
        assert "numerical failure" in err

    def test_out_of_memory_maps_to_exit_2(self, capsys, monkeypatch):
        message = "Unable to allocate 931. GiB for an array with shape (1000000, 1000000) and data type bool"

        def boom(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr("grasspack.optimize.pack", boom)
        code, out, err = run_capture(capsys, "pack", "--d", "2", "--c", "1", "--n", "1000000")
        assert (code, out) == (2, "")
        assert err == f"numerical failure: out of memory ({message})\n"


class TestParsing:
    def test_unknown_subcommand(self, capsys):
        code, _, err = run_capture(capsys, "frobnicate")
        assert code == 1
        assert err.strip() != ""

    def test_missing_required_flag(self, capsys):
        code, _, err = run_capture(capsys, "bounds", "--n", "3", "--d", "2")
        assert code == 1

    def test_help_exits_zero(self, capsys):
        code, out, _ = run_capture(capsys, "--help")
        assert code == 0
        assert "grasspack" in out


def _reject_constant(name):
    raise ValueError(f"non-JSON constant {name} on stdout")


class TestJsonContract:
    def test_every_json_command_prints_one_strict_json_object(self, tmp_path, capsys):
        simplex, harmonic = str(tmp_path / "simplex.json"), str(tmp_path / "harmonic.json")
        packed = str(tmp_path / "packed.json")
        commands = [
            ["bounds", "--n", "3", "--d", "4", "--c", "2"],
            ["bounds", "--n", "40", "--d", "8", "--c", "3", "--field", "C"],
            ["bounds", "--n", "2", "--d", "1", "--c", "1"],
            ["construct", "simplex", "--n", "3", "-o", simplex],
            ["construct", "simplex", "--n", "4"],
            ["construct", "orthoplex", "--d", "3"],
            ["construct", "harmonic", "--modulus", "7", "--set", "1,2,4", "-o", harmonic],
            ["construct", "tensor", simplex, "--c", "2"],
            ["construct", "tensor", harmonic, "--c", "2", "-o", str(tmp_path / "tensor.json")],
            ["certify", simplex],
            ["certify", harmonic, "--tol", "1e-12"],
            ["angles", harmonic, "--i", "1", "--j", "3"],
            ["pack", "--d", "2", "--c", "1", "--n", "3", "--iters", "20", "--restarts", "1"],
            ["pack", "--field", "C", "--d", "2", "--c", "1", "--n", "3", "--criterion", "spectral",
             "--iters", "20", "--restarts", "1", "-o", packed],
            ["certify", packed],
        ]
        for argv in commands:
            code, out, err = run_capture(capsys, *argv, "--format", "json")
            assert (code, err) == (0, ""), argv
            assert len(out.splitlines()) == 1, argv
            assert isinstance(json.loads(out, parse_constant=_reject_constant), dict), argv


def _write_simplex_with(tmp_path, **changes) -> str:
    """A frame file holding regular_simplex(3) with the given top-level keys replaced."""
    obj = {**frame_to_json_obj(regular_simplex(3)), **changes}
    path = tmp_path / "frame.json"
    path.write_text(json.dumps(obj))
    return str(path)


def _rejected(capsys, path) -> str:
    """The one-line diagnostic of ``certify path``, which must exit 1 with no stdout."""
    code, out, err = run_capture(capsys, "certify", path)
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1
    return err


class TestFrameFileRejections:
    def test_top_level_non_object(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        assert _rejected(capsys, str(path)).startswith("error: frame: top-level value must be an object")

    @pytest.mark.parametrize("key", ["field", "d", "c", "n", "bases"])
    def test_missing_key(self, tmp_path, capsys, key):
        obj = frame_to_json_obj(regular_simplex(3))
        del obj[key]
        path = tmp_path / "frame.json"
        path.write_text(json.dumps(obj))
        assert _rejected(capsys, str(path)) == f"error: {key}: missing\n"

    @pytest.mark.parametrize("value", ["Q", "r", 1, None])
    def test_field_not_r_or_c(self, tmp_path, capsys, value):
        err = _rejected(capsys, _write_simplex_with(tmp_path, field=value))
        assert err.startswith("error: field: must be 'R' or 'C'")

    @pytest.mark.parametrize("key", ["d", "c", "n"])
    @pytest.mark.parametrize("value", [0, -1, True, 2.5])
    def test_dimension_not_a_positive_integer(self, tmp_path, capsys, key, value):
        err = _rejected(capsys, _write_simplex_with(tmp_path, **{key: value}))
        assert err == f"error: {key}: must be an integer >= 1, got {value!r}\n"

    def test_c_exceeds_d(self, tmp_path, capsys):
        err = _rejected(capsys, _write_simplex_with(tmp_path, c=3))
        assert err.startswith("error: c: subspace dimension 3 exceeds ambient dimension 2")

    def test_basis_with_wrong_row_count(self, tmp_path, capsys):
        obj = frame_to_json_obj(regular_simplex(3))
        obj["bases"][1].append([0.0])
        path = tmp_path / "frame.json"
        path.write_text(json.dumps(obj))
        assert _rejected(capsys, str(path)) == "error: bases[2]: expected 2 rows, found 3\n"

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "frame.json"
        path.write_text('{"field": "R", "d": 2,')
        assert _rejected(capsys, str(path)).startswith("error: frame file: not valid JSON")

    def test_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "frame.json"
        path.write_bytes(b'{"field": "\xff"}')
        assert _rejected(capsys, str(path)).startswith("error: frame file: ")

    def test_nesting_too_deep_to_parse(self, tmp_path, capsys):
        path = tmp_path / "frame.json"
        path.write_text("[" * 200_000)
        assert _rejected(capsys, str(path)).startswith("error: frame file: ")

    def test_integer_literal_too_long_to_convert(self, tmp_path, capsys):
        # json.load refuses integer literals of more than 4300 digits with a
        # plain ValueError, not a JSONDecodeError.
        obj = frame_to_json_obj(regular_simplex(3))
        text = json.dumps(obj).replace(json.dumps(obj["bases"][1][0][0]), "1" * 5000, 1)
        path = tmp_path / "frame.json"
        path.write_text(text)
        assert _rejected(capsys, str(path)).startswith("error: frame file: not valid JSON")

    def test_certify_single_subspace(self, tmp_path, capsys):
        path = tmp_path / "one.json"
        path.write_text(json.dumps({"field": "R", "d": 2, "c": 1, "n": 1, "bases": [[[1.0], [0.0]]]}))
        assert _rejected(capsys, str(path)) == "error: n: certification needs n >= 2, got 1\n"


WRITING_COMMANDS = {
    "construct": ["construct", "simplex", "--n", "3"],
    "pack": ["pack", "--d", "2", "--c", "1", "--n", "3", "--iters", "20", "--restarts", "1"],
}


@pytest.mark.parametrize("command", sorted(WRITING_COMMANDS))
@pytest.mark.parametrize("fmt", ["human", "json"])
@pytest.mark.parametrize("target", ["missing-directory", "directory"])
def test_unwritable_output_is_invalid_input(tmp_path, capsys, command, fmt, target):
    path = str(tmp_path / "missing" / "frame.json") if target == "missing-directory" else str(tmp_path)
    code, out, err = run_capture(capsys, *WRITING_COMMANDS[command], "-o", path, "--format", fmt)
    assert (code, out) == (1, "")
    assert err.startswith("error: output: ")
    assert len(err.splitlines()) == 1


class _FailingStdout(io.StringIO):
    def __init__(self, exc: OSError):
        super().__init__()
        self.exc = exc

    def write(self, text):
        raise self.exc


@pytest.mark.parametrize("fmt", ["human", "json"])
@pytest.mark.parametrize(
    "exc",
    [BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE)), OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))],
    ids=["broken-pipe", "no-space"],
)
def test_unwritable_stdout_is_invalid_input(capsys, monkeypatch, fmt, exc):
    monkeypatch.setattr(sys, "stdout", _FailingStdout(exc))
    code = run(["bounds", "--n", "3", "--d", "4", "--c", "2", "--format", fmt])
    assert code == 1
    assert capsys.readouterr().err == f"error: stdout: {exc}\n"


def test_closed_stdout_pipe_exits_1_in_one_line():
    # The frame is about 2 MB of JSON, far more than a pipe holds, so the
    # command is still writing when the reader closes its end.
    proc = subprocess.Popen(
        [sys.executable, "-m", "grasspack.cli", "construct", "simplex", "--n", "300"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env(),
    )
    assert proc.stdout.read(10) == b'{"field": '
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 1
    assert err.decode() == f"error: stdout: [Errno {errno.EPIPE}] {os.strerror(errno.EPIPE)}\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("argv", [["--help"], ["pack", "--help"]], ids=["help", "pack-help"])
def test_help_into_a_full_device_exits_1_in_one_line(argv, unbuffered):
    # Unbuffered, the help text's own write fails, an error argparse alone
    # drops (exit 0); buffered, the flush after it fails.
    env = child_env(PYTHONUNBUFFERED="1")
    if not unbuffered:
        del env["PYTHONUNBUFFERED"]
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "grasspack.cli", *argv], stdout=full, stderr=subprocess.PIPE, env=env, timeout=120
        )
    assert proc.returncode == 1
    assert proc.stderr.decode() == f"error: stdout: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"


# A module each command loads, and the ones it may not: `bounds` is
# closed-form arithmetic, and reading or measuring a frame needs neither the
# constructors nor the search.
LOADS = {
    "bounds": (["bounds", "--n", "3", "--d", "4", "--c", "2", "--format", "json"], "grasspack.bounds", {"numpy"}),
    "certify": (["certify", "FRAME"], "grasspack.certify", {"grasspack.optimize", "grasspack.construct"}),
    "angles": (["angles", "FRAME", "--i", "1", "--j", "2"], "grasspack.metrics", {"grasspack.optimize", "grasspack.construct"}),
}


@pytest.mark.parametrize("command", sorted(LOADS))
def test_each_command_loads_only_the_layers_it_uses(tmp_path, command):
    path = str(tmp_path / "s.json")
    save_frame(regular_simplex(3), path)
    argv, used, absent = LOADS[command]
    code = (
        "import json, sys\n"
        "from grasspack.cli import run\n"
        "code = run(json.loads(sys.argv[1]))\n"
        "print(json.dumps([code, sorted(sys.modules)]), file=sys.stderr)\n"
    )
    argv = [path if a == "FRAME" else a for a in argv]
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(argv)], capture_output=True, text=True, env=child_env(), timeout=120
    )
    exit_code, loaded = json.loads(proc.stderr)
    assert exit_code == 0
    assert used in loaded
    assert absent.isdisjoint(loaded)


class TestHumanOutput:
    def test_bounds(self, capsys):
        code, out, err = run_capture(capsys, "bounds", "--n", "3", "--d", "4", "--c", "2")
        assert (code, err) == (0, "")
        assert out.splitlines() == [
            "parameters: n=3 d=4 c=2 field=R",
            "welch:             n/a  (requires c = 1)",
            "simplex chordal:   1.5",
            "simplex gram:      0.5",
            "eitff spectral:    0.25",
            "orthoplex chordal: n/a  (requires n > 10 (Gerzon limit for d = 4 over R))",
            "orthoplex gram:    n/a  (requires n > 10 (Gerzon limit for d = 4 over R))",
            "intersection gram: n/a  (requires 2c > d)",
            "gerzon limit:      10",
            "traceless dim:     9",
        ]

    def test_construct_summary(self, tmp_path, capsys):
        path = str(tmp_path / "s.json")
        code, out, err = run_capture(capsys, "construct", "simplex", "--n", "3", "-o", path)
        assert (code, err) == (0, "")
        assert out.splitlines() == ["kind: simplex", "n: 3", "d: 2", "c: 1", "field: R", f"frame written: {path}"]

    def test_certify(self, tmp_path, capsys):
        path = str(tmp_path / "s.json")
        save_frame(regular_simplex(3), path)
        code, out, err = run_capture(capsys, "certify", path)
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert lines[0] == "frame: n=3 d=2 c=1 field=R tolerance=1e-08"
        assert lines[1].startswith("is_tight:         true  (residual ")
        assert lines[1].endswith(", alpha 1.5)")
        assert lines[2].startswith("is_equichordal:   true  (beta 0.25, deviation ")
        assert lines[3].startswith("is_equiisoclinic: true  (sigma_sq 0.25, deviation ")
        assert lines[4:6] == ["is_ectff:         true", "is_eitff:         true"]
        assert lines[-1] == "orthoplex_gap:    n/a"

    def test_angles(self, tmp_path, capsys):
        path = str(tmp_path / "s.json")
        save_frame(regular_simplex(3), path)
        code, out, err = run_capture(capsys, "angles", path, "--i", "1", "--j", "2")
        assert (code, err) == (0, "")
        assert out.splitlines() == [
            "pair (1, 2) of n=3",
            "principal angles (rad): 1.0471975512",
            "chordal_distance_sq: 0.75",
            "spectral_distance_sq: 0.75",
            "geodesic_distance: 1.0471975512",
        ]


def test_certify_svd_failure_exits_2(tmp_path, capsys, monkeypatch):
    # A c = 2 frame: at c = 1 certify takes the spectral maximum without an SVD.
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    path = str(tmp_path / "s.json")
    save_frame(tensor_eitff(regular_simplex(3), 2), path)
    monkeypatch.setattr(np.linalg, "svd", no_convergence)
    code, out, err = run_capture(capsys, "certify", path)
    assert (code, out) == (2, "")
    assert err.startswith("numerical failure: SVD failed to converge")


def test_pack_eigendecomposition_failure_exits_2(capsys, monkeypatch):
    # (R,2,1,3) reaches its simplex bound, so pack runs the polish stage,
    # whose Gram-to-frame step is one eigendecomposition per sweep.
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", no_convergence)
    code, out, err = run_capture(capsys, "pack", "--field", "R", "--d", "2", "--c", "1", "--n", "3")
    assert (code, out) == (2, "")
    assert err.startswith("numerical failure: eigendecomposition failed to converge")
