import io
import json
import math

import pytest

from qaml.cli import main

BELL = "qubits 2\nh 0\ncx 0 1\nmeasure all\n"


def write(path, text):
    path.write_text(text)
    return str(path)


def write_with_bom(path, text):
    """A UTF-8 file that starts with a byte-order mark, as spreadsheet programs save CSV."""
    path.write_bytes(b"\xef\xbb\xbf" + text.encode())
    return str(path)


class TestRun:
    def test_bell_json(self, tmp_path, capsys):
        path = write(tmp_path / "bell.q", BELL)
        assert main(["run", path, "--shots", "10000", "--seed", "7"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["shots"] == 10000
        assert set(payload["counts"]) == {"00", "11"}

    def test_empty_circuit(self, tmp_path, capsys):
        path = write(tmp_path / "idle.q", "qubits 3\n")
        assert main(["run", path, "--shots", "5"]) == 0
        assert capsys.readouterr().out.strip() == '{"counts": {"000": 5}, "shots": 5}'

    def test_malformed_file_exits_1(self, tmp_path, capsys):
        path = write(tmp_path / "bad.q", "qubits 2\nh 9\n")
        assert main(["run", path]) == 1
        err = capsys.readouterr().err
        assert "line 2" in err

    @pytest.mark.parametrize("angle", ["nan", "inf"])
    def test_non_finite_angle_exits_1(self, tmp_path, capsys, angle):
        path = write(tmp_path / "bad.q", f"qubits 1\nrx 0 {angle}\n")
        assert main(["run", path]) == 1
        assert f"bad.q:line 2, column 6: angle must be finite, got '{angle}'" in capsys.readouterr().err

    def test_text_format(self, tmp_path, capsys):
        path = write(tmp_path / "idle.q", "qubits 1\nx 0\n")
        assert main(["run", path, "--shots", "3", "--format", "text"]) == 0
        assert capsys.readouterr().out.strip() == "1  3"

    def test_seed_env_override(self, tmp_path, capsys, monkeypatch):
        path = write(tmp_path / "bell.q", BELL)
        monkeypatch.setenv("QAML_SEED", "7")
        assert main(["run", path, "--shots", "1000"]) == 0
        with_env = capsys.readouterr().out
        monkeypatch.delenv("QAML_SEED")
        assert main(["run", path, "--shots", "1000", "--seed", "7"]) == 0
        assert capsys.readouterr().out == with_env

    def test_byte_identical_across_runs(self, tmp_path, capsys):
        path = write(tmp_path / "bell.q", BELL)
        outputs = []
        for _ in range(2):
            assert main(["run", path, "--shots", "4096", "--seed", "11"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_out_of_range_exits_4(self, tmp_path, capsys, seed):
        path = write(tmp_path / "bell.q", BELL)
        assert main(["run", path, "--seed", seed]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: ") and captured.err.count("\n") == 1

    def test_largest_seed_accepted(self, tmp_path, capsys):
        path = write(tmp_path / "bell.q", BELL)
        assert main(["run", path, "--shots", "3", "--seed", str(2**64 - 1)]) == 0

    @pytest.mark.parametrize("value", ["abc", "-1", "1.5"])
    def test_bad_seed_env_exits_4(self, tmp_path, capsys, monkeypatch, value):
        path = write(tmp_path / "bell.q", BELL)
        monkeypatch.setenv("QAML_SEED", value)
        assert main(["run", path]) == 4
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "QAML_SEED" in err

    @pytest.mark.parametrize("shots", ["0", "-3"])
    def test_non_positive_shots_exit_4(self, tmp_path, capsys, shots):
        path = write(tmp_path / "bell.q", BELL)
        assert main(["run", path, "--shots", shots]) == 4
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1


class TestState:
    def test_hadamard_state(self, tmp_path, capsys):
        path = write(tmp_path / "h.q", "qubits 1\nh 0\n")
        assert main(["state", path]) == 0
        entries = json.loads(capsys.readouterr().out)
        assert [e["basis"] for e in entries] == ["0", "1"]
        for entry in entries:
            assert entry["re"] == pytest.approx(1 / math.sqrt(2), abs=1e-5)
            assert entry["im"] == 0.0

    def test_empty_two_qubit(self, tmp_path, capsys):
        path = write(tmp_path / "idle.q", "qubits 2\n")
        assert main(["state", path]) == 0
        entries = json.loads(capsys.readouterr().out)
        assert entries == [{"basis": "00", "im": 0.0, "probability": 1.0, "re": 1.0}]

    def test_rz_pi_global_phase(self, tmp_path, capsys):
        path = write(tmp_path / "rz.q", "qubits 1\nrz 0 pi\n")
        assert main(["state", path]) == 0
        entries = json.loads(capsys.readouterr().out)
        assert len(entries) == 1
        assert entries[0]["basis"] == "0"
        assert entries[0]["re"] == pytest.approx(0.0, abs=1e-12)
        assert entries[0]["im"] == pytest.approx(-1.0, abs=1e-12)

    def test_program_from_stdin(self, capsys, monkeypatch):
        # `qaml encode --emit-circuit | qaml state -` prints the encoded state
        encode = ["encode", "--method", "angle", "--input", "0.5,1.5"]
        assert main(encode + ["--emit-circuit"]) == 0
        monkeypatch.setattr("sys.stdin", io.StringIO(capsys.readouterr().out))
        assert main(["state", "-"]) == 0
        from_stdin = capsys.readouterr().out
        assert main(encode) == 0
        assert from_stdin == capsys.readouterr().out

    def test_byte_order_mark_is_dropped(self, tmp_path, capsys, monkeypatch):
        assert main(["state", write(tmp_path / "bell.q", BELL)]) == 0
        plain = capsys.readouterr().out
        assert main(["state", write_with_bom(tmp_path / "bom.q", BELL)]) == 0
        assert capsys.readouterr().out == plain
        monkeypatch.setattr("sys.stdin", io.StringIO("\ufeff" + BELL))
        assert main(["state", "-"]) == 0
        assert capsys.readouterr().out == plain

    def test_bell_state(self, tmp_path, capsys):
        path = write(tmp_path / "bell.q", BELL)
        assert main(["state", path]) == 0
        entries = json.loads(capsys.readouterr().out)
        assert [e["basis"] for e in entries] == ["00", "11"]

    def test_repeated_statements_in_any_spelling(self, tmp_path, capsys):
        # 2,004 statements with CX in both orientations, under one spelling per
        # statement and under a different spelling per repeat, print the same state
        spellings = [
            ("h 0", "H 0", "h  0 # again"),
            ("cx 0 1", "CX 0 1", "cX 0 1"),
            ("rx 1 pi/2", "RX 1 1.5707963267948966", "rX 1 PI/2"),
            ("cx 1 0", "Cx 1 0", "CX 1 0 # flipped"),
            ("rz 2 -pi/4", "RZ 2 -0.7853981633974483", "rz 2 -1pi/4"),
            ("cx 2 0", "CX 2 0", "cx  2  0"),
        ]
        programs = {
            "same": [s[0] for r in range(334) for s in spellings],
            "mixed": [s[r % 3] for r in range(334) for s in spellings],
        }
        outputs = []
        for name, body in programs.items():
            path = write(tmp_path / f"{name}.q", "\n".join(["qubits 3", *body, "measure all\n"]))
            assert main(["state", path]) == 0
            outputs.append(capsys.readouterr())
        same, mixed = outputs
        assert same.err == mixed.err == ""
        assert same.out == mixed.out
        assert len(json.loads(same.out)) == 4

    def test_threshold_filters(self, tmp_path, capsys):
        path = write(tmp_path / "ry.q", "qubits 1\nry 0 0.2\n")
        assert main(["state", path, "--threshold", "0.5"]) == 0
        entries = json.loads(capsys.readouterr().out)
        assert [e["basis"] for e in entries] == ["0"]


class TestEncode:
    def test_amplitude_inline(self, capsys):
        assert main(["encode", "--method", "amplitude", "--input", "1.2,2.7,1.1,0.5"]) == 0
        entries = json.loads(capsys.readouterr().out)
        expected = [0.37592, 0.84581, 0.34459, 0.15663]
        assert [e["re"] for e in entries] == pytest.approx(expected, abs=1e-5)

    def test_basis_inline(self, capsys):
        assert main(["encode", "--method", "basis", "--input", "110"]) == 0
        entries = json.loads(capsys.readouterr().out)
        assert entries == [{"basis": "110", "im": 0.0, "probability": 1.0, "re": 1.0}]

    def test_superposition_inline(self, capsys):
        assert main(["encode", "--method", "superposition", "--input", "100,010,001"]) == 0
        entries = json.loads(capsys.readouterr().out)
        assert [e["basis"] for e in entries] == ["001", "010", "100"]
        for entry in entries:
            assert entry["re"] == pytest.approx(math.sqrt(1 / 3), abs=1e-9)

    def test_zero_vector_exits_3(self, capsys):
        assert main(["encode", "--method", "amplitude", "--input", "0,0"]) == 3
        assert "zero" in capsys.readouterr().err.lower()

    def test_angle_emit_circuit(self, capsys):
        assert main(
            ["encode", "--method", "angle", "--input", "0.5,1.5", "--axis", "x",
             "--emit-circuit"]
        ) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "qubits 2"
        assert out.splitlines()[1].startswith("rx 0 ")

    def test_angle_executed_state(self, capsys):
        assert main(["encode", "--method", "angle", "--input", str(math.pi / 2)]) == 0
        entries = json.loads(capsys.readouterr().out)
        assert [e["re"] for e in entries] == pytest.approx(
            [math.cos(math.pi / 4), math.sin(math.pi / 4)]
        )

    def test_csv_file_input(self, tmp_path, capsys):
        path = write(tmp_path / "features.csv", "a,b\n3,4\n")
        assert main(["encode", "--method", "amplitude", "--input", path]) == 0
        entries = json.loads(capsys.readouterr().out)
        assert [e["re"] for e in entries] == pytest.approx([0.6, 0.8])

    def test_byte_order_mark_is_dropped(self, tmp_path, capsys):
        path = write_with_bom(tmp_path / "features.csv", "3,4\n1,0\n")
        assert main(["encode", "--method", "amplitude", "--input", path]) == 0
        entries = json.loads(capsys.readouterr().out)
        assert [e["re"] for e in entries] == pytest.approx([0.6, 0.8])

    @pytest.mark.parametrize("extra", [[], ["--emit-circuit"]])
    def test_axis_in_either_case(self, capsys, extra):
        outputs = []
        for axis in ("Y", "y"):
            assert main(["encode", "--method", "angle", "--input", "0.5,1.5", "--axis", axis] + extra) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("method", ["amplitude", "angle"])
    def test_inline_row_is_never_a_header(self, capsys, method):
        # an inline row of non-numbers is the row to encode, so the error names its cell
        assert main(["encode", "--method", method, "--input", "a,b"]) == 3
        assert capsys.readouterr().err == (
            "encoding error: malformed CSV row ['a', 'b']: could not convert string to float: 'a'\n"
        )

    def test_header_of_a_file_is_skipped(self, tmp_path, capsys):
        outputs = []
        for name, text in (("plain", "3,4\n"), ("header", "a,b\n3,4\n")):
            assert main(["encode", "--method", "amplitude", "--input", write(tmp_path / f"{name}.csv", text)]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_input_from_stdin(self, capsys, monkeypatch):
        assert main(["encode", "--method", "amplitude", "--input", "3,4"]) == 0
        inline = capsys.readouterr().out
        for text in ("3,4\n", "a,b\n3,4\n", "\ufeff3,4\n1,0\n"):
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
            assert main(["encode", "--method", "amplitude", "--input", "-"]) == 0
            assert capsys.readouterr().out == inline


class TestTrain:
    def config(self, tmp_path, **overrides):
        payload = {"max_iterations": 500, "seed": 1}
        payload.update(overrides)
        return write(tmp_path / "config.json", json.dumps(payload))

    def test_separable_task(self, tmp_path, capsys):
        config = self.config(tmp_path)
        data = write(tmp_path / "data.csv", f"0.0,1\n{math.pi},-1\n")
        out = str(tmp_path / "report.json")
        assert main(["train", "--config", config, "--data", data, "--out", out]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["loss_trace"][-1] < 0.05
        assert "final loss" in capsys.readouterr().err

    FOUR_ROWS = "0.1,0.2,1\n0.9,0.3,-1\n0.4,0.8,1\n1.2,0.5,-1\n"

    def two_iterations(self, tmp_path, name, **overrides):
        """The report bytes of a 2-iteration run on four rows."""
        payload = {"max_iterations": 2, "convergence_tol": 0, **overrides}
        config = write(tmp_path / f"{name}.json", json.dumps(payload))
        data = write(tmp_path / "data.csv", self.FOUR_ROWS)
        out = tmp_path / f"{name}-report.json"
        assert main(["train", "--config", config, "--data", data, "--out", str(out)]) == 0
        return out.read_bytes()

    @pytest.mark.parametrize("method", ["parameter_shift", "finite_difference"])
    def test_two_iterations_give_a_two_entry_trace(self, tmp_path, method):
        report = json.loads(self.two_iterations(tmp_path, "exact", gradient_method=method))
        assert len(report["loss_trace"]) == 2

    def test_shot_training_is_byte_identical_across_runs(self, tmp_path):
        first, again = (self.two_iterations(tmp_path, name, shots=64, seed=3) for name in "ab")
        assert first == again
        report = json.loads(first)
        assert len(report["loss_trace"]) == 2
        assert sum(report["final_histogram"]["counts"].values()) == 64

    # five features pad to eight amplitudes, so the template has 3 qubits
    AMPLITUDE_ROWS = "0.3,-1.2,0.5,2.0,0.1,1\n1.0,0.0,-0.4,0.7,0.9,-1\n0.5,0.1,0.1,0.3,0.2,-1\n"

    def amplitude_report(self, tmp_path, name, rows):
        """The exit code and report path of a 2-iteration, 64-shot amplitude-encoded run."""
        payload = {"max_iterations": 2, "convergence_tol": 0, "shots": 64, "seed": 3}
        config = write(tmp_path / "config.json", json.dumps(payload))
        data = write(tmp_path / f"{name}.csv", rows)
        out = tmp_path / f"{name}-report.json"
        argv = ["train", "--config", config, "--data", data, "--out", str(out), "--encoding", "amplitude"]
        return main(argv), out

    def test_amplitude_shot_training_is_byte_identical_across_runs(self, tmp_path):
        runs = [self.amplitude_report(tmp_path, name, self.AMPLITUDE_ROWS) for name in "ab"]
        assert [code for code, _ in runs] == [0, 0]
        first, again = (out.read_bytes() for _, out in runs)
        assert first == again
        report = json.loads(first)
        assert len(report["loss_trace"]) == 2 and report["circuit_depth"] == 8
        assert sum(report["final_histogram"]["counts"].values()) == 64

    def test_amplitude_row_of_another_width_exits_5(self, tmp_path, capsys):
        rows = "0.3,-1.2,0.5,2.0,0.1,1\n1.0,0.0,-0.4,0.7,0.9,-1\n0.2,0.2,-3.0,1\n"
        code, out = self.amplitude_report(tmp_path, "ragged", rows)
        assert code == 5 and not out.exists()
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", "dataset error: sample 2: encoding produced 2 qubits, template has 3\n"
        )

    def test_zero_iterations(self, tmp_path, capsys):
        config = self.config(tmp_path, max_iterations=0)
        data = write(tmp_path / "data.csv", "0.0,1\n")
        out = str(tmp_path / "report.json")
        assert main(["train", "--config", config, "--data", data, "--out", out]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["loss_trace"] == []
        assert report["converged"] is False

    def test_bad_label_exits_5(self, tmp_path, capsys):
        config = self.config(tmp_path)
        data = write(tmp_path / "data.csv", "0.0,0\n")
        out = str(tmp_path / "report.json")
        assert main(["train", "--config", config, "--data", data, "--out", out]) == 5
        assert "label must be -1 or +1" in capsys.readouterr().err

    def test_bad_config_exits_4(self, tmp_path, capsys):
        config = write(tmp_path / "config.json", '{"momentum": 1}')
        data = write(tmp_path / "data.csv", "0.0,1\n")
        out = str(tmp_path / "report.json")
        assert main(["train", "--config", config, "--data", data, "--out", out]) == 4

    @pytest.mark.parametrize(
        "field, value", [("seed", -1), ("seed", 2**64), ("max_iterations", 1.5), ("shots", True)]
    )
    def test_bad_integer_config_exits_4(self, tmp_path, capsys, field, value):
        config = self.config(tmp_path, **{field: value})
        data = write(tmp_path / "data.csv", "0.0,1\n")
        out = str(tmp_path / "report.json")
        assert main(["train", "--config", config, "--data", data, "--out", out]) == 4
        assert capsys.readouterr().err.startswith("config error: ")

    @pytest.mark.parametrize(
        "field, value",
        [("learning_rate", math.nan), ("learning_rate", math.inf), ("convergence_tol", math.nan)],
    )
    def test_non_finite_config_exits_4(self, tmp_path, capsys, field, value):
        # a config error, not a failure inside the ansatz reported as a dataset error (exit 5)
        config = self.config(tmp_path, **{field: value})
        data = write(tmp_path / "data.csv", "0.0,1\n1.0,-1\n")
        out = str(tmp_path / "report.json")
        assert main(["train", "--config", config, "--data", data, "--out", out]) == 4
        assert capsys.readouterr().err.startswith(f"config error: {field} must be")

    def test_byte_order_mark_is_dropped(self, tmp_path):
        rows, payload = "0.1,1\n0.2,-1\n", json.dumps({"max_iterations": 1, "seed": 1})
        traces = []
        for write_file in (write, write_with_bom):
            config = write_file(tmp_path / "config.json", payload)
            data = write_file(tmp_path / "data.csv", rows)
            out = tmp_path / "report.json"
            assert main(["train", "--config", config, "--data", data, "--out", str(out)]) == 0
            traces.append(json.loads(out.read_text())["loss_trace"])
        assert traces[0] == traces[1] and len(traces[0]) == 1

    def test_data_from_stdin(self, tmp_path, capsys, monkeypatch):
        config = self.config(tmp_path, max_iterations=2)
        data = write(tmp_path / "data.csv", self.FOUR_ROWS)
        reports = []
        for name, source, text in (("file", data, ""), ("stdin", "-", self.FOUR_ROWS),
                                   ("bom", "-", "\ufeff" + self.FOUR_ROWS)):
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
            out = tmp_path / f"{name}.json"
            assert main(["train", "--config", config, "--data", source, "--out", str(out)]) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1] == reports[2]

    def test_data_from_stdin_names_stdin(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("0.1,0.2,1\n0.3,-1\n"))
        argv = ["train", "--config", self.config(tmp_path), "--data", "-", "--out", str(tmp_path / "r.json")]
        assert main(argv) == 5
        assert capsys.readouterr().err == "dataset error: sample 1: encoding produced 1 qubits, template has 2\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(",".join(["0.5"] * 25) + ",1\n"))
        assert main(argv) == 5
        assert capsys.readouterr().err == "dataset error: <stdin>: 25 qubits exceeds the ceiling of 24\n"

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("0.1,0.2,1\n0.3,nan,-1\n", "sample 1: feature value must be finite, got nan"),
            ("0.1,0.2,1\n0.3,-inf,-1\n", "sample 1: feature value must be finite, got -inf"),
            ("0.1,0.2,1\n0.3,-1\n0.1,0.2,1\n", "sample 1: encoding produced 1 qubits, template has 2"),
            ("0.1,0.2,1\n0.3,0.4,0.5,-1\n", "sample 1: encoding produced 3 qubits, template has 2"),
            # every row's own checks run before the widths are compared
            ("0.1,0.2,1\n0.3,-1\n0.1,0.2,0\n", "sample 2: label must be -1 or +1, got 0.0"),
            ("0.1,0.2,1\n0.3,-1\n0.1,nan,1\n", "sample 2: feature value must be finite, got nan"),
        ],
    )
    def test_bad_angle_row_exits_5(self, tmp_path, capsys, rows, message):
        data = write(tmp_path / "data.csv", rows)
        argv = ["train", "--config", self.config(tmp_path), "--data", data, "--out", str(tmp_path / "r.json")]
        assert main(argv) == 5
        assert capsys.readouterr().err == f"dataset error: {message}\n"
        assert not (tmp_path / "r.json").exists()

    def test_axis_in_either_case(self, tmp_path):
        config = self.config(tmp_path, max_iterations=2)
        data = write(tmp_path / "data.csv", self.FOUR_ROWS)
        reports = []
        for axis in ("X", "x"):
            out = tmp_path / f"report-{axis}.json"
            argv = ["train", "--config", config, "--data", data, "--out", str(out), "--axis", axis]
            assert main(argv) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]

    def test_missing_config_exits_4(self, tmp_path):
        data = write(tmp_path / "data.csv", "0.0,1\n")
        out = str(tmp_path / "report.json")
        assert main(
            ["train", "--config", str(tmp_path / "nope.json"), "--data", data, "--out", out]
        ) == 4
