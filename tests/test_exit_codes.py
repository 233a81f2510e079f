"""The error taxonomy and the CLI exit-code contract.

Every qaml error belongs to exactly one group, and `cli.main` maps the
group to the exit code: 1 parse, 2 simulation, 3 encoder, 4 config (usage
errors included), 5 dataset, 70 internal. A file that cannot be read takes
the code of its role. Each failure is one stderr line, never a traceback.
"""

import contextlib
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qaml import (
    AnsatzOp,
    AnsatzTemplate,
    Circuit,
    CircuitOp,
    EncodingSpec,
    Histogram,
    LossSpec,
    StateVector,
    TrainConfig,
    apply_gate,
    bind,
    dense_unitary,
    encode_amplitude,
    encode_angle,
    encode_basis,
    encode_superposition,
    gate_h,
    gradient,
    loss_value,
    make_basis_state,
    norm_squared,
    probabilities,
    sample,
    sample_state,
    train,
)
from qaml import circuit as circuit_mod
from qaml import cli, errors
from qaml.cli import main
from qaml.dsl import parse
from qaml.encoding import read_feature_rows
from qaml.gates import GateMatrix, gate_from_name

GROUPS = (
    errors.ParseError,
    errors.SimulationError,
    errors.EncodingError,
    errors.ConfigError,
    errors.DatasetError,
)
BELL = "qubits 2\nh 0\ncx 0 1\nmeasure all\n"
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def call(argv):
    """Exit code, stdout and stderr of one `main` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_fails(argv, code, prefix):
    got, out, err = call(argv)
    assert (got, out) == (code, "")
    assert err.startswith(prefix) and err.count("\n") == 1 and "Traceback" not in err, err


def write(path, content):
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    return str(path)


class TestTaxonomy:
    def test_every_error_has_exactly_one_group(self):
        classes = [
            obj for obj in vars(errors).values()
            if isinstance(obj, type) and issubclass(obj, errors.QamlError)
            and obj is not errors.QamlError
        ]
        assert len(classes) > len(GROUPS)
        for cls in classes:
            assert sum(issubclass(cls, group) for group in GROUPS) == 1, cls

    @pytest.mark.parametrize(
        "build, group",
        [
            (lambda: StateVector(1, [1.0, 1.0]), errors.SimulationError),
            (lambda: Circuit(0, ()), errors.SimulationError),
            (lambda: Histogram(5, {"0": 4}), errors.SimulationError),
            (lambda: Histogram(0, {}), errors.ConfigError),
            (lambda: EncodingSpec("fourier"), errors.ConfigError),
            (lambda: AnsatzTemplate(1, (AnsatzOp("RY", (0,), param=0),), 2), errors.SimulationError),
            # register sizes and parameter counts that are not integers
            (lambda: StateVector(2.0, [1, 0, 0, 0]), errors.SimulationError),
            (lambda: Circuit(2.0, (CircuitOp("H", (0,)),)), errors.SimulationError),
            (lambda: Circuit(True, (CircuitOp("H", (0,)),)), errors.SimulationError),
            (lambda: AnsatzTemplate(1, (AnsatzOp("RY", (0,), param=0),), 1.5), errors.SimulationError),
            (lambda: make_basis_state(2.0, "00"), errors.SimulationError),
        ],
    )
    def test_former_value_errors_are_grouped(self, build, group):
        with pytest.raises(group) as info:
            build()
        assert isinstance(info.value, ValueError)

    def test_unknown_gate_is_one_class_for_circuit_and_template(self):
        # the op rule runs where the op is built, before any Circuit or template
        for build in (
            lambda: CircuitOp("FOO", (0,)),
            lambda: CircuitOp("FOO", (0,), 1.0),
            lambda: AnsatzOp("FOO", (0,), param=0),
        ):
            with pytest.raises(errors.UnknownGate):
                build()


RY = AnsatzTemplate(1, (AnsatzOp("RY", (0,), param=0),), 1)
ZERO = make_basis_state(1, "0")


def ry_gradient(method, **kwargs):
    return gradient(RY, [0.1], LossSpec((ZERO,)), method, **kwargs)


class TestBadValues:
    """Library calls with bad values raise their own `QamlError` class, never
    a raw `ValueError`, `TypeError`, `OverflowError` or `AttributeError`."""

    @pytest.mark.parametrize(
        "build, error",
        [
            # real numbers: features, parameters, labels and training settings
            (lambda: encode_angle([True, "0.5"]), errors.NonFiniteFeature),
            (lambda: encode_angle([True, 0.5]), errors.NonFiniteFeature),
            (lambda: encode_angle([np.True_, 2]), errors.NonFiniteFeature),
            (lambda: encode_angle(np.array([False, True])), errors.NonFiniteFeature),
            (lambda: encode_angle(["abc"]), errors.NonFiniteFeature),
            (lambda: encode_angle([10**400]), errors.NonFiniteFeature),
            (lambda: encode_angle([1j]), errors.NonFiniteFeature),
            (lambda: encode_angle([None, 0.5]), errors.NonFiniteFeature),
            (lambda: encode_angle([[0.5], [0.5, 0.5]]), errors.NonFiniteFeature),
            (lambda: encode_angle([0.5, float("inf")]), errors.NonFiniteFeature),
            (lambda: encode_amplitude(["x", 0.2]), errors.NonFiniteFeature),
            (lambda: loss_value(RY, ["0.1"], LossSpec((ZERO,))), errors.NonFiniteParam),
            (lambda: loss_value(RY, ["x"], LossSpec((ZERO,))), errors.NonFiniteParam),
            (lambda: loss_value(RY, [True], LossSpec((ZERO,))), errors.NonFiniteParam),
            (lambda: bind(RY, [10**400]), errors.NonFiniteParam),
            (lambda: bind(RY, [[0.1]]), errors.NonFiniteParam),
            (lambda: LossSpec((ZERO,), [True]), errors.InvalidLabel),
            (lambda: LossSpec((ZERO,), ["x"]), errors.InvalidLabel),
            (lambda: LossSpec((ZERO,), [float("nan")]), errors.InvalidLabel),
            (lambda: train(RY, [(["x", 0.2], 1)], EncodingSpec("angle"), TrainConfig()),
             errors.DatasetError),
            (lambda: TrainConfig(learning_rate=10**400), errors.ConfigError),
            (lambda: TrainConfig(convergence_tol="0"), errors.ConfigError),
            (lambda: CircuitOp("RX", (0,), "0.5"), errors.NonFiniteAngle),
            # a gate's arity and a circuit's measure flag
            (lambda: GateMatrix("H", 1.0, np.eye(2)), errors.InvariantError),
            (lambda: GateMatrix("H", True, np.eye(2)), errors.InvariantError),
            (lambda: Circuit(1, (), measure_all="no"), errors.InvariantError),
            # histogram counts are non-negative Python ints
            (lambda: Histogram(2, {"0": 3, "1": -1}), errors.InvariantError),
            (lambda: Histogram(2, {"0": 1.5, "1": 0.5}), errors.InvariantError),
            (lambda: Histogram(2, {"0": True, "1": True}), errors.InvariantError),
            (lambda: Histogram(2, {"0": np.int64(2)}), errors.InvariantError),
            # a circuit or template holds only CircuitOps
            (lambda: Circuit(1, ("H",)), errors.InvariantError),
            (lambda: Circuit(1, [None]), errors.InvariantError),
            (lambda: Circuit(1, 5), errors.InvariantError),
            (lambda: AnsatzTemplate(1, [("RY", (0,))], 0), errors.InvariantError),
            # a bitstring must be a string
            (lambda: make_basis_state(2, 5), errors.InvalidBitstring),
            (lambda: encode_basis(b"01"), errors.InvalidBitstring),
            (lambda: encode_superposition([5]), errors.InvalidBitstring),
            (lambda: encode_superposition(["01", 5]), errors.InvalidBitstring),
            # names, axes and target sequences
            (lambda: CircuitOp(5, (0,)), errors.UnknownGate),
            (lambda: CircuitOp(None, (0,)), errors.UnknownGate),
            (lambda: gate_from_name(None), errors.UnknownGate),
            (lambda: gate_from_name(["RX"], 0.5), errors.UnknownGate),
            (lambda: CircuitOp("H", 0), errors.TargetOutOfRange),
            (lambda: AnsatzOp("RY", None, param=0), errors.TargetOutOfRange),
            (lambda: EncodingSpec("angle", 5), errors.ConfigError),
            (lambda: EncodingSpec("angle", None), errors.ConfigError),
            # gradient settings are checked as TrainConfig fields
            (lambda: ry_gradient("finite_difference", fd_step=0), errors.ConfigError),
            (lambda: ry_gradient("finite_difference", fd_step=-1e-5), errors.ConfigError),
            (lambda: ry_gradient("finite_difference", fd_step=float("inf")), errors.ConfigError),
            (lambda: ry_gradient("finite_difference", fd_step=float("nan")), errors.ConfigError),
            (lambda: ry_gradient("finite_difference", fd_step="x"), errors.ConfigError),
            (lambda: ry_gradient("finite_difference", fd_step=True), errors.ConfigError),
            (lambda: ry_gradient("parameter_shift", fd_step=1e-4), errors.ConfigError),
            (lambda: ry_gradient("adjoint"), errors.ConfigError),
            (lambda: ry_gradient(None), errors.ConfigError),
            # the hadamard_layer conflict is checked before the (empty) data
            (lambda: train(RY, [], EncodingSpec("amplitude"), TrainConfig(hadamard_layer=True)),
             errors.ConfigError),
            # a histogram's counts are a dict keyed by strings
            (lambda: Histogram(2, {0: 1, "1": 1}), errors.InvariantError),
            (lambda: Histogram(1, {1: 1}), errors.InvariantError),
            (lambda: Histogram(2, [("0", 2)]), errors.InvariantError),
            (lambda: Histogram(1, None), errors.InvariantError),
            # a state's amplitudes do not fit an absurd register
            (lambda: StateVector(20000, [1]), errors.InvariantError),
            # loss inputs are states, and a training row is a (features, -1 or +1) pair
            (lambda: loss_value(RY, [0.1], LossSpec("ab")), errors.InvariantError),
            (lambda: LossSpec((np.array([1, 0]),)), errors.InvariantError),
            (lambda: LossSpec(None), errors.InvariantError),
            # its own id keeps the other DatasetError row's id `<lambda>-DatasetError`
            pytest.param(lambda: train(RY, [([0.1],)], EncodingSpec("angle"), TrainConfig()),
                         errors.DatasetError, id="row-not-a-pair"),
            (lambda: train(RY, [([0.1], np.array([1, 1]))], EncodingSpec("angle"), TrainConfig()),
             errors.InvalidLabel),
            # an encoding method and a gradient method are strings
            (lambda: EncodingSpec(np.array(["a", "b"])), errors.ConfigError),
            (lambda: TrainConfig(gradient_method=np.array(["a", "b"])), errors.ConfigError),
            # a gate's matrix does not fit an absurd arity
            (lambda: GateMatrix("H", 20000, np.eye(2)), errors.InvariantError),
            # one value per parameter slot, wherever parameters enter
            (lambda: gradient(RY, [0.1, 0.2], LossSpec((ZERO,))), errors.ParamCountMismatch),
            (lambda: train(RY, [([0.1], 1)], EncodingSpec("angle"), TrainConfig(), initial_params=[0.1, 0.2]),
             errors.ParamCountMismatch),
            # a template's register is checked as a circuit's is
            (lambda: AnsatzTemplate(0, (), 0), errors.InvariantError),
            (lambda: AnsatzTemplate(25, (), 0), errors.QubitCountExceeded),
            # the angle encoder checks its axis as EncodingSpec does
            (lambda: encode_angle([0.1], "w"), errors.ConfigError),
            # amplitudes and gate matrices are numbers: not text, bools, dicts or None
            (lambda: StateVector(1, ["1", "0"]), errors.InvariantError),
            (lambda: StateVector(1, [True, False]), errors.InvariantError),
            (lambda: GateMatrix("U", 1, [["1", "0"], ["0", "1"]]), errors.InvariantError),
            (lambda: StateVector(1, "ab"), errors.InvariantError),
            (lambda: GateMatrix("U", 1, [[1, 0], [0, "x"]]), errors.InvariantError),
            (lambda: norm_squared("ab"), errors.InvariantError),
            (lambda: StateVector(1, {"a": 1}), errors.InvariantError),
            (lambda: norm_squared(None), errors.InvariantError),
            (lambda: probabilities(None), errors.InvariantError),
            # the oracle checks its register size as every other register is checked
            (lambda: dense_unitary(gate_h(), (0,), 2.5), errors.InvariantError),
            (lambda: dense_unitary(gate_h(), (0,), True), errors.InvariantError),
            (lambda: dense_unitary(gate_h(), (0,), 0), errors.InvariantError),
        ],
    )
    def test_raises_its_own_class(self, build, error):
        with pytest.raises(error):
            build()

    @pytest.mark.parametrize(
        "build",
        [
            lambda: CircuitOp("H", 0),
            lambda: apply_gate(make_basis_state(2, "00"), gate_h(), 0),
            lambda: dense_unitary(gate_h(), 0, 2),
        ],
    )
    def test_a_bare_target_is_not_a_sequence(self, build):
        with pytest.raises(errors.TargetOutOfRange, match="^op targets must be a sequence, got 0$"):
            build()

    @pytest.mark.parametrize(
        "values", [[0.5, 2], (np.float64(0.5), np.int64(2)), np.array([0.5, 2.0]),
                   np.array([1, 2], dtype=np.uint8), np.array([0.5, 2**70], dtype=object)],
    )
    def test_real_sequences_are_accepted(self, values):
        assert [op.angle for op in encode_angle(values).ops] == [float(v) for v in values]


class TestShots:
    @pytest.mark.parametrize("shots", [0, -2, 1.5, 2.0, True, "3", None])
    def test_bad_shots_are_config_errors(self, shots):
        with pytest.raises(errors.ConfigError, match="shots must be"):
            sample(Circuit(1, ()), shots, 1)
        with pytest.raises(errors.ConfigError, match="shots must be"):
            sample_state(make_basis_state(1, "0"), shots, 1)

    def test_checked_before_the_circuit_runs(self, monkeypatch):
        def no_execute(circuit):
            raise AssertionError("the circuit ran before shots were checked")

        monkeypatch.setattr(circuit_mod, "execute", no_execute)
        with pytest.raises(errors.ConfigError):
            sample(Circuit(1, ()), 0, 1)

    def test_seed_checked_before_the_circuit_runs(self, monkeypatch):
        def no_execute(circuit):
            raise AssertionError("the circuit ran before the seed was checked")

        monkeypatch.setattr(circuit_mod, "execute", no_execute)
        with pytest.raises(errors.ConfigError, match="seed must be in"):
            sample(Circuit(1, ()), 10, -1)

    def test_numpy_integer_shots_accepted(self):
        assert sample(Circuit(1, ()), np.int64(3), 1) == sample(Circuit(1, ()), 3, 1)

    def test_ceiling(self, monkeypatch):
        assert circuit_mod._check_shots(circuit_mod.MAX_SHOTS) == 2**25
        monkeypatch.setattr(circuit_mod, "execute", None)  # checked before anything runs
        for shots in (circuit_mod.MAX_SHOTS + 1, 10**20):
            with pytest.raises(errors.ConfigError, match="shots must be <= 33554432"):
                sample(Circuit(1, ()), shots, 1)


class TestRegisterCeiling:
    # the check runs before any amplitude is allocated, so these allocate nothing
    @pytest.mark.parametrize("n", [25, 64])
    def test_circuit_and_dsl(self, n):
        with pytest.raises(errors.QubitCountExceeded):
            Circuit(n, ())
        with pytest.raises(errors.QubitCountExceeded):
            parse(f"qubits {n}\nh 0\n")

    def test_superposition_encoder(self):
        with pytest.raises(errors.QubitCountExceeded):
            encode_superposition(["0" * 30])

    @pytest.mark.parametrize("command", ["run", "state"])
    @pytest.mark.parametrize("n", [25, 64])
    def test_cli_exits_2(self, tmp_path, command, n):
        path = write(tmp_path / "wide.q", f"qubits {n}\nh 0\n")
        assert_fails([command, path], 2, f"simulation error: {n} qubits exceeds the ceiling of 24")

    def test_too_many_features_is_a_dataset_error(self, tmp_path):
        config = write(tmp_path / "config.json", "{}")
        data = write(tmp_path / "wide.csv", ",".join(["0.5"] * 25 + ["1"]) + "\n")
        argv = ["train", "--config", config, "--data", data, "--out", str(tmp_path / "report.json")]
        assert call(argv) == (5, "", f"dataset error: {data}: 25 qubits exceeds the ceiling of 24\n")


class TestDataset:
    def test_unencodable_sample_is_a_dataset_error(self):
        template = AnsatzTemplate(1, (AnsatzOp("RY", (0,), param=0),), 1)
        with pytest.raises(errors.DatasetError, match="sample 1: basis encoding requires 0/1"):
            train(template, [([1.0], 1), ([0.5], -1)], EncodingSpec("basis"), TrainConfig())

    def test_oversized_csv_field_is_an_encoding_error(self):
        with pytest.raises(errors.EmptyInput):
            read_feature_rows("1," + "9" * 200_000 + "\n")


class TestCli:
    @pytest.fixture
    def files(self, tmp_path):
        return {
            "program": write(tmp_path / "bell.q", BELL),
            "config": write(tmp_path / "config.json", '{"max_iterations": 2}'),
            "data": write(tmp_path / "data.csv", "0.0,1\n3.0,-1\n"),
            "out": str(tmp_path / "report.json"),
            "binary": write(tmp_path / "latin1.txt", b"\xff\xfe0.5,1\n"),
            "missing": str(tmp_path / "missing.q"),
        }

    def train_argv(self, files, **replace):
        paths = {role: files[role] for role in ("config", "data", "out")}
        paths.update({role: files[name] for role, name in replace.items()})
        return ["train", "--config", paths["config"], "--data", paths["data"], "--out", paths["out"]]

    @pytest.mark.parametrize("command", ["run", "state"])
    def test_missing_program_exits_1(self, files, command):
        assert_fails([command, files["missing"]], 1, f"parse error: {files['missing']}: No such file")

    def test_undecodable_program_exits_1(self, files):
        assert_fails(["run", files["binary"]], 1, f"parse error: {files['binary']}: 'utf-8' codec")

    def test_undecodable_config_exits_4(self, files):
        assert_fails(self.train_argv(files, config="binary"), 4, "config error: ")

    def test_undecodable_data_exits_5(self, files):
        assert_fails(self.train_argv(files, data="binary"), 5, "dataset error: ")

    def test_missing_data_exits_5(self, files):
        assert_fails(self.train_argv(files, data="missing"), 5, "dataset error: ")

    def test_undecodable_encode_input_exits_3(self, files):
        argv = ["encode", "--method", "amplitude", "--input", files["binary"]]
        assert_fails(argv, 3, "encoding error: ")

    def test_unwritable_out_exits_4(self, files, tmp_path):
        files["out"] = str(tmp_path / "no-such-dir" / "report.json")
        assert_fails(self.train_argv(files), 4, f"config error: {files['out']}: No such file")

    @pytest.mark.parametrize(
        "argv",
        [["run", "PROGRAM", "--shots", "abc"], ["run"], ["state", "PROGRAM", "--threshold", "x"],
         ["bogus"], ["run", "PROGRAM", "--nope"], []],
    )
    def test_usage_errors_exit_4(self, files, argv):
        argv = [files["program"] if a == "PROGRAM" else a for a in argv]
        assert_fails(argv, 4, "config error: qaml")

    def test_shots_above_the_ceiling_exit_4(self, files):
        assert_fails(["run", files["program"], "--shots", str(10**20)], 4, "config error: --shots must be <=")

    @pytest.mark.parametrize(
        "config",
        [
            '{"shots": 4000000000}',
            '{"shots": 3, "gradient_method": "finite_difference"}',
            '{"hadamard_layer": "false"}',
            '{"fd_step": 1e-4}',
        ],
    )
    def test_rejected_training_configs_exit_4(self, files, tmp_path, config):
        files["config"] = write(tmp_path / "shots.json", config)
        assert_fails(self.train_argv(files), 4, "config error: ")

    @pytest.mark.parametrize("values", ["1e200,1e200", "1e-170,1e-170", "5e-324,5e-324", "1e308,-1e308"])
    def test_extreme_amplitude_inputs_encode(self, values):
        code, out, err = call(["encode", "--method", "amplitude", "--input", values])
        assert (code, err) == (0, "")
        assert [abs(e["re"]) for e in json.loads(out)] == [0.7071067811865475] * 2

    def test_overflowing_training_step_is_one_line(self, files, tmp_path):
        # the step overflows to an infinite angle, which the next pass refuses
        files["config"] = write(
            tmp_path / "huge.json",
            '{"learning_rate": 1.7976931348623157e308, "max_iterations": 3, "convergence_tol": 0}',
        )
        files["data"] = write(tmp_path / "two.csv", "0.1,0.2,1\n0.9,0.3,-1\n")
        assert_fails(self.train_argv(files), 2, "simulation error: op 0 (RY): rotation angle")

    @pytest.mark.parametrize(
        "config", ['{"seed": 1' + "0" * 5000 + "}", "[" * 100_000], ids=["long-integer", "deep"]
    )
    def test_unreadable_config_numbers_and_nesting_exit_4(self, files, tmp_path, config):
        # json raises a plain ValueError past 4300 digits and a RecursionError when deep
        files["config"] = write(tmp_path / "deep.json", config)
        assert_fails(self.train_argv(files), 4, "config error: invalid config JSON: ")

    @pytest.mark.parametrize("method", ["basis", "superposition", "amplitude"])
    def test_emit_circuit_needs_the_angle_method(self, files, monkeypatch, method):
        monkeypatch.setattr(cli, "_read_text", None)  # refused before the input is read
        argv = ["encode", "--method", method, "--input", files["data"], "--emit-circuit"]
        assert_fails(argv, 4, "config error: --emit-circuit needs --method angle")

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["run", "--help"])
        assert info.value.code == 0
        assert "--shots" in capsys.readouterr().out

    def test_non_binary_basis_row_exits_5(self, files, tmp_path):
        files["data"] = write(tmp_path / "half.csv", "0.5,1\n")
        assert_fails(self.train_argv(files) + ["--encoding", "basis"], 5, "dataset error: sample 0: ")

    def test_malformed_data_row_exits_5(self, files, tmp_path):
        files["data"] = write(tmp_path / "bad.csv", "0.5,1\n0.5,oops\n")
        assert_fails(self.train_argv(files), 5, "dataset error: ")

    def test_ragged_data_rows_exit_5(self, files, tmp_path):
        files["data"] = write(tmp_path / "ragged.csv", "0.5,1\n0.5,0.25,-1\n")
        assert_fails(self.train_argv(files), 5, "dataset error: sample 1: ")

    def test_encode_keeps_inline_rows_and_skips_headers(self, tmp_path):
        inline = call(["encode", "--method", "superposition", "--input", "100,010"])
        path = write(tmp_path / "bits.csv", "bits,more\n 100 , 010\n")
        from_file = call(["encode", "--method", "superposition", "--input", path])
        assert inline[0] == from_file[0] == 0 and inline[1] == from_file[1]
        assert [e["basis"] for e in json.loads(inline[1])] == ["010", "100"]

    def test_internal_error_exits_70(self, files, monkeypatch):
        def broken(args):
            raise RuntimeError("boom\nsecond line")

        monkeypatch.setattr(cli, "cmd_run", broken)
        assert_fails(["run", files["program"]], 70, "internal error: RuntimeError('boom")

    def test_bad_seed_env_names_the_value(self, files, monkeypatch):
        monkeypatch.setenv("QAML_SEED", "abc")
        assert call(["run", files["program"]]) == (
            4, "", "config error: QAML_SEED must be an integer, got 'abc'\n"
        )

    def test_label_only_rows_exit_5(self, files, tmp_path):
        files["data"] = write(tmp_path / "labels.csv", "1\n-1\n")
        assert call(self.train_argv(files)) == (5, "", "dataset error: each row needs features plus a label\n")

    def test_report_ends_in_a_newline(self, files):
        assert call(self.train_argv(files))[0] == 0
        with open(files["out"], "rb") as handle:
            assert handle.read().endswith(b"}\n")

    def test_module_entry_point(self, files):
        env = dict(os.environ, PYTHONPATH=SRC)
        command = [sys.executable, "-m", "qaml.cli", "run"]
        result = subprocess.run(
            command + [files["program"], "--shots", "100", "--seed", "7"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert result.returncode == 0 and result.stderr == ""
        histogram = json.loads(result.stdout)
        assert histogram["shots"] == 100 and set(histogram["counts"]) <= {"00", "11"}
        result = subprocess.run(command + [files["missing"]], capture_output=True, text=True, env=env, timeout=60)
        assert result.returncode == 1 and result.stdout == ""
        assert result.stderr.count("\n") == 1 and "Traceback" not in result.stderr

    def test_console_entry_point_prints_no_traceback(self, files):
        env = dict(os.environ, PYTHONPATH=SRC)
        result = subprocess.run(
            [sys.executable, "-c", "from qaml.cli import entry_point; entry_point()",
             "run", files["missing"]],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert result.returncode == 1
        assert result.stderr.count("\n") == 1 and "Traceback" not in result.stderr


# ---------------------------------------------------------------------------
# Fuzzing: any input ends in one of the contract's codes, never an exception.

_QUBIT = st.sampled_from(["0", "1", "2"])
_GATE_LINE = st.one_of(
    st.builds("{} {}".format, st.sampled_from(["h", "x", "y", "z"]), _QUBIT),
    st.builds(
        "{} {} {}".format,
        st.sampled_from(["rx", "ry", "rz"]),
        _QUBIT,
        st.sampled_from(["0.5", "pi/2", "-3pi/4", "nan", "1e400", "x"]),
    ),
    st.builds("cx {} {}".format, _QUBIT, _QUBIT),
)
_DSL_LINE = st.one_of(
    _GATE_LINE,
    st.builds(
        "{} {} {}".format,
        st.sampled_from(["h", "x", "y", "z", "rx", "ry", "rz", "cx", "measure", "qubits", "cz", "#"]),
        st.sampled_from(["0", "1", "2", "5", "-1", "all", "pi", "1e400", ""]),
        st.sampled_from(["", "0", "1", "pi/2", "-pi/0", "nan", "2 3", "all"]),
    ),
    st.text(max_size=12),
)
_PROGRAM = st.builds(
    lambda count, body: "\n".join([f"qubits {count}", *body]),
    st.sampled_from(["1", "2", "3"] * 3 + ["-1", "0", "25", "64", "10" * 20, "x", "1.5", ""]),
    st.lists(st.one_of(_GATE_LINE, _DSL_LINE), max_size=6),
)
_EXTREMES = [1e308, -1e308, sys.float_info.max, -sys.float_info.max, 5e-324, -0.0]
_CSV_CELL = st.one_of(
    st.sampled_from(["1", "-1", "0", "0.5", "1.0", "nan", "inf", "1e400", "", "x", '"', " 2"]),
    st.floats(-4, 4).map(repr),
    st.sampled_from(_EXTREMES).map(repr),
)
_CSV_TEXT = st.lists(st.lists(_CSV_CELL, max_size=4).map(",".join), max_size=5).map("\n".join)
_DATASET = st.integers(1, 3).flatmap(
    lambda width: st.lists(
        st.tuples(st.lists(st.one_of(st.floats(-4, 4), st.sampled_from(_EXTREMES)),
                           min_size=width, max_size=width),
                  st.sampled_from([-1, 1])),
        min_size=1, max_size=4,
    )
).map(lambda rows: "\n".join(",".join(map(repr, [*x, y])) for x, y in rows))
_CSV_BYTES = st.one_of(st.binary(max_size=40), st.one_of(_CSV_TEXT, _DATASET).map(str.encode))
_CONFIG_VALUE = st.one_of(
    st.integers(-2, 3), st.floats(), st.booleans(), st.none(), st.text(max_size=4),
    st.sampled_from(["parameter_shift", "finite_difference"]), st.lists(st.integers(), max_size=2),
)
# max_iterations is always set and small, so that a valid run stays short
_GOOD_CONFIG = st.fixed_dictionaries(
    {"max_iterations": st.integers(0, 3)},
    optional={
        "shots": st.integers(0, 3),
        "seed": st.integers(0, 2**64 - 1),
        "learning_rate": st.one_of(st.floats(0, 10), st.floats(0, sys.float_info.max)),
        "gradient_method": st.sampled_from(["parameter_shift", "finite_difference"]),
        "hadamard_layer": st.booleans(),
    },
)
_CONFIG_BYTES = st.one_of(
    _GOOD_CONFIG.map(json.dumps).map(str.encode),
    st.builds(
        lambda fields, iterations: {**fields, "max_iterations": iterations},
        st.dictionaries(
            st.sampled_from(sorted(TrainConfig.__dataclass_fields__) + ["momentum"]), _CONFIG_VALUE
        ),
        st.one_of(st.integers(-1, 3), _CONFIG_VALUE),
    ).map(json.dumps).map(str.encode),
    st.binary(max_size=20),
)
_FUZZ = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


def assert_in_contract(argv):
    code, _, err = call(argv)
    assert code in (0, 1, 2, 3, 4, 5), err
    assert code == 0 or err.count("\n") == 1, err


@_FUZZ
@given(program=st.one_of(_PROGRAM, st.lists(_DSL_LINE, max_size=6).map("\n".join)))
def test_fuzz_programs(tmp_path, program):
    path = write(tmp_path / "fuzz.q", program)
    assert_in_contract(["run", path, "--shots", "3", "--seed", "1"])
    assert_in_contract(["state", path])


@_FUZZ
@given(
    data=_CSV_BYTES,
    config=_CONFIG_BYTES,
    encoding=st.sampled_from(["angle", "amplitude", "basis", "superposition"]),
)
def test_fuzz_training_inputs(tmp_path, data, config, encoding):
    argv = ["train", "--config", write(tmp_path / "c.json", config),
            "--data", write(tmp_path / "d.csv", data), "--out", str(tmp_path / "r.json"),
            "--encoding", encoding]
    assert_in_contract(argv)


@_FUZZ
@given(data=_CSV_BYTES, method=st.sampled_from(["angle", "amplitude", "basis", "superposition"]))
def test_fuzz_encode_inputs(tmp_path, data, method):
    assert_in_contract(["encode", "--method", method, "--input", write(tmp_path / "e.csv", data)])
