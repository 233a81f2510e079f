"""One workload's process: drives `qaml.cli.main` in a closed loop, or once
untraced and then traced.

Usage: python3 perfbench/worker.py SPEC.json

`run.py` writes SPEC.json and reads the result file this process writes. The
worker runs alone in its process so that its peak RSS belongs to the workload;
it computes no reference results itself.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracing import LAYERS, Tracer, self_times  # noqa: E402
from workloads import GATES, POSITIONS, position_qubits  # noqa: E402

# Counts that depend on the seed's values rather than the workload's size.
SEED_DEPENDENT = ("cli.stdout_bytes",)
# Share of each cycle's time spent afterwards on set-up probes. Probing
# between cycles spreads the probes over the whole run, so their median sees
# the same mix of fast and slow moments of a shared machine as the cycles do.
PROBE_SHARE = 0.15
PROBE_CODE = "import time, qaml.cli; print(repr(time.monotonic())); print(qaml.cli.__file__)"


def setup_probe(src: str) -> float:
    """Seconds from launching a fresh interpreter until `qaml.cli` is imported.

    CLOCK_MONOTONIC is system-wide, so the child's reading after the import
    and this process's reading before the launch share one clock."""
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-c", PROBE_CODE], capture_output=True, text=True, timeout=20, check=True
    )
    stamp, origin = done.stdout.split()
    if not origin.startswith(src + os.sep):
        raise RuntimeError(f"qaml.cli imported from {origin}, not from {src}")
    return float(stamp) - start


def _digest(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


class Runner:
    """Invokes a workload's CLI commands and keeps the first output of each,
    so that every later output can be compared with it by digest."""

    def __init__(self, cli, spec: dict):
        self.cli = cli
        self.commands = spec["commands"]
        self.workdir = spec["workdir"]
        # train writes its report to --out; the other commands write to stdout
        self.out_path = spec.get("out")
        self.first: dict[int, str] = {}
        self.records: list[dict] = []

    def invoke(self, index: int) -> dict:
        argv = self.commands[index]
        stdout_path = os.path.join(self.workdir, f"cmd{index}.stdout")
        err = io.StringIO()
        start = time.perf_counter()
        with open(stdout_path, "w", encoding="utf-8") as out:
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    code = self.cli.main(argv)
                except Exception:  # a crash is a failed invocation, not the end of the run
                    traceback.print_exc()
                    code = -1
        seconds = time.perf_counter() - start
        output = self.out_path or stdout_path
        record = {
            "command": argv[0],
            "index": index,
            "code": code,
            "seconds": seconds,
            "stdout_bytes": os.path.getsize(stdout_path),
        }
        if code != 0:
            record["error"] = err.getvalue()[-500:]
        elif index not in self.first:
            kept = os.path.join(self.workdir, f"cmd{index}.first")
            os.replace(output, kept)
            self.first[index] = kept
            record["digest"] = _digest(kept)
        else:
            record["digest"] = _digest(output)
        self.records.append(record)
        return record

    def cycle(self) -> float:
        """Run every command once, in order; return their summed wall time."""
        return sum(self.invoke(i)["seconds"] for i in range(len(self.commands)))


def closed_loop(cli, spec: dict) -> dict:
    """One caller: each invocation starts after the previous one ends. Each
    cycle is followed by set-up probes. A new cycle starts only if it and its
    probes are expected to end within the window."""
    runner = Runner(cli, spec)
    cycles, setup = [], []
    start = time.perf_counter()
    while True:
        cycles.append(runner.cycle())
        probes_end = time.perf_counter() + PROBE_SHARE * cycles[-1]
        setup.append(setup_probe(spec["src"]))
        while time.perf_counter() < probes_end:
            setup.append(setup_probe(spec["src"]))
        elapsed = time.perf_counter() - start
        if elapsed + (1 + PROBE_SHARE) * statistics.median(cycles) > spec["seconds"]:
            break
    return {"records": runner.records, "cycles": cycles, "setup": setup, "first": runner.first}


def external_train(spec: dict) -> list[float]:
    """qaml.hybrid.train's exact loop rebuilt from public calls:
    encode each row, then loss_value + gradient + update per iteration."""
    import numpy as np
    from qaml import cli, encoding, gates, hybrid, state

    with open(spec["config"], encoding="utf-8") as handle:
        config = hybrid.TrainConfig.from_json(handle.read())
    rows = encoding.load_feature_rows(spec["data"])
    template = cli.default_ansatz(spec["n_qubits"])
    states, labels = [], []
    for row in rows:
        circ = encoding.encode_angle(row[:-1], "Y")
        psi = state.make_basis_state(circ.n_qubits, "0" * circ.n_qubits)
        for op in circ.ops:
            psi = gates.apply_gate(psi, op.to_gate(), op.targets)
        states.append(psi)
        labels.append(float(row[-1]))
    loss = hybrid.LossSpec(tuple(states), tuple(labels), qubit=0)
    params = np.zeros(template.n_params)
    trace = []
    for _ in range(config.max_iterations):
        trace.append(hybrid.loss_value(template, params, loss))
        grad = hybrid.gradient(template, params, loss, "parameter_shift")
        params = params - config.learning_rate * grad
    return trace


def _loss_trace(path: str) -> list[float]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["loss_trace"]


def layer_metrics(spans, stdout_bytes: int, iterations: int, ops_per_pass: int) -> dict:
    """Per-layer metrics from one traced pass. Times named after a call are
    inclusive of its callees; `<layer>.self_s` is the layer's self time."""
    own = self_times(spans)
    by_name = defaultdict(list)
    for i, span in enumerate(spans):
        by_name[span[0]].append(i)

    def inclusive(*names):
        return sum(spans[i][3] - spans[i][2] for n in names for i in by_name[n])

    def calls(*names):
        return sum(len(by_name[n]) for n in names)

    def with_attrs(name):
        return [spans[i] for i in by_name[name] if spans[i][5] is not None]

    def attr_sum(name, k=0):
        return sum(span[5][k] for span in with_attrs(name))

    m = {f"{layer}.self_s": 0.0 for layer in LAYERS + ("bench",)}
    for i, span in enumerate(spans):
        m[f"{span[1]}.self_s"] += own[i]
    m["trace.bench_s"] = m.pop("bench.self_s")

    lines = attr_sum("dsl.parse")
    m["dsl.parse_s"] = inclusive("dsl.parse")
    m["dsl.lines"] = lines
    m["dsl.us_per_line"] = m["dsl.parse_s"] / lines * 1e6 if lines else 0.0

    m["gates.build_s"] = inclusive("gates.build")
    m["gates.builds"] = calls("gates.build")
    m["gates.apply_s"] = inclusive("gates.apply_gate")
    m["gates.applies"] = calls("gates.apply_gate")
    amp_updates = sum(1 << span[5][2] for span in with_attrs("gates.apply_gate"))
    m["gates.amp_updates_per_s"] = amp_updates / m["gates.apply_s"] if amp_updates else 0.0
    # computed, not measured: each kernel call reads and writes its complex128 operand once
    m["gates.bytes_moved"] = 2 * 16 * attr_sum("gates.apply_gate_tensor")
    per_class = defaultdict(list)
    for _, _, start, end, _, (gate, targets, n) in with_attrs("gates.apply_gate"):
        for position, q in position_qubits(n).items():
            if targets[0] == q:
                per_class[gate, position].append(end - start)
    for gate in GATES:
        for position in POSITIONS:
            times = per_class[gate, position]
            m[f"gates.apply_us.{gate}.{position}"] = statistics.median(times) * 1e6 if times else 0.0
            m[f"gates.applies.{gate}.{position}"] = len(times)

    m["state.validate_s"] = inclusive("state.validate")
    m["state.validations"] = calls("state.validate")

    m["circuit.execute_s"] = inclusive("circuit.execute")
    m["circuit.ops"] = attr_sum("circuit.execute")
    m["circuit.sample_s"] = inclusive("circuit.sample_state")
    m["circuit.shots"] = attr_sum("circuit.sample_state", 0)
    m["circuit.outcomes"] = attr_sum("circuit.sample_state", 1)

    m["cli.stdout_bytes"] = stdout_bytes

    encoders = ("encoding.encode_angle", "encoding.encode_amplitude",
                "encoding.encode_basis", "encoding.encode_superposition")
    m["encoding.read_s"] = inclusive("encoding.load_feature_rows")
    m["encoding.rows"] = attr_sum("encoding.load_feature_rows")
    m["encoding.encode_s"] = inclusive(*encoders)
    m["encoding.samples"] = calls(*encoders)

    m["hybrid.forward_s"] = inclusive("hybrid.loss_value")
    m["hybrid.gradient_s"] = inclusive("hybrid.gradient")
    m["hybrid.train_s"] = inclusive("hybrid.train")
    m["hybrid.iterations"] = iterations
    m["hybrid.forward_passes"] = batched_kernel_calls(spans) // ops_per_pass if ops_per_pass else 0
    return m


def batched_kernel_calls(spans) -> int:
    """Kernel calls made directly from `hybrid`: its batched forward passes
    apply every ansatz op once."""
    return sum(
        1 for name, _, _, _, parent, _ in spans
        if name == "gates.apply_gate_tensor" and parent >= 0 and spans[parent][1] == "hybrid"
    )


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if ".apply_us." in name or name.endswith("per_line"):
        return "us"
    if name.endswith("bytes_moved") or name.endswith("stdout_bytes"):
        return "B"
    return "count"


def _timed(fn):
    start = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - start


def traced_pass(fn, spans_path: str | None = None, own_code: bool = False):
    """Run `fn` with the tracer installed; return its value, its wall time
    and the spans, which are written to `spans_path` afterwards. With
    `own_code`, `fn` itself runs in a span of the pseudo-layer "bench", so the
    benchmark's own code between qaml calls is accounted for."""
    tracer = Tracer().install()
    if own_code:
        fn = tracer.wrap(fn, "bench.loop", "bench")
    try:
        value, seconds = _timed(fn)
    finally:
        tracer.uninstall()
    if spans_path:
        tracer.write(spans_path)
    return value, seconds, tracer.spans


def trace_run(cli, spec: dict) -> dict:
    """Untraced pass, traced pass, then a traced pass on the inputs of the
    next seed, whose counts must equal those of the first traced pass."""
    second = spec["second"]
    runner, runner2 = Runner(cli, spec), Runner(cli, second)
    result = {"first": runner.first}
    ops_per_pass = len(cli.default_ansatz(spec["n_qubits"]).ops) if spec["kind"] == "train" else 0
    if spec["workload"] == "train8":
        # the CLI's own run gives the loss trace the rebuilt loop must reproduce
        runner.invoke(0)
        plain, untraced = _timed(lambda: external_train(spec))
        traced_loss, traced, spans = traced_pass(
            lambda: external_train(spec), spec["spans"], own_code=True
        )
        loss2, _, spans2 = traced_pass(lambda: external_train(second), own_code=True)
        result["loss_traces"] = {
            "cli": _loss_trace(runner.first[0]), "loop": plain, "traced_loop": traced_loss
        }
        iterations, iterations2 = len(plain), len(loss2)
        stdout_bytes = stdout_bytes2 = 0
    else:
        # traced and untraced times are the CLI invocations' own wall times
        untraced = runner.cycle()
        traced, _, spans = traced_pass(runner.cycle, spec["spans"])
        _, _, spans2 = traced_pass(runner2.cycle)
        stdout_bytes = sum(r["stdout_bytes"] for r in runner.records[len(spec["commands"]):])
        stdout_bytes2 = sum(r["stdout_bytes"] for r in runner2.records)
        iterations = iterations2 = 0
        if spec["kind"] == "train":
            iterations = len(_loss_trace(runner.first[0]))
            iterations2 = len(_loss_trace(runner2.first[0]))
    metrics = layer_metrics(spans, stdout_bytes, iterations, ops_per_pass)
    metrics2 = layer_metrics(spans2, stdout_bytes2, iterations2, ops_per_pass)
    first_pass = runner.records[: len(spec["commands"])]
    for command in ("run", "state", "train"):
        metrics[f"cli.{command}_s"] = sum(r["seconds"] for r in first_pass if r["command"] == command)
    attributed = sum(metrics[f"{layer}.self_s"] for layer in LAYERS) + metrics["trace.bench_s"]
    metrics["trace.traced_s"] = traced
    metrics["trace.untraced_s"] = untraced
    metrics["trace.overhead_s"] = traced - untraced
    metrics["trace.unattributed_s"] = traced - attributed
    result["forward_pass_remainder"] = (
        batched_kernel_calls(spans) % ops_per_pass if ops_per_pass else 0
    )
    result["count_mismatches"] = {
        name: [value, metrics2[name]]
        for name, value in metrics.items()
        if unit_of(name) in ("count", "B") and name not in SEED_DEPENDENT
        and name in metrics2 and value != metrics2[name]
    }
    result["metrics"] = metrics
    result["records"] = runner.records
    result["second_records"] = runner2.records
    result["spans"] = len(spans)
    return result


def machine() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25 has no dict form
        blas = {}
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    sys.path.insert(0, spec["src"])
    import qaml.cli as cli

    if not os.path.abspath(cli.__file__).startswith(spec["src"] + os.sep):
        print(f"qaml imported from {cli.__file__}, not {spec['src']}", file=sys.stderr)
        return 2
    if spec["mode"] == "trace":
        result = trace_run(cli, spec)
    else:
        result = closed_loop(cli, spec)
    result["machine"] = machine()
    result["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(spec["result"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
