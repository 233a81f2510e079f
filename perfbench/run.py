"""qaml benchmark: four CLI workloads, end to end and layer by layer.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload wide20 --seed 1 --seconds 25 --trace 0

Workloads: wide20, deep4, train8, train8_shots (see perfbench/README.md).
Inputs are generated from --seed. With --trace 0 the workload runs as a closed
loop through `qaml.cli.main` in its own process for --seconds and the
end-to-end metrics are reported; with --trace 1 an untraced pass, a traced
pass and a traced pass on the next seed's inputs give the per-layer metrics.
Every output is checked against references
computed without qaml's simulation code. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import reference  # noqa: E402
import workloads  # noqa: E402
from worker import unit_of  # noqa: E402

WORKER_TIMEOUT_S = 140
# A few draws land within rounding error of a CDF edge and may fall in the
# neighbouring bin; the histograms may differ by this many shots in total.
EDGE_SHOTS = 20
AMPLITUDE_TOL = 1e-9
EXACT_LOSS_TOL = 1e-9
SHOT_LOSS_TOL = 1e-4  # a few edge draws move one row's estimate by 2/shots

E2E_UNITS = {"setup_s": "s", "cycle_s": "s", "peak_rss_mb": "MiB"}


def child_env(nproc: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc)
    return env


def tail(samples: list[float]) -> str:
    """Median, the highest percentile with at least ten samples beyond it, and n."""
    n = len(samples)
    text = f"median {statistics.median(samples):.6g} over {n} samples"
    if n < 11:
        return text + "; no percentile has 10 samples beyond it"
    p = math.floor(100 * (n - 10) / n)
    value = sorted(samples)[max(math.ceil(p / 100 * n) - 1, 0)]
    return text + f"; p{p} {value:.6g}"


# --- inputs and references -------------------------------------------------


def prepare(workload: str, seed: int, workdir: str, with_reference: bool) -> dict:
    """Write the seed's inputs; with `with_reference`, also compute what the
    outputs are checked against (and the wide20 state threshold)."""
    spec = workloads.build(workload, seed, workdir)
    if not with_reference:
        return spec
    if spec["kind"] == "train":
        config, args = spec["config"], (spec["rows"], spec["encoding"], spec["n_qubits"])
        if config["shots"]:
            spec["ref_loss"] = reference.sampled_initial_loss(*args, config["shots"], config["seed"])
        else:
            spec["ref_trace"], spec["ref_params"] = reference.exact_training(
                *args, config["max_iterations"], config["learning_rate"]
            )
        return spec
    psi = reference.final_state(spec["n_qubits"], spec["ops"])
    probs = psi.real**2 + psi.imag**2
    spec["ref_state"] = psi
    spec["ref_counts"] = reference.sample_counts(probs, spec["shots"], spec["qaml_seed"])
    spec["threshold"] = (
        reference.state_threshold(probs, workloads.WIDE_STATE_ENTRIES) if workload == "wide20" else 0.0
    )
    spec["commands"][1][-1] = repr(spec["threshold"])
    return spec


def check_run(path: str, spec: dict) -> str | None:
    with open(path, encoding="utf-8") as handle:
        hist = json.load(handle)
    n = spec["n_qubits"]
    got = np.zeros(1 << n, dtype=np.int64)
    for bits, count in hist["counts"].items():
        if len(bits) != n:
            return f"bad outcome label {bits!r}"
        got[int(bits, 2)] = count
    if hist["shots"] != spec["shots"] or int(got.sum()) != spec["shots"]:
        return "histogram does not hold the requested shots"
    off = int(np.abs(got - spec["ref_counts"]).sum())
    if off > EDGE_SHOTS:
        return f"histogram differs from the reference sample by {off} shots"
    return None


def check_state(path: str, spec: dict) -> str | None:
    with open(path, encoding="utf-8") as handle:
        entries = json.load(handle)
    psi = spec["ref_state"]
    probs = psi.real**2 + psi.imag**2
    expected = set(np.flatnonzero(probs >= spec["threshold"]).tolist())
    got = {int(e["basis"], 2): e for e in entries}
    if set(got) != expected or len(entries) != len(got):
        return f"state lists {len(entries)} outcomes, reference keeps {len(expected)}"
    for index, e in got.items():
        ref = psi[index]
        if abs(e["re"] - ref.real) > AMPLITUDE_TOL or abs(e["im"] - ref.imag) > AMPLITUDE_TOL:
            return f"amplitude {e['basis']} differs from the reference"
    return None


def check_train(path: str, spec: dict) -> str | None:
    with open(path, encoding="utf-8") as handle:
        report = json.load(handle)
    config = spec["config"]
    trace = report["loss_trace"]
    if len(trace) != config["max_iterations"] or report["iterations_run"] != len(trace):
        return f"ran {report['iterations_run']} iterations, expected {config['max_iterations']}"
    if config["shots"]:
        if abs(trace[0] - spec["ref_loss"]) > SHOT_LOSS_TOL:
            return f"loss_trace[0] {trace[0]!r} differs from the reference {spec['ref_loss']!r}"
    elif max(abs(a - b) for a, b in zip(trace, spec["ref_trace"])) > EXACT_LOSS_TOL:
        return f"loss trace {trace} differs from the reference {spec['ref_trace']}"
    elif max(abs(a - b) for a, b in zip(report["final_params"], spec["ref_params"])) > EXACT_LOSS_TOL:
        return "final parameters differ from the reference"
    return None


def reference_failures(first: dict, spec: dict) -> dict[int, str]:
    """Check the first output of each command against the references."""
    failures = {}
    for key, path in first.items():
        index = int(key)
        command = spec["commands"][index][0]
        check = {"run": check_run, "state": check_state, "train": check_train}[command]
        problem = check(path, spec)
        if problem:
            failures[index] = f"{command}: {problem}"
    return failures


def count_failures(records: list[dict], ref_fail: dict[int, str]) -> tuple[int, list[str]]:
    """An invocation fails if it exits non-zero, if its output differs from
    the first output of the same command, or if that first output fails a
    reference check."""
    first_digest: dict[int, str | None] = {}
    failed, notes = 0, []
    for r in records:
        first_digest.setdefault(r["index"], r.get("digest"))
        if r["code"] != 0:
            problem = f"{r['command']} exited {r['code']}: {r.get('error', '').strip()}"
        elif r["digest"] != first_digest[r["index"]]:
            problem = f"{r['command']} output differs from its first output"
        else:
            problem = ref_fail.get(r["index"])
        if problem:
            failed += 1
            if problem not in notes:
                notes.append(problem)
    return failed, notes


# --- running a workload ------------------------------------------------------


def loop_outcome(result: dict):
    """End-to-end metrics of a closed-loop run, with each timing's tail."""
    setup = result["setup"]
    samples = {"setup_s": setup, "cycle_s": result["cycles"]}
    for r in result["records"]:
        samples.setdefault(f"{r['command']}_s", []).append(r["seconds"])
    for name, values in samples.items():
        print(f"{name}: {tail(values)} (s)")
    metrics = {
        "setup_s": statistics.median(setup),
        "cycle_s": statistics.median(result["cycles"]),
        "peak_rss_mb": result["peak_rss_kib"] / 1024.0,
    }
    return metrics, E2E_UNITS, samples, 0, 0, []


def traced_outcome(result: dict):
    """Per-layer metrics of a traced run and the checks only it makes."""
    attempted, failed, notes = 0, 0, []
    extra = result["second_records"]
    attempted += len(extra)
    bad = [r for r in extra if r["code"] != 0]
    failed += len(bad)
    notes += [f"{r['command']} on the next seed exited {r['code']}" for r in bad]
    if result["count_mismatches"]:
        notes.append(f"counts differ between seeds: {result['count_mismatches']}")
    if result["forward_pass_remainder"]:
        notes.append("batched kernel calls are not a whole number of forward passes")
    traces = result.get("loss_traces")
    if traces is not None:
        attempted += 2
        if not traces["cli"] == traces["loop"] == traces["traced_loop"]:
            failed += 1
            notes.append("the rebuilt training loop's loss trace differs from qaml train's")
    metrics = result["metrics"]
    # layer self times (plus the benchmark's own code in a rebuilt loop) must
    # account for the traced time, within the tracing overhead
    slack = max(abs(metrics["trace.overhead_s"]), 1e-3 * metrics["trace.traced_s"])
    if abs(metrics["trace.unattributed_s"]) > slack:
        notes.append(
            f"layer self times miss {metrics['trace.unattributed_s']:.6g} s of the traced "
            f"time, more than the tracing overhead {metrics['trace.overhead_s']:.6g} s"
        )
    units = {name: unit_of(name) for name in metrics}
    return metrics, units, {}, attempted, failed, notes


def worker_spec(spec: dict, mode: str, seconds: int, workload: str, tag: str) -> dict:
    keys = ("kind", "n_qubits", "commands", "out", "data", "workdir")
    out = {k: spec[k] for k in keys if k in spec}
    out.update(
        src=SRC, mode=mode, seconds=seconds, workload=workload,
        config=spec.get("config_path"),
        result=os.path.join(spec["workdir"], "result.json"),
        spans=os.path.join(ROOT, ".perfbench", f"spans-{tag}.jsonl"),
    )
    return out


def run_worker(wspec: dict, env: dict) -> dict:
    path = os.path.join(wspec["workdir"], "spec.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(wspec, handle)
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), path],
        env=env, timeout=WORKER_TIMEOUT_S, capture_output=True, text=True,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr[-4000:])
        raise SystemExit(f"workload process exited with code {done.returncode}")
    with open(wspec["result"], encoding="utf-8") as handle:
        return json.load(handle)


def expected_metrics(trace: bool) -> list[str] | None:
    """Metric names BENCHMARK.json lists for this mode, when it is present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path, encoding="utf-8") as handle:
        bench = json.load(handle)
    return [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "qaml", "cli.py")):
        print(f"no qaml sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    env = child_env(nproc)
    machine = {
        "nproc": nproc,
        "python": platform.python_version(),
        "loadavg_at_start": os.getloadavg(),
        "platform": platform.platform(),
    }
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    base = os.path.join(ROOT, ".perfbench")
    workdir = os.path.join(base, "work", f"{tag}-{os.getpid()}")
    trace = bool(args.trace)
    try:
        spec = prepare(args.workload, args.seed, os.path.join(workdir, "main"), True)
        wspec = worker_spec(spec, "trace" if trace else "loop", args.seconds, args.workload, tag)
        if trace:
            spec2 = prepare(args.workload, args.seed + 1, os.path.join(workdir, "next"), False)
            if spec["kind"] == "circuit":
                # only the counts of the second seed are compared, so it may
                # reuse the first seed's state threshold
                spec2["commands"][1][-1] = spec["commands"][1][-1]
            wspec["second"] = worker_spec(spec2, "trace", args.seconds, args.workload, tag)
        result = run_worker(wspec, env)
        ref_fail = reference_failures(result["first"], spec)
        failed, notes = count_failures(result["records"], ref_fail)
        attempted = len(result["records"])
        outcome = traced_outcome(result) if trace else loop_outcome(result)
        metrics, units, samples, more_attempted, more_failed, more_notes = outcome
        attempted += more_attempted
        failed += more_failed
        notes += more_notes
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    machine.update(result["machine"])
    print("machine: " + json.dumps(machine, sort_keys=True))
    print(f"{args.workload} seed {args.seed}: {attempted} attempted, {failed} failed, "
          f"error_rate {failed / attempted:.6g}")
    for note in notes:
        print(f"FAIL {note}")
    names = expected_metrics(trace) or list(metrics)
    missing = [n for n in names if n not in metrics]
    if missing:
        notes.append(f"metrics not measured: {missing}")
        print(f"FAIL metrics not measured: {missing}")
    if trace:
        for name in names:
            if name in metrics:
                print(f"{name} = {metrics[name]:.6g} {units[name]}")
    correct = failed == 0 and not notes
    out = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in names if n in metrics},
    }
    os.makedirs(base, exist_ok=True)
    with open(os.path.join(base, f"result-{tag}.json"), "w", encoding="utf-8") as handle:
        json.dump({**out, "machine": machine, "notes": notes, "samples": samples}, handle, indent=1)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
