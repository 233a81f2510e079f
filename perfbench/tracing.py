"""Spans around the calls into qaml's public functions, recorded from outside.

`Tracer.install()` replaces every public function of the qaml modules (and
two methods: `CircuitOp.to_gate`, which builds a gate, and
`StateVector.__post_init__`, which validates a state) with a wrapper that
records a span: name, layer, start, end, parent span and, for a few
functions, a small tuple of attributes read from the arguments after the call
ends. Spans stay in memory until `write()`. `uninstall()` puts the original
objects back. The layer of a span is the qaml module that defines the call.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

LAYERS = ("dsl", "gates", "state", "circuit", "encoding", "hybrid", "cli")


def _program_lines(args, kwargs, result):
    program = args[0] if args else kwargs["program"]
    text = program if isinstance(program, str) else program.text
    return (len(text.splitlines()),)


# Attributes recorded per call, read after the span has ended.
ATTRIBUTES = {
    "dsl.parse": _program_lines,
    "gates.apply_gate": lambda a, k, r: (a[1].name, tuple(a[2]), a[0].n_qubits),
    "gates.apply_gate_tensor": lambda a, k, r: (a[0].size,),
    "circuit.execute": lambda a, k, r: (len(a[0].ops),),
    "circuit.sample_state": lambda a, k, r: (a[1], a[0].dim),
    "encoding.load_feature_rows": lambda a, k, r: (len(r),),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, fn, name: str, layer: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        attributes = ATTRIBUTES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(record)
            record[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()
            if attributes is not None:
                try:
                    record[5] = attributes(args, kwargs, result)
                except Exception:  # a changed signature costs the attributes, not the run
                    pass
            return result

        return wrapper

    def _patch(self, owner, attr: str, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        import qaml.circuit
        import qaml.state

        modules = [m for n, m in sys.modules.items() if n == "qaml" or n.startswith("qaml.")]
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules.get(f"qaml.{layer}")
            for attr, obj in vars(module).items() if module else ():
                if (
                    inspect.isfunction(obj)
                    and not attr.startswith("_")
                    and obj.__module__ == module.__name__
                ):
                    wrappers[id(obj)] = (obj, self.wrap(obj, f"{layer}.{attr}", layer))
        # `from x import f` copies the reference, so every module holding the
        # original function gets the wrapper.
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._patch(module, attr, wrappers[id(obj)][1])
        methods = (
            (qaml.circuit.CircuitOp, "to_gate", "gates.build", "gates"),
            (qaml.state.StateVector, "__post_init__", "state.validate", "state"),
        )
        for cls, attr, name, layer in methods:
            if hasattr(cls, attr):
                self._patch(cls, attr, self.wrap(getattr(cls, attr), name, layer))
        return self

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as handle:
            for name, layer, start, end, parent, attrs in self.spans:
                handle.write(
                    json.dumps(
                        {"name": name, "layer": layer, "start": start, "end": end,
                         "parent": parent, "attrs": attrs}
                    )
                )
                handle.write("\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the time covered by its direct children."""
    own = [end - start for _, _, start, end, _, _ in spans]
    for _, _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own
