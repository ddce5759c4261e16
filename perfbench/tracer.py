"""Spans and counters around the program's public functions.

The tracer patches module attributes at run time; no file of the program
changes. Every module of the package that holds a reference to a traced
function gets the wrapper, so calls through a ``from ... import`` name are
seen too (``attack.combine_outputs`` is ``cipher.combine_outputs``).

A span is (name, start, end, parent, op): parent is the index of the
enclosing span or -1, op is the benchmark operation it belongs to (-1 for
set-up). Spans are kept in memory and written out once, at the end.
"""
import importlib
import json
import time
from collections import defaultdict

# The traced functions, (module, function) -> None or the counters taken
# from each call: fn(args, kwargs, result, exc) -> {counter: amount}
TRACED = {
    ("attack", "run_plan"): lambda a, k, res, exc: {
        "attack.beam.candidates": (res.transcript if exc is None
                                   else getattr(exc, "transcript", {})
                                   ).get("beam_size", 0)},
    ("attack", "run_parallel_instances"): lambda a, k, res, exc: {
        "attack.instances.attempted": 0 if res is None else sum(
            st.attempt is not None for st in res.statuses)},
    ("attack", "score_stage"): None,
    ("attack", "register_rows"): None,
    ("kernels", "fwht_inplace"): lambda a, k, res, exc: {
        "kernels.fwht_inplace.points": int(a[0].size)},
    ("kernels", "lfsr_sequence"): lambda a, k, res, exc: {
        "kernels.lfsr_sequence.bits": int(a[3] if len(a) > 3 else k["n"])},
    ("cipher", "keystream"): lambda a, k, res, exc: {
        "cipher.keystream.bits": int(a[1] if len(a) > 1 else k["n"])},
    ("cipher", "combine_outputs"): None,
    ("classifier", "partition_keys"): None,
    ("classifier", "plan_attack"): None,
    ("randomness", "fips_battery"): None,
    ("randomness", "batch_pass_rates"): None,
    ("cli", "main"): None,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.op = -1
        self._stack = []
        self._undo = []

    def wrap(self, name, fn, count=None):
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([name, time.perf_counter(), None, parent, self.op])
            self._stack.append(index)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                self._stack.pop()
                self.spans[index][2] = time.perf_counter()
                self.counts[name + ".calls"] += 1
                if count is not None:
                    for key, amount in count(args, kwargs, result,
                                             exc).items():
                        self.counts[key] += amount
        traced.__wrapped__ = fn
        return traced

    def install(self, package="bsea2"):
        """Wrap every TRACED function wherever the package binds it."""
        modules = {name: importlib.import_module(f"{package}.{name}")
                   for name in ("attack", "cipher", "classifier", "cli",
                                "kernels", "lfsr", "randomness")}
        for (mod, fn_name), count in TRACED.items():
            fn = getattr(modules[mod], fn_name)
            traced = self.wrap(f"{mod}.{fn_name}", fn, count)
            for module in modules.values():
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, traced)
                        self._undo.append((module, attr, fn))

    def uninstall(self):
        for module, attr, fn in reversed(self._undo):
            setattr(module, attr, fn)
        self._undo.clear()

    def totals(self) -> dict:
        """Per-layer figures: time, calls and counters by span name.

        ``<name>.s`` sums the durations of the layer's spans. Two self
        times are derived: ``attack.run_plan``
        less the ``score_stage`` calls directly inside it (validation and
        beam bookkeeping), and ``cli.main`` less all its traced children.
        """
        out = dict(self.counts)
        seconds = defaultdict(float)
        children = defaultdict(float)      # parent index -> child time
        scoring = defaultdict(float)       # run_plan index -> its scorings
        for name, start, end, parent, _ in self.spans:
            duration = end - start
            seconds[name] += duration
            if parent >= 0:
                children[parent] += duration
                if (name == "attack.score_stage"
                        and self.spans[parent][0] == "attack.run_plan"):
                    scoring[parent] += duration
        for name, value in seconds.items():
            out[name + ".s"] = value
        out["attack.run_plan.self_s"] = sum(
            end - start - scoring[i]
            for i, (name, start, end, _, _) in enumerate(self.spans)
            if name == "attack.run_plan")
        out["cli.self_s"] = sum(
            end - start - children[i]
            for i, (name, start, end, _, _) in enumerate(self.spans)
            if name == "cli.main")
        return out

    def write(self, path, extra=None):
        payload = {
            "fields": ["name", "start", "end", "parent", "op"],
            "spans": self.spans,
            "totals": self.totals(),
        }
        if extra:
            payload.update(extra)
        with open(path, "w") as fh:
            json.dump(payload, fh)

