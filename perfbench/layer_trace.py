"""Per-layer tracing from outside the program: wraps medseq's public functions.

A layer is one public function, named "<module>.<function>" after the medseq
module that defines it; ``Tape.gradients`` is the layer ``tensor.backward``.
Each call is a span.  Spans nest, so a layer's self time is its duration
minus the time spent in wrapped layers it called.

Installing a ``Tracer`` replaces every binding of a wrapped function, by
identity, in every loaded ``medseq.*`` namespace: modules that imported a
name directly (``from .tensor import matmul``), aliases
(``decode as decode_tokens``) and the package's re-exports all see the
wrapper.  Modules are resolved with ``importlib.import_module`` because the
package rebinds the attribute ``medseq.train`` to the ``train`` function.
Nothing in the program changes; uninstalling restores every binding.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

MODULES = (
    "tensor", "transformer", "train", "decoding", "textprep",
    "synth", "records", "metrics", "config", "cli",
)
BACKWARD = "tensor.backward"

# Layers whose per-call durations are kept for percentiles.
KEEP_DURATIONS = frozenset({"train.loss_and_grads"})


class LayerStat:
    __slots__ = ("calls", "seconds", "self_seconds", "durations", "counters")

    def __init__(self, keep_durations: bool) -> None:
        self.calls = 0
        self.seconds = 0.0
        self.self_seconds = 0.0
        self.durations: list[float] | None = [] if keep_durations else None
        self.counters: dict[str, int] = defaultdict(int)


def _count_positions(stat: LayerStat, args: tuple, kwargs: dict, out) -> None:
    """decode_logits(model, memory, src_bias, tgt_in_ids, ...): batch x prefix."""
    ids = args[3] if len(args) > 3 else kwargs["tgt_in_ids"]
    stat.counters["positions"] += int(np.asarray(ids).size)


def _count_padding(stat: LayerStat, args: tuple, kwargs: dict, out) -> None:
    """pad_batch returns (src, side, tgt) PAD-filled matrices."""
    pad_id = importlib.import_module("medseq.textprep").PAD_ID
    src, _, tgt = out
    stat.counters["pad_src"] += int((src == pad_id).sum())
    stat.counters["all_src"] += int(src.size)
    stat.counters["pad_tgt"] += int((tgt == pad_id).sum())
    stat.counters["all_tgt"] += int(tgt.size)


HOOKS = {
    "transformer.decode_logits": _count_positions,
    "train.pad_batch": _count_padding,
}


def public_functions() -> dict[str, object]:
    """layer name -> function, for every public function a module defines."""
    found = {}
    for short in MODULES:
        module = importlib.import_module(f"medseq.{short}")
        for attr, value in vars(module).items():
            if (
                not attr.startswith("_")
                and inspect.isfunction(value)
                and value.__module__ == module.__name__
            ):
                found[f"{short}.{attr}"] = value
    return found


class Tracer:
    """Collects spans for every wrapped layer while installed."""

    def __init__(self) -> None:
        self.stats: dict[str, LayerStat] = {}
        self.enabled = True
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        stat = self.stats[name] = LayerStat(name in KEEP_DURATIONS)
        hook = HOOKS.get(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack.append(0.0)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                stat.calls += 1
                stat.seconds += elapsed
                stat.self_seconds += elapsed - children
                if stack:
                    stack[-1] += elapsed
                if stat.durations is not None:
                    stat.durations.append(elapsed)
            if hook is not None:
                hook(stat, args, kwargs, out)
            return out

        return wrapper

    def install(self) -> None:
        tape = importlib.import_module("medseq.tensor").Tape
        gradients = tape.__dict__["gradients"]
        self._patches.append((tape, "gradients", gradients))
        setattr(tape, "gradients", self._wrap(BACKWARD, gradients))
        wrappers = {id(fn): (fn, self._wrap(name, fn)) for name, fn in public_functions().items()}
        namespaces = [m for n, m in list(sys.modules.items()) if n == "medseq" or n.startswith("medseq.")]
        for module in namespaces:
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, entry[1])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside run unrecorded (the benchmark's own bookkeeping)."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def value(self, metric: str) -> float:
        """One per-layer metric: "<module>.<function>.<field>"."""
        layer, _, field = metric.rpartition(".")
        stat = self.stats.get(layer)
        if stat is None:
            return 0.0
        if field == "calls":
            return float(stat.calls)
        if field == "ms":
            return stat.seconds * 1e3
        if field == "self_ms":
            return stat.self_seconds * 1e3
        if field in ("ms_p50", "ms_p90"):
            if not stat.durations:
                return 0.0
            return float(np.percentile(stat.durations, 50 if field == "ms_p50" else 90)) * 1e3
        if field.startswith("pad_share_"):
            side = field[len("pad_share_"):]
            total = stat.counters[f"all_{side}"]
            return stat.counters[f"pad_{side}"] / total if total else 0.0
        return float(stat.counters[field])

    def table(self) -> list[str]:
        """One line per layer that was called, by self time, largest first."""
        rows = sorted(
            (s.self_seconds, name, s) for name, s in self.stats.items() if s.calls
        )
        return [
            f"layer {name:<36} calls={s.calls:<9} ms={s.seconds * 1e3:<12.3f} self_ms={self_s * 1e3:.3f}"
            for self_s, name, s in reversed(rows)
        ]
