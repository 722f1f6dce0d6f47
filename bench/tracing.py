"""Spans and memory probes wrapped around zoft's functions from outside.

A function is wrapped at every place zoft looks it up: each `zoft.*` module
global bound to it (for example `perturb_in_place` inside
`zoft.zo_optimizer`), each module-level dict entry (the CLI's command table)
and, for methods, the class attribute.  `Patches.restore` puts every original
object back; the program's source is never touched.
"""

from __future__ import annotations

import csv
import functools
import importlib
import sys
import time
import tracemalloc
from pathlib import Path

# (span name, module, attribute path).  Several attributes may share a span
# name; every span name starts with the layer (module) it belongs to.
TARGETS = (
    ("cli.main", "zoft.cli", "main"),
    ("harness.cmd_train_finetuner", "zoft.harness", "cmd_train_finetuner"),
    ("harness.cmd_finetune", "zoft.harness", "cmd_finetune"),
    ("harness.cmd_compare", "zoft.harness", "cmd_compare"),
    ("harness.cmd_sweep_lr", "zoft.harness", "cmd_sweep_lr"),
    ("harness.cmd_ablate", "zoft.harness", "cmd_ablate"),
    ("harness.cmd_verify_bounds", "zoft.harness", "cmd_verify_bounds"),
    ("config.load", "zoft.config", "ExperimentConfig.load"),
    ("config.build_task_source", "zoft.config", "build_task_source"),
    ("testbeds.build", "zoft.testbeds", "QuadraticFamily.make_task"),
    ("testbeds.build", "zoft.testbeds", "make_rank_family"),
    ("testbeds.loss", "zoft.testbeds", "QuadraticTask.loss"),
    ("testbeds.grad", "zoft.testbeds", "QuadraticTask.grad"),
    ("paramspace.perturb_in_place", "zoft.paramspace", "perturb_in_place"),
    ("paramspace.block_stats", "zoft.paramspace", "block_stats"),
    ("zo_optimizer.run_finetune", "zoft.zo_optimizer", "run_finetune"),
    ("zo_optimizer.step", "zoft.zo_optimizer", "step"),
    ("zo_optimizer.step_features", "zoft.zo_optimizer", "step_features"),
    ("zo_optimizer.normalize_scales", "zoft.zo_optimizer", "normalize_scales"),
    ("pertnn.forward_all", "zoft.pertnn", "forward_all"),
    ("pertnn.backward", "zoft.pertnn", "backward"),
    ("pertnn.PertNNParams.zeros_like", "zoft.pertnn", "PertNNParams.zeros_like"),
    ("pertnn.PertNNParams.add_scaled", "zoft.pertnn", "PertNNParams.add_scaled"),
    ("pertnn.checkpoint_io", "zoft.pertnn", "load"),
    ("pertnn.checkpoint_io", "zoft.pertnn", "save"),
    ("meta_trainer.train", "zoft.meta_trainer", "train"),
    ("meta_trainer.meta_step", "zoft.meta_trainer", "meta_step"),
    ("meta_trainer.meta_grad", "zoft.meta_trainer", "meta_grad"),
    ("meta_trainer.meta_loss", "zoft.meta_trainer", "meta_loss"),
    ("bounds.verify_bound", "zoft.bounds", "verify_bound"),
    ("bounds.expected_decrease", "zoft.bounds", "expected_decrease"),
    ("bounds.optimal_scales", "zoft.bounds", "optimal_scales"),
)

# span name -> function of the call's arguments kept as the span's tag
TAGS = {
    "zo_optimizer.step": lambda args, kwargs: args[3].mode,
    "paramspace.perturb_in_place": lambda args, kwargs: args[0].values.size,
}

# The two functions whose own memory the memory pass measures.
PROBED = ("paramspace.perturb_in_place", "testbeds.loss")

_MARK = "__bench_wrapper__"


def zoft_modules():
    """Every imported module of the zoft package, the package included."""
    return [m for name, m in list(sys.modules.items())
            if name == "zoft" or name.startswith("zoft.")]


def lookup_sites(module: str, path: str):
    """Yield (owner, key) pairs through which zoft reaches the target."""
    owner = importlib.import_module(module)
    *outer, key = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    if owner is None or key not in vars(owner):
        return  # renamed or removed upstream: nothing to wrap
    if outer:  # a method: the class attribute is the only lookup
        yield owner, key
        return
    target = vars(owner)[key]
    for mod in zoft_modules():
        for name, value in list(vars(mod).items()):
            if value is target:
                yield mod, name
            elif type(value) is dict:
                for k, v in value.items():
                    if v is target:
                        yield value, k


def bound_at(owner, key):
    """The object bound at one lookup site."""
    return owner[key] if type(owner) is dict else vars(owner)[key]


def _set(owner, key, value) -> None:
    if type(owner) is dict:
        owner[key] = value
    else:
        setattr(owner, key, value)


class Patches:
    """Installed wrappers and the originals they replaced."""

    def __init__(self):
        self._saved = []

    def install(self, make_wrapper, names=None) -> None:
        """Wrap every target (or those in `names`) with make_wrapper(name, fn)."""
        wrapped = {}  # id(original) -> wrapper, so shared objects wrap once
        for name, module, path in TARGETS:
            if names is not None and name not in names:
                continue
            for owner, key in list(lookup_sites(module, path)):
                original = bound_at(owner, key)
                if getattr(original, _MARK, False):
                    continue  # never wrap a wrapper
                wrapper = wrapped.get(id(original))
                if wrapper is None:
                    if isinstance(original, classmethod):
                        wrapper = classmethod(make_wrapper(name, original.__func__))
                    else:
                        wrapper = make_wrapper(name, original)
                    wrapped[id(original)] = wrapper
                self._saved.append((owner, key, original))
                _set(owner, key, wrapper)

    def restore(self) -> list:
        """Put every original back; return the sites that did not take it."""
        for owner, key, original in reversed(self._saved):
            _set(owner, key, original)
        wrong = [f"{getattr(owner, '__name__', 'dict')}.{key}"
                 for owner, key, original in self._saved
                 if bound_at(owner, key) is not original]
        self._saved.clear()
        return wrong


def installed_wrappers() -> list:
    """Every zoft attribute that currently holds a benchmark wrapper."""
    found = []
    for mod in zoft_modules():
        for name, value in vars(mod).items():
            inner = value.__func__ if isinstance(value, classmethod) else value
            if getattr(inner, _MARK, False):
                found.append(f"{mod.__name__}.{name}")
            if isinstance(value, type):
                for attr, member in vars(value).items():
                    member = getattr(member, "__func__", member)
                    if getattr(member, _MARK, False):
                        found.append(f"{mod.__name__}.{name}.{attr}")
            elif type(value) is dict:
                found += [f"{mod.__name__}.{name}[{k!r}]" for k, v in value.items()
                          if getattr(v, _MARK, False)]
    return found


def _mark(wrapper, fn):
    functools.update_wrapper(wrapper, fn)
    setattr(wrapper, _MARK, True)
    return wrapper


class Tracer:
    """Records spans in memory, each a list
    [name, start_ns, end_ns, parent index or -1, run id, children's ns, tag,
    exception name or None].

    A span's self time is its duration minus the time of its direct children;
    the calls are single-threaded, so children never overlap.
    """

    def __init__(self):
        self.spans = []
        self.run_id = 0
        self._stack = []

    def wrapper(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        tag = TAGS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            span = [name, 0, 0, parent, tracer.run_id, 0,
                    tag(args, kwargs) if tag else None, None]
            spans.append(span)
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span[7] = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                span[1], span[2] = start, end
                if parent >= 0:
                    spans[parent][5] += end - start

        return _mark(traced, fn)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="") as f:
            out = csv.writer(f, lineterminator="\n")
            out.writerow(["id", "name", "start_ns", "end_ns", "parent", "run",
                          "tag", "error"])
            for i, s in enumerate(self.spans):
                out.writerow([i, s[0], s[1], s[2], s[3], s[4],
                              "" if s[6] is None else s[6], s[7] or ""])

    def self_ns_by_run(self) -> dict:
        totals = {}
        for s in self.spans:
            totals[s[4]] = totals.get(s[4], 0) + (s[2] - s[1] - s[5])
        return totals


class PeakProbe:
    """Largest traced memory a call adds above what was live at its entry.

    tracemalloc keeps one peak, so each probed call resets it; the peak seen
    outside probed calls is folded into `outer_peak` first.
    """

    def __init__(self):
        self.extra = {}
        self.outer_peak = 0

    def wrapper(self, name, fn):
        def probed(*args, **kwargs):
            current, peak = tracemalloc.get_traced_memory()
            self.outer_peak = max(self.outer_peak, peak)
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                _, peak = tracemalloc.get_traced_memory()
                self.outer_peak = max(self.outer_peak, peak)
                self.extra[name] = max(self.extra.get(name, 0), peak - current)

        return _mark(probed, fn)
