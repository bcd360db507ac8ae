"""Spans around calls into the package, installed by the benchmark and removed after.

``Tracer.installed()`` replaces, for the duration of a ``with`` block:

* every public function of each layer module (for ``cli`` only ``main``),
  in every package namespace that holds it by name, so that
  ``lloyd_max_design`` is caught whether it is called from ``quantizer``,
  ``mismatch``, ``asymptotics``, ``taskaware`` or ``cli``;
* ``edge_stats``, ``ppf`` and ``sample`` on ``Gaussian``, ``Laplace`` and
  ``GaussianMixture``;
* ``scipy.integrate.quad``, whose calls are counted against the layer of
  the innermost open span.

Spans live in memory as ``[id, parent, layer, name, start, end, child_s,
extra]`` lists; ``write`` dumps them as JSON lines once the run is over.  A
span's self time is its duration minus the time of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import time
from collections import Counter, defaultdict

import numpy as np
import scipy.integrate

import mismatch_quant
from mismatch_quant import Gaussian, GaussianMixture, Laplace

import inputs

LAYERS = ("distributions", "quantizer", "mismatch", "asymptotics", "channel", "taskaware", "cli")
FAMILIES = (Gaussian, Laplace, GaussianMixture)
FAMILY_METHODS = ("edge_stats", "ppf", "sample")

ID, PARENT, LAYER, NAME, START, END, CHILD, EXTRA = range(8)


def _edge_bins(args, kwargs, out):
    return len(out[0])


def _design_record(args, kwargs, out):
    d, bits = args[0], args[1]
    return (d, bits, tuple(sorted(kwargs.items()))), out


def _cli_experiment(args, kwargs, out):
    argv = list(args[0]) if args else list(kwargs.get("argv") or ())
    return argv[argv.index("--experiment") + 1] if "--experiment" in argv else None


# Per-span details kept beyond the timing, keyed by (layer, name).
_EXTRAS = {
    ("distributions", "edge_stats"): _edge_bins,
    ("quantizer", "lloyd_max_design"): _design_record,
    ("cli", "main"): _cli_experiment,
}


class Tracer:
    """Records spans of calls into the package while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.quad_calls: Counter = Counter()
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        extra = _EXTRAS.get((layer, name))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [len(spans), stack[-1][ID] if stack else -1, layer, name, 0.0, 0.0, 0.0, None]
            spans.append(rec)
            stack.append(rec)
            rec[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = end = clock()
                stack.pop()
                if stack:
                    stack[-1][CHILD] += end - rec[START]
            if extra is not None:
                rec[EXTRA] = extra(args, kwargs, out)
            return out

        return wrapper

    def _wrap_quad(self, quad):
        stack, counts = self._stack, self.quad_calls

        @functools.wraps(quad)
        def counted_quad(*args, **kwargs):
            counts[stack[-1][LAYER] if stack else "none"] += 1
            return quad(*args, **kwargs)

        return counted_quad

    @contextlib.contextmanager
    def span(self, layer: str, name: str):
        """A span opened by the benchmark itself, e.g. around one task."""
        stack = self._stack
        rec = [len(self.spans), stack[-1][ID] if stack else -1, layer, name,
               time.perf_counter(), 0.0, 0.0, None]
        self.spans.append(rec)
        stack.append(rec)
        try:
            yield rec
        finally:
            rec[END] = end = time.perf_counter()
            stack.pop()
            if stack:
                stack[-1][CHILD] += end - rec[START]

    # -- installation --------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = {layer: importlib.import_module(f"mismatch_quant.{layer}") for layer in LAYERS}
        namespaces = [mismatch_quant, *modules.values()]
        for layer, mod in modules.items():
            for name in ("main",) if layer == "cli" else mod.__all__:
                fn = getattr(mod, name)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(layer, name, fn)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is fn:
                            self._patch(ns, attr, wrapper)
        for cls in FAMILIES:
            for name in FAMILY_METHODS:
                self._patch(cls, name, self._wrap("distributions", name, cls.__dict__[name]))
        self._patch(scipy.integrate, "quad", self._wrap_quad(scipy.integrate.quad))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- results -------------------------------------------------------------

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec[:END + 1]) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts and self times of everything recorded so far."""
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        bins = 0
        designs = []
        experiments = {}
        for rec in self.spans:
            key = (rec[LAYER], rec[NAME])
            calls[key] += 1
            self_s[key] += rec[END] - rec[START] - rec[CHILD]
            if key == ("distributions", "edge_stats") and rec[EXTRA] is not None:
                bins += rec[EXTRA]
            elif key == ("quantizer", "lloyd_max_design") and rec[EXTRA] is not None:
                designs.append(rec[EXTRA])
            elif key == ("cli", "main") and rec[EXTRA] is not None:
                experiments.setdefault(rec[EXTRA], 0.0)
                experiments[rec[EXTRA]] += rec[END] - rec[START]

        default_cap = inspect.signature(
            mismatch_quant.quantizer.lloyd_max_design).parameters["max_iters"].default
        iterations = cap_hits = 0
        residual_max = 0.0
        for (_, _, options), q in designs:
            n_hist = len(q.distortion_history)
            iterations += n_hist
            # The loop appends one entry per iteration plus the final half-step.
            cap_hits += n_hist >= dict(options).get("max_iters", default_cap) + 1
            t = np.asarray(q.partition.boundaries)
            c = q.design_codebook.as_array()
            residual_max = max(residual_max, float(np.max(np.abs(t - 0.5 * (c[:-1] + c[1:])))))

        def s(layer, name):
            return self_s[(layer, name)]

        def family(name):
            return self_s[("distributions", name)]

        metrics = {
            "distributions.edge_stats.calls": calls[("distributions", "edge_stats")],
            "distributions.edge_stats.bins": bins,
            "distributions.edge_stats.self_s": family("edge_stats"),
            "distributions.ppf.self_s": family("ppf"),
            "distributions.sample.self_s": family("sample"),
            "quantizer.lloyd_max_design.calls": len(designs),
            "quantizer.lloyd_max_design.distinct": len({key for key, _ in designs}),
            "quantizer.lloyd_max_design.self_s": s("quantizer", "lloyd_max_design"),
            "quantizer.lloyd_max_design.iterations": iterations,
            "quantizer.lloyd_max_design.cap_hits": cap_hits,
            "quantizer.lloyd_max_design.residual_max": residual_max,
            "mismatch.report.calls": calls[("mismatch", "report")],
            "mismatch.report.self_s": s("mismatch", "report"),
            "mismatch.expected_distortion.self_s": s("mismatch", "expected_distortion"),
            "mismatch.monte_carlo_distortion.self_s": s("mismatch", "monte_carlo_distortion"),
            "asymptotics.rate_recovery_sweep.self_s": s("asymptotics", "rate_recovery_sweep"),
            "asymptotics.bennett_granular.self_s": s("asymptotics", "bennett_granular"),
            "asymptotics.panter_dite.self_s": s("asymptotics", "panter_dite"),
            "asymptotics.quad.calls": self.quad_calls["asymptotics"],
            "channel.soft_codebook.calls": calls[("channel", "soft_codebook")],
            "channel.soft_codebook.self_s": s("channel", "soft_codebook"),
            "channel.index_posterior.calls": calls[("channel", "index_posterior")],
            "channel.index_posterior.self_s": s("channel", "index_posterior"),
            "channel.bsc_channel.self_s": s("channel", "bsc_channel"),
            "channel.noisy_distortion.self_s": s("channel", "noisy_distortion"),
            "taskaware.task_codebook.self_s": s("taskaware", "task_codebook"),
            "taskaware.golden_section_minimize.calls":
                calls[("taskaware", "golden_section_minimize")],
            "taskaware.quad.calls": self.quad_calls["taskaware"],
            "taskaware.rician_moment.calls": calls[("taskaware", "rician_moment")],
            "taskaware.rician_moment.self_s": s("taskaware", "rician_moment"),
            "taskaware.map_labels.self_s": s("taskaware", "map_labels"),
            "taskaware.classification_report.self_s": s("taskaware", "classification_report"),
            "cli.main.self_s": s("cli", "main"),
        }
        for experiment in inputs.CLI_EXPERIMENTS:
            metrics[f"cli.run.s.{experiment}"] = experiments.get(experiment, 0.0)
        return metrics

