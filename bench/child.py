"""Run one ``overtake-eval`` command in this process and write its timings.

Usage::

    python3 bench/child.py TIMING_JSON {plain|traced} CLI_ARG...

The command goes through the real user path, ``overtake_eval.cli.main``.
``TIMING_JSON`` receives the monotonic time at which the package finished
importing, the time of the first sampling call, the time ``main`` returned
and its exit code.  The parent process (``bench/run.py``) records the spawn
time and the resource usage, so everything here is what happens inside the
interpreter.

``plain`` installs nothing except a one-shot hook that notes the first
sampling call and then puts the original functions back.  ``traced`` wraps
the public functions of every layer where the calling module binds them,
keeps one span per call in memory and writes per-layer totals when the
command has returned.

A hooked name the program no longer has is skipped: its layer reads 0, and
without a sampling call the set-up time ends where ``main`` is entered.
"""

from __future__ import annotations

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import overtake_eval  # noqa: E402
import overtake_eval.cli as cli  # noqa: E402
import overtake_eval.harness as harness  # noqa: E402
from overtake_eval.criticality import CriticalityEvaluator  # noqa: E402

T_READY = time.monotonic()

# Sampling entry points as the harness binds them; campaigns reach them
# through ``sample_env`` and replications call them directly.
SAMPLING_NAMES = ("sample_nde_batch", "sample_nade_batch")

# (span name, module, attribute).  Spans nest: a layer's self time is its
# duration minus the time its child spans cover.
TRACED = (
    ("sampling.nde", harness, "sample_nde_batch"),
    ("sampling.nade", harness, "sample_nade_batch"),
    ("criticality.profile", CriticalityEvaluator, "profile"),
    ("estimators.estimate", harness, "estimate_nde"),
    ("estimators.estimate", harness, "estimate_nade"),
    ("estimators.estimate", harness, "estimate_atscv"),
    ("estimators.estimate", harness, "fit_atscv"),
    ("estimators.stopping", harness, "tests_to_threshold"),
    ("estimators.convergence", harness, "convergence_series"),
    ("oracle", harness, "brute_force_mu"),
    ("harness.emit", cli, "emit_outputs"),
)


class FirstSamplingCall:
    """Notes when sampling first starts, then removes itself."""

    def __init__(self):
        self.t = None
        self.originals = {name: getattr(harness, name)
                          for name in SAMPLING_NAMES if hasattr(harness, name)}
        for name, fn in self.originals.items():
            setattr(harness, name, self._hook(fn))

    def _hook(self, fn):
        def hooked(*args, **kwargs):
            if self.t is None:
                self.t = time.monotonic()
                for name, original in self.originals.items():
                    setattr(harness, name, original)
            return fn(*args, **kwargs)
        return hooked


def cache_size(evaluator):
    """Entries in a criticality evaluator's cache, one per miss; 0 if the
    evaluator no longer keeps its cache under this private name."""
    return len(getattr(evaluator, "_entry_cache", ()))


class Tracer:
    """In-memory spans around the layer functions listed in ``TRACED``.

    A span is ``[name, start, end, child_time, detail]``; ``detail`` holds
    the argument or result facts a layer's counters need.
    """

    def __init__(self):
        self.spans = []
        self.stack = []
        self.evaluators = {}
        for span_name, owner, attr in TRACED:
            if hasattr(owner, attr):
                setattr(owner, attr, self._wrap(span_name, getattr(owner, attr)))

    def _wrap(self, span_name, fn):
        spans, stack = self.spans, self.stack
        clock = time.monotonic
        tracer = self

        def traced(*args, **kwargs):
            span = [span_name, clock(), 0.0, 0.0, None]
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
                if stack:
                    stack[-1][3] += span[2] - span[1]
                spans.append(span)
            span[4] = tracer._detail(span_name, args, kwargs, result)
            return result
        return traced

    def _detail(self, span_name, args, kwargs, result):
        if span_name == "criticality.profile":
            self.evaluators[id(args[0])] = args[0]
            return None
        if span_name == "sampling.nde":
            return {"episodes": len(result),
                    "accidents": sum(r.accident for r in result)}
        if span_name == "sampling.nade":
            w = [r.weight for r in result]
            return {"episodes": len(result),
                    "moments": sum(r.control_steps for r in result),
                    "sum_w": sum(w), "sum_w2": sum(x * x for x in w)}
        if span_name == "estimators.convergence":
            method = kwargs.get("method", args[2] if len(args) > 2 else None)
            return {"method": method}
        if span_name == "harness.emit":
            return {"bytes": sum(os.path.getsize(p) for p in result)}
        return None

    def totals(self):
        """Per-span-name call count, total time and self time, plus the
        counters the spans carry."""
        out = {}
        for name, t0, t1, child, detail in self.spans:
            if name == "estimators.convergence":
                pooled = detail["method"] in ("nde", "nade")
                name += ".pooled" if pooled else ".atscv"
            agg = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                        "self_s": 0.0})
            agg["calls"] += 1
            agg["total_s"] += t1 - t0
            agg["self_s"] += t1 - t0 - child
            for key, value in (detail or {}).items():
                if key != "method":
                    agg[key] = agg.get(key, 0) + value
        misses = sum(cache_size(ev) for ev in self.evaluators.values())
        out.setdefault("criticality.profile", {"calls": 0, "total_s": 0.0,
                                               "self_s": 0.0})
        out["criticality.profile"]["cache_misses"] = misses
        return out


def main(argv):
    timing_path, mode, cli_args = argv[0], argv[1], argv[2:]
    if mode not in ("plain", "traced"):
        raise SystemExit(f"unknown mode {mode!r}")
    if mode == "traced":
        tracer, first = Tracer(), None
    else:
        tracer, first = None, FirstSamplingCall()
    t_main = time.monotonic()
    rc = cli.main(cli_args)
    t_done = time.monotonic()
    if tracer:
        starts = [s[1] for s in tracer.spans if s[0].startswith("sampling.")]
        t_first = min(starts, default=t_main)
    else:
        t_first = first.t or t_main
    timing = {
        "package": os.path.dirname(os.path.abspath(overtake_eval.__file__)),
        "t_ready": T_READY,
        "t_first_sampling": t_first,
        "t_done": t_done,
        "exit_code": rc,
        "layers": tracer.totals() if tracer else None,
    }
    with open(timing_path, "w") as fh:
        json.dump(timing, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
