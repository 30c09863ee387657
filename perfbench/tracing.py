"""In-memory spans around the calls into each layer of the BER sweep.

The spans are recorded from the benchmark's side: ``installed`` swaps the
layer functions that the sweep looks up at call time for timing wrappers and
restores them afterwards. Spans are only ever recorded in one process, so the
traced sweep runs at one worker.

Layers and the functions traced for them:

- ``channel``: ``paired_streams``;
- ``precoding``: ``build_instance``;
- ``falm``: the ``falm`` precoder callable and ``falm_solve``;
- ``baselines``: the ``zf``, ``zf-ob`` and ``msm`` callables and ``msm_precode``;
- ``constellation``: ``MpskConstellation.decide``;
- ``harness``: ``run_experiment``, the root span.
"""

from __future__ import annotations

import contextlib
import io
import time

from onebit_precoding import baselines, harness
from onebit_precoding.constellation import MpskConstellation

LAYERS = ("channel", "precoding", "falm", "baselines", "constellation", "harness")
ROOT = "harness.run_experiment"


def precoder_span(pid: str):
    """(span name, layer) of one precoder callable."""
    if pid == "falm":
        return "falm.precoder", "falm"
    return f"baselines.{pid}", "baselines"


class Tracer:
    """Spans as [name, layer, start, end, parent index], plus the solver
    outcomes that the traced calls return."""

    def __init__(self):
        self.spans = []
        self._open = []
        self.apg_calls = []  # inner APG iterations of every outer FALM step
        self.apg_per_solve = []
        self.margins = {"falm": [], "msm": []}

    def wrap(self, name: str, layer: str, fn):
        def traced(*args, **kwargs):
            span = [name, layer, time.perf_counter(), 0.0, self._open[-1] if self._open else -1]
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._open.pop()

        return traced

    def self_times(self):
        """Per-layer self time: each span's duration minus the part of it
        that its direct children cover."""
        child = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = dict.fromkeys(LAYERS, 0.0)
        for (_, layer, start, end, _), covered in zip(self.spans, child):
            totals[layer] += end - start - covered
        return totals

    def durations(self, name: str):
        return [end - start for n, _, start, end, _ in self.spans if n == name]

    def write_csv(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_s,end_s,parent\n")
            t0 = self.spans[0][2] if self.spans else 0.0
            for name, _, start, end, parent in self.spans:
                fh.write(f"{name},{start - t0:.9f},{end - t0:.9f},{parent}\n")


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Route the sweep's calls into each layer through ``tracer``."""
    real_get_precoder = harness.get_precoder
    real_falm_solve = baselines.falm_solve
    real_msm_precode = baselines.msm_precode

    def get_precoder(pid, solver_config=None):
        name, layer = precoder_span(pid)
        return tracer.wrap(name, layer, real_get_precoder(pid, solver_config))

    def falm_solve(instance, config=None, init=None, trace_file=None):
        log = io.StringIO()
        report = real_falm_solve(instance, config, init, log)
        inner = [int(row.rsplit(",", 1)[1]) for row in log.getvalue().splitlines()[1:]]
        tracer.apg_calls.extend(inner)
        tracer.apg_per_solve.append(sum(inner))
        tracer.margins["falm"].append(report.margin)
        return report

    def msm_precode(instance):
        report = real_msm_precode(instance)
        tracer.margins["msm"].append(report.margin)
        return report

    patches = [
        (harness, "paired_streams", tracer.wrap("channel.paired_streams", "channel", harness.paired_streams)),
        (harness, "get_precoder", get_precoder),
        (baselines, "build_instance", tracer.wrap("precoding.build_instance", "precoding", baselines.build_instance)),
        (baselines, "falm_solve", tracer.wrap("falm.falm_solve", "falm", falm_solve)),
        (baselines, "msm_precode", tracer.wrap("baselines.msm_precode", "baselines", msm_precode)),
        (MpskConstellation, "decide", tracer.wrap("constellation.decide", "constellation", MpskConstellation.decide)),
    ]
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    try:
        for owner, attr, fn in patches:
            setattr(owner, attr, fn)
        yield tracer
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)
