"""In-memory span tracing of ``concept_parse`` from outside the package.

``Tracer.installed()`` replaces public functions of the package's modules by
timing wrappers, at the names through which the package itself looks them up,
and puts the originals back on exit. Nothing under ``src/`` is edited:

- ``model`` and ``training`` reach the autodiff ops as ``ad.<op>``, and
  ``autodiff.affine`` reaches ``add`` and ``matmul`` through its module
  globals, so patching the ``autodiff`` module attribute covers every caller;
- ``evaluation`` imports ``beam_decode`` by name and ``training`` imports
  ``teacher_forced_accuracy`` by name, so those copies are patched as well;
- ``ConceptModel`` methods are patched on the class;
- an op's backward is timed by wrapping the ``vjp`` closure of the node the op
  returns, so backward spans nest under ``autodiff.backward``.

A span is ``[name, start, end, parent]``, with times from
``time.perf_counter`` and ``parent`` the index of the enclosing span (-1 for
a root). Spans stay in memory until the run ends.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

from concept_parse import autodiff, data, decoding, evaluation, model, training

OPS = ("add", "mul", "scale", "matmul", "reshape", "transpose", "concat",
       "gather_rows", "take_index", "take_along_last", "sum_all", "softmax",
       "log_softmax", "layer_norm", "gelu")

MODEL_METHODS = ("encode_source_batch", "encode_concepts_tensor", "build_batch",
                 "teacher_log_probs", "encode_source", "initial_state",
                 "decode_step", "target_embed", "compile_domain")

DATA_FUNCTIONS = ("record_from_row", "carve_test_split", "build_leave_one_out")

SETUP_SPAN = "bench.setup"
PASS_SPAN = "bench.pass"

# (name, unit); time metrics are per measured pass, see README.md
LAYER_METRICS = (
    [(f"autodiff.{op}.{field}", unit) for op in OPS
     for field, unit in (("fwd_ms", "ms/pass"), ("bwd_ms", "ms/pass"),
                         ("calls", "calls/pass"))]
    + [("autodiff.nodes_per_step", "nodes/step"),
       ("autodiff.backward.ms", "ms/pass"),
       ("autodiff.adam_step.ms", "ms/pass")]
    + [(f"model.{name}.ms", "ms/pass") for name in MODEL_METHODS]
    + [("model.teacher_log_probs.self_ms", "ms/pass"),
       ("model.decode_step.calls", "calls/pass"),
       ("decoding.beam_decode.self_ms", "ms/pass"),
       ("decoding.steps_per_utt", "steps/utt"),
       ("decoding.useful_step_share", "ratio"),
       ("decoding.truncated_share", "ratio"),
       ("decoding.truncated_hyps", "count/pass"),
       ("training.batch_nll_tensor.self_ms", "ms/pass"),
       ("evaluation.teacher_forced_accuracy.ms", "ms/pass"),
       ("evaluation.evaluate_domain.self_ms", "ms/pass"),
       ("data.prepare_ms", "ms/setup"),
       ("trace.covered_share", "ratio"),
       ("trace.overhead_pct", "%")]
)


class Tracer:
    """Records nested spans, graph-node creations and beam-search outcomes."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = [-1]
        self.node_spans: list[int] = []   # fwd spans whose op recorded a graph node
        self.beams: list[tuple[int, int, int, int]] = []  # span, best len, hyps, truncated

    def begin(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1]])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)
        return traced

    def _wrap_op(self, op: str, fn):
        fwd, bwd = f"autodiff.{op}.fwd", f"autodiff.{op}.bwd"

        def traced(*args, **kwargs):
            index = self.begin(fwd)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(index)
            if out.vjp is not None:
                self.node_spans.append(index)
                out.vjp = self.wrap(bwd, out.vjp)
            return out
        return traced

    def _wrap_beam_decode(self, fn):
        def traced(*args, **kwargs):
            index = self.begin("decoding.beam_decode")
            try:
                hyps = fn(*args, **kwargs)
            finally:
                self.end(index)
            self.beams.append((index, len(hyps[0].tokens), len(hyps),
                               sum(h.truncated for h in hyps)))
            return hyps
        return traced

    @contextmanager
    def installed(self):
        """Patch the package's public functions for the duration of the block."""
        patches = []
        for op in OPS:
            patches.append((autodiff, op, self._wrap_op(op, getattr(autodiff, op))))
        for name in ("backward", "adam_step"):
            patches.append((autodiff, name,
                            self.wrap(f"autodiff.{name}", getattr(autodiff, name))))
        for name in MODEL_METHODS:
            patches.append((model.ConceptModel, name,
                            self.wrap(f"model.{name}", getattr(model.ConceptModel, name))))
        traced_beam = self._wrap_beam_decode(decoding.beam_decode)
        patches += [(decoding, "beam_decode", traced_beam),
                    (evaluation, "beam_decode", traced_beam)]
        traced_tf = self.wrap("evaluation.teacher_forced_accuracy",
                              evaluation.teacher_forced_accuracy)
        patches += [(evaluation, "teacher_forced_accuracy", traced_tf),
                    (training, "teacher_forced_accuracy", traced_tf),
                    (evaluation, "evaluate_domain",
                     self.wrap("evaluation.evaluate_domain", evaluation.evaluate_domain))]
        patches.append((training, "batch_nll_tensor",
                        self.wrap("training.batch_nll_tensor", training.batch_nll_tensor)))
        for name in DATA_FUNCTIONS:
            patches.append((data, name, self.wrap(f"data.{name}", getattr(data, name))))

        originals = [(owner, name, getattr(owner, name)) for owner, name, _ in patches]
        try:
            for owner, name, traced in patches:
                setattr(owner, name, traced)
            yield self
        finally:
            for owner, name, original in reversed(originals):
                setattr(owner, name, original)

    def write(self, path: Path) -> None:
        """Dump every span as ``[name, start_us, end_us, parent]``, start-relative."""
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[name, round((start - t0) * 1e6, 1), round((end - t0) * 1e6, 1), parent]
                for name, start, end, parent in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"fields": ["name", "start_us", "end_us", "parent"],
                                    "spans": rows}, separators=(",", ":")),
                        encoding="utf-8")


class SpanTree:
    """Self times, per-pass totals and per-pass counts of a finished trace."""

    def __init__(self, tracer: Tracer) -> None:
        spans = tracer.spans
        self.root = [0] * len(spans)
        child_time = [0.0] * len(spans)
        for i, (_, start, end, parent) in enumerate(spans):
            self.root[i] = i if parent < 0 else self.root[parent]
            if parent >= 0:
                child_time[parent] += end - start
        self.passes = [i for i, s in enumerate(spans) if s[3] < 0 and s[0] == PASS_SPAN]
        self.setups = [i for i, s in enumerate(spans) if s[3] < 0 and s[0] == SETUP_SPAN]
        pass_roots = set(self.passes)
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.calls_by_pass: dict[int, Counter] = defaultdict(Counter)
        self.data_ms = 0.0
        for i, (name, start, end, parent) in enumerate(spans):
            duration = end - start
            root = self.root[i]
            if root in pass_roots:
                self.inclusive[name] += duration
                self.self_time[name] += duration - child_time[i]
                self.calls[name] += 1
                self.calls_by_pass[root][name] += 1
            elif name.startswith("data.") and \
                    (parent < 0 or not spans[parent][0].startswith("data.")):
                self.data_ms += duration * 1e3
        self.nodes_by_pass: Counter = Counter(self.root[i] for i in tracer.node_spans)
        self.beam_by_pass: dict[int, list] = defaultdict(list)
        for span, *outcome in tracer.beams:
            self.beam_by_pass[self.root[span]].append(tuple(outcome))
        self.beams = [b for p in self.passes for b in self.beam_by_pass[p]]
        self.pass_time = sum(spans[i][2] - spans[i][1] for i in self.passes)
        self.n_passes = max(len(self.passes), 1)
        self.n_setups = max(len(self.setups), 1)

    def pass_counts(self) -> list[dict]:
        """Every call count, node count and beam outcome of each pass, in order."""
        return [{"calls": dict(sorted(self.calls_by_pass[p].items())),
                 "nodes": self.nodes_by_pass[p],
                 "beams": self.beam_by_pass[p]} for p in self.passes]

    def layer_metrics(self, overhead_pct: float) -> dict[str, float]:
        per_pass = 1.0 / self.n_passes
        out: dict[str, float] = {}
        for op in OPS:
            out[f"autodiff.{op}.fwd_ms"] = self.inclusive[f"autodiff.{op}.fwd"] * 1e3 * per_pass
            out[f"autodiff.{op}.bwd_ms"] = self.inclusive[f"autodiff.{op}.bwd"] * 1e3 * per_pass
            out[f"autodiff.{op}.calls"] = self.calls[f"autodiff.{op}.fwd"] * per_pass
        steps = self.calls["autodiff.backward"]
        nodes = sum(self.nodes_by_pass[p] for p in self.passes)
        out["autodiff.nodes_per_step"] = nodes / steps if steps else 0.0
        for name in ("autodiff.backward", "autodiff.adam_step"):
            out[f"{name}.ms"] = self.inclusive[name] * 1e3 * per_pass
        for name in MODEL_METHODS:
            out[f"model.{name}.ms"] = self.inclusive[f"model.{name}"] * 1e3 * per_pass
        out["model.teacher_log_probs.self_ms"] = \
            self.self_time["model.teacher_log_probs"] * 1e3 * per_pass
        out["model.decode_step.calls"] = self.calls["model.decode_step"] * per_pass
        out["decoding.beam_decode.self_ms"] = \
            self.self_time["decoding.beam_decode"] * 1e3 * per_pass
        utts = len(self.beams)
        decode_steps = self.calls["model.decode_step"]
        hyps = sum(b[1] for b in self.beams)
        truncated = sum(b[2] for b in self.beams)
        out["decoding.steps_per_utt"] = decode_steps / utts if utts else 0.0
        out["decoding.useful_step_share"] = \
            sum(b[0] for b in self.beams) / decode_steps if decode_steps else 0.0
        out["decoding.truncated_share"] = truncated / hyps if hyps else 0.0
        out["decoding.truncated_hyps"] = truncated * per_pass
        out["training.batch_nll_tensor.self_ms"] = \
            self.self_time["training.batch_nll_tensor"] * 1e3 * per_pass
        out["evaluation.teacher_forced_accuracy.ms"] = \
            self.inclusive["evaluation.teacher_forced_accuracy"] * 1e3 * per_pass
        out["evaluation.evaluate_domain.self_ms"] = \
            self.self_time["evaluation.evaluate_domain"] * 1e3 * per_pass
        out["data.prepare_ms"] = self.data_ms / self.n_setups
        out["trace.covered_share"] = \
            1.0 - self.self_time[PASS_SPAN] / self.pass_time if self.pass_time else 0.0
        out["trace.overhead_pct"] = overhead_pct
        return out
