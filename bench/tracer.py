"""Out-of-program tracing for the benchmark's traced pass.

`Tracer.install()` replaces public functions of the xmodal package, and the
module-level ops of its autodiff engine, with wrappers that record spans and
counters; `uninstall()` puts the originals back. Nothing inside the package
changes: every wrapper is set from here, on the module attribute that the
caller looks up at call time.

Layer calls (pipeline stages, training steps, backward, Adam, checkpoint and
data calls, mAP) become spans: name, start, end, parent span, workload and
cell. Autodiff ops are too many for spans (hundreds of thousands per desk
cell), so each op kind gets aggregate counters instead: calls, forward self
time and VJP self time. An op call counts as VJP work when it runs inside
`autodiff.backward` or `autodiff.grad`, the two entry points of the reverse
replay.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from collections import defaultdict

from xmodal import autodiff, checkpoint, data, generation, pipeline, projection, retrieval

# autodiff's module-level ops; the three private ones are the VJPs of
# slice_cols, slice_rows and pick_cols, which build graph nodes themselves
OPS = (
    "add", "sub", "neg", "mul", "div", "matmul", "transpose", "sum_all",
    "sum_axis", "mean_all", "pow_const", "square", "sqrt", "exp", "log",
    "relu", "leaky_relu", "sigmoid", "softmax_rows", "clip", "concat_cols",
    "slice_cols", "_embed_cols", "concat_rows", "slice_rows", "_embed_rows",
    "pick_cols", "_scatter_cols", "linear",
)


def op_label(op: str) -> str:
    return op.lstrip("_")


def _shape(x):
    return x.data.shape if isinstance(x, autodiff.Tensor) else autodiff.as_matrix(x).shape


def _is_critic(params) -> bool:
    # the critic is the only stage-1 network whose output weight has one
    # column (its scalar score), so the parameter set Adam receives names it
    return any(p.data.shape[1] == 1 and p.data.shape[0] > 1 for p in params)


class UnitStats:
    """Everything recorded during one timed unit (a grid cell or an evaluation)."""

    def __init__(self):
        self.totals = defaultdict(float)  # span name -> summed duration
        self.steps = defaultdict(list)  # step kind -> [durations]
        self.step_flop = defaultdict(float)  # step kind -> summed matmul FLOP
        self.tape_nodes = defaultdict(list)  # step kind -> [tape length at backward]
        self.counts = defaultdict(float)
        self.ops = {op: [0, 0.0, 0.0] for op in OPS}  # calls, fwd self s, vjp self s


class Tracer:
    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[list] = []
        self._open: list[int] = []
        self.cell = "setup"
        self.unit = UnitStats()
        self._saved: list[tuple] = []
        self._vjp_depth = 0
        self._op_child: list[float] = []
        self._step = None  # (span id, matmul FLOP at the start of the step)
        self._last_tape = 0

    # -- spans ---------------------------------------------------------

    def open_span(self) -> int:
        sid = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([sid, parent, None, time.perf_counter(), None, self.workload, self.cell])
        self._open.append(sid)
        return sid

    def close_span(self, sid: int, name: str) -> float:
        span = self.spans[sid]
        span[2] = name
        span[4] = time.perf_counter()
        while self._open and self._open.pop() != sid:
            pass
        dur = span[4] - span[3]
        self.unit.totals[name] += dur
        return dur

    def begin_unit(self, cell: str) -> None:
        self.cell = cell
        self.unit = UnitStats()
        self._open.clear()
        self._step = None

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf8") as f:
            for sid, parent, name, start, end, workload, cell in self.spans:
                f.write(json.dumps({
                    "id": sid, "parent": parent, "name": name, "start": start,
                    "end": end, "workload": workload, "cell": cell,
                }) + "\n")

    # -- patching --------------------------------------------------------

    def _patch(self, owner, attr, make):
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def _span_wrapper(self, name, after=None):
        def make(fn):
            def wrapper(*args, **kwargs):
                sid = self.open_span()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.close_span(sid, name)
                if after is not None:
                    after(args, result)
                return result
            return wrapper
        return make

    def install(self) -> None:
        span = self._span_wrapper

        def on_save(args, _):
            self.unit.counts["checkpoint.bytes_written"] += os.path.getsize(args[1])

        def on_load(args, _):
            self.unit.counts["checkpoint.bytes_read"] += os.path.getsize(args[0])

        def on_mean_ap(args, _):
            self.unit.counts["retrieval.queries"] += len(args[0])

        # pipeline stages, as run_cell and eval_checkpoint look them up
        self._patch(pipeline, "run_cell", span("pipeline.run_cell"))
        self._patch(pipeline, "eval_checkpoint", span("pipeline.eval_checkpoint"))
        self._patch(pipeline, "train_generation", span("pipeline.stage1"))
        self._patch(pipeline, "synthesize_target_set", span("generation.synthesize"))
        self._patch(pipeline, "train_projection", span("pipeline.stage2"))
        self._patch(retrieval, "evaluate", span("pipeline.evaluate"))
        self._patch(retrieval, "mean_ap", span("retrieval.mean_ap", on_mean_ap))
        # data layer
        self._patch(pipeline, "load_corpus", span("data.load_corpus"))
        self._patch(pipeline, "synth_corpus", span("data.synth_corpus"))
        self._patch(pipeline, "split_xshot", span("data.split"))
        for method in ("image_matrix", "text_matrix", "attr_matrix"):
            self._patch(data.Corpus, method, span("data.gather"))
        # checkpoints
        for fn in ("save_vaegan", "save_projection"):
            self._patch(checkpoint, fn, span("checkpoint.save", on_save))
        for fn in ("load_vaegan", "load_projection"):
            self._patch(checkpoint, fn, span("checkpoint.load", on_load))
        # no-grad projection forward used by evaluation
        for method in ("embed_images", "embed_texts"):
            self._patch(projection.ProjectionModel, method, span("projection.embed"))
        # training steps: a step runs from zero_grads to the end of adam_step
        for module, layer in ((generation, "generation"), (projection, "projection")):
            self._patch(module, "zero_grads", self._step_start)
            self._patch(module, "adam_step", self._step_end(layer))
        # autodiff
        self._patch(autodiff, "backward", self._backward)
        self._patch(autodiff, "grad", self._vjp_phase)
        for op in OPS:
            self._patch(autodiff, op, self._op(op))
        self._patch(autodiff.Tensor, "__init__", self._tensor_init)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- wrappers ------------------------------------------------------------

    def _step_start(self, fn):
        def zero_grads(params):
            if self._step is None:
                self._step = (self.open_span(), self.unit.counts["matmul_flop"])
            return fn(params)
        return zero_grads

    def _step_end(self, layer):
        def make(fn):
            def adam_step(params, lr, *args, **kwargs):
                sid = self.open_span()
                try:
                    fn(params, lr, *args, **kwargs)
                finally:
                    self.close_span(sid, "optim.adam")
                    self.unit.counts["optim.adam_calls"] += 1
                if self._step is not None:
                    step_sid, flop0 = self._step
                    self._step = None
                    if layer == "projection":
                        kind = "projection"
                    else:
                        kind = "critic" if _is_critic(params) else "eg"
                    dur = self.close_span(step_sid, f"{layer}.{kind}_step")
                    self.unit.steps[kind].append(dur)
                    self.unit.step_flop[kind] += self.unit.counts["matmul_flop"] - flop0
                    self.unit.tape_nodes[kind].append(self._last_tape)
            return adam_step
        return make

    def _backward(self, fn):
        def backward(loss):
            self._last_tape = len(autodiff.active_tape())
            sid = self.open_span()
            self._vjp_depth += 1
            try:
                return fn(loss)
            finally:
                self._vjp_depth -= 1
                self.close_span(sid, "autodiff.backward")
        return backward

    def _vjp_phase(self, fn):
        def grad(*args, **kwargs):
            self._vjp_depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._vjp_depth -= 1
        return grad

    def _op(self, op):
        pc = time.perf_counter
        children = self._op_child

        def make(fn):
            def wrapper(*args, **kwargs):
                if op == "matmul":
                    (m, k), (_, n) = _shape(args[0]), _shape(args[1])
                    self.unit.counts["matmul_flop"] += 2.0 * m * k * n
                children.append(0.0)
                t0 = pc()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = pc() - t0
                    own = dur - children.pop()
                    if children:
                        children[-1] += dur
                    stats = self.unit.ops[op]
                    stats[0] += 1
                    stats[2 if self._vjp_depth else 1] += own
            return wrapper
        return make

    def _tensor_init(self, fn):
        def __init__(tensor, *args, **kwargs):
            self.unit.counts["tensors"] += 1
            fn(tensor, *args, **kwargs)
        return __init__


def _median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(units: list[tuple[float, UnitStats]], synth_s: list[float]) -> dict[str, float]:
    """Per-layer metrics from the traced units: (unit wall seconds, stats) pairs.

    Sums are per unit (mean over the units); step times are medians over all
    steps of the pass; counts of repeated work are exact per-unit means.
    """
    n = len(units)

    def per_unit(get):
        return sum(get(w, s) for w, s in units) / n

    def total(name):
        return per_unit(lambda w, s: s.totals.get(name, 0.0))

    def steps(kind):
        return [d for _, s in units for d in s.steps.get(kind, [])]

    def tape(kind):
        return [t for _, s in units for t in s.tape_nodes.get(kind, [])]

    wall = per_unit(lambda w, s: w)
    stage1, stage2, evaluate = total("pipeline.stage1"), total("pipeline.stage2"), total("pipeline.evaluate")
    critic_sum = sum(steps("critic")) / n
    eg_sum = sum(steps("eg")) / n
    eg_steps = len(steps("eg"))
    stage1_flop = sum(s.step_flop["critic"] + s.step_flop["eg"] for _, s in units)
    matmul_time = per_unit(lambda w, s: s.ops["matmul"][1] + s.ops["matmul"][2])
    matmul_flop = per_unit(lambda w, s: s.counts["matmul_flop"])
    queries = per_unit(lambda w, s: s.counts["retrieval.queries"])
    mean_ap_s = total("retrieval.mean_ap")

    out = {
        "pipeline.stage1_s": stage1,
        "pipeline.stage2_s": stage2,
        "pipeline.evaluate_s": evaluate,
        "pipeline.other_s": wall - stage1 - stage2 - evaluate,
        "generation.critic_step_s": _median(steps("critic")),
        "generation.eg_step_s": _median(steps("eg")),
        "generation.probe_s": stage1 - critic_sum - eg_sum if stage1 else 0.0,
        "generation.critic_share": critic_sum / stage1 if stage1 else 0.0,
        "generation.synthesize_s": total("generation.synthesize"),
        "autodiff.tape_nodes.critic_step": _median(tape("critic")),
        "autodiff.tape_nodes.eg_step": _median(tape("eg")),
        "autodiff.tensors": per_unit(lambda w, s: s.counts["tensors"]),
        "autodiff.matmul_gflop": matmul_flop / 1e9,
        "autodiff.stage1_batch_gflop": stage1_flop / eg_steps / 1e9 if eg_steps else 0.0,
        "autodiff.matmul_gflops": matmul_flop / matmul_time / 1e9 if matmul_time else 0.0,
        "autodiff.backward_s": total("autodiff.backward"),
        "optim.adam_s": total("optim.adam"),
        "optim.adam_calls": per_unit(lambda w, s: s.counts["optim.adam_calls"]),
        "projection.step_s": _median(steps("projection")),
        "projection.embed_s": total("projection.embed"),
        "retrieval.mean_ap_s": mean_ap_s,
        "retrieval.queries": queries,
        "retrieval.us_per_query": mean_ap_s / queries * 1e6 if queries else 0.0,
        "data.load_corpus_s": total("data.load_corpus"),
        "data.gather_s": total("data.gather"),
        "data.split_s": total("data.split"),
        "data.synth_corpus_s": _median(synth_s),
        "checkpoint.save_s": total("checkpoint.save"),
        "checkpoint.load_s": total("checkpoint.load"),
        "checkpoint.bytes_written": per_unit(lambda w, s: s.counts["checkpoint.bytes_written"]),
        "checkpoint.bytes_read": per_unit(lambda w, s: s.counts["checkpoint.bytes_read"]),
    }
    for op in OPS:
        label = op_label(op)
        out[f"autodiff.op.{label}.calls"] = per_unit(lambda w, s: s.ops[op][0])
        out[f"autodiff.op.{label}.fwd_s"] = per_unit(lambda w, s: s.ops[op][1])
        out[f"autodiff.op.{label}.vjp_s"] = per_unit(lambda w, s: s.ops[op][2])
    return out
