"""Per-layer metrics of se3bc, derived from one traced run.

`LayerProbe` owns a `Tracer` configured for se3bc: the scopes that say which
entry point a span runs under, the hooks that read counts off arguments and
return values, and the arithmetic that turns aggregates into the per-layer
metrics named in BENCHMARK.json.

Normalisation. tensornet and policy-stage metrics are per *pass*: per
training step when the run trains (spans inside `harness.train`), otherwise
per inference `Policy.forward` call. simworld and geometry metrics are per
executed env step: the summed `episode_lengths` of every rollout and
closed-form report, plus the simulator steps taken while recording demos.
A metric whose layer the run never reaches reads 0.
"""

from __future__ import annotations

import statistics

from tracer import Tracer, percentile

# The op names the desk policy's training step records on the tape.
TAPE_OPS = (
    "matmul", "add", "mul", "scale", "narrow", "concat", "transpose_last",
    "rope", "softmax", "layer_norm", "gelu", "sigmoid", "l1_loss",
)
# Every tensornet function that records one tape node per call.
PRIMITIVES = TAPE_OPS + ("sub", "relu", "normalize_rows", "sum_all")
STAGES = ("encode", "predict_trajectory", "decode_actions")

TRAIN = "train"
INFER_SCOPES = ("rollout", "closed_form")
ENV_SCOPES = ("record", "rollout", "closed_form")
SIM_SPANS = {
    "step": "simworld.Simulator.step",
    "featurize": "simworld.featurize",
    "expert_action": "simworld.ScriptedExpert.action",
}
NS_PER_MS = 1e6
NS_PER_US = 1e3


class LayerProbe:
    """A se3bc-configured `Tracer` (`.tracer`) plus the counts its hooks keep."""

    def __init__(self, clock=None):
        hooks = {
            "tensornet.backward": self._on_backward,
            "tensornet.adamw_step": self._on_adamw,
            "policy.Policy.loss": self._on_loss,
            "policy.Policy.forward": self._on_forward,
            "policy.collate": self._on_collate,
            "harness.train": self._on_train,
            "harness.rollout": self._on_report,
            "harness.closed_form_baseline": self._on_report,
            "datasets.record_demonstrations": self._on_record,
        }
        for stage in STAGES:
            hooks[f"policy.Policy.{stage}"] = self._stage_hook(stage)
        scopes = {
            "harness.train": TRAIN,
            "harness.rollout": "rollout",
            "harness.closed_form_baseline": "closed_form",
            "datasets.record_demonstrations": "record",
            "harness.run_study": "study",
        }
        samples = ["policy.Policy.act", *SIM_SPANS.values()]
        kwargs = {} if clock is None else {"clock": clock}
        self.tracer = Tracer(before={"tensornet.backward": self._time_vjps}, hooks=hooks,
                             samples=samples, scopes=scopes, **kwargs)

        self.tape_nodes = []
        self.bwd_op_ns = {}
        self.bwd_stage_ns = {s: 0 for s in STAGES}
        self._stage_end = {}  # stage -> last tape node id of its output, this step
        self.infer_rows = 0
        self.infer_calls = 0
        self.windows = 0
        self.env_steps = {"rollout": 0, "closed_form": 0}
        self.demos = 0
        self.discarded = 0
        self.step_ms = []
        self.wait_ms = []
        self._last_return = None
        self._covered_ns = 0

    # --- hooks ---

    def _stage_hook(self, stage):
        def hook(args, kwargs, result, dur):
            outs = result if isinstance(result, tuple) else (result,)
            ids = [t.node_id for t in outs if t is not None and t.node_id is not None]
            if ids:
                self._stage_end[stage] = max(ids)

        return hook

    def _on_backward(self, args, kwargs, result, dur):
        self._covered_ns += dur

    def _time_vjps(self, args, kwargs):
        """Wrap each node's vjp so backward time is charged per op and stage."""
        tape = args[0] if args else kwargs["tape"]
        self.tape_nodes.append(len(tape.nodes))
        ends = [(self._stage_end.get(s, -1), s) for s in STAGES]
        self._stage_end = {}
        clock = self.tracer.clock
        for node in tape.nodes:
            if node.vjp is None:
                continue
            stage = None
            lo = -1
            for end, s in ends:
                if lo < node.node_id <= end:
                    stage = s
                lo = max(lo, end)

            def timed(g, _vjp=node.vjp, _op=node.op, _stage=stage):
                t0 = clock()
                out = _vjp(g)
                dt = clock() - t0
                self.bwd_op_ns[_op] = self.bwd_op_ns.get(_op, 0) + dt
                if _stage is not None:
                    self.bwd_stage_ns[_stage] += dt
                return out

            node.vjp = timed

    def _on_loss(self, args, kwargs, result, dur):
        if self.tracer.scope == TRAIN:
            self._covered_ns += dur

    def _on_adamw(self, args, kwargs, result, dur):
        now = self.tracer.clock()
        self._covered_ns += dur
        if self._last_return is not None:
            interval = now - self._last_return
            self.step_ms.append(interval / NS_PER_MS)
            self.wait_ms.append((interval - self._covered_ns) / NS_PER_MS)
        self._last_return = now
        self._covered_ns = 0

    def _on_train(self, args, kwargs, result, dur):
        self._last_return = None
        self._covered_ns = 0

    def _on_forward(self, args, kwargs, result, dur):
        if self.tracer.scope == TRAIN:
            return
        chunk = result["chunk"].data
        self.infer_calls += 1
        self.infer_rows += 1 if chunk.ndim == 2 else chunk.shape[0]

    def _on_collate(self, args, kwargs, result, dur):
        self.windows += len(args[0])

    def _on_report(self, args, kwargs, result, dur):
        self.env_steps[self.tracer.scope] += sum(result.episode_lengths)

    def _on_record(self, args, kwargs, result, dur):
        self.demos += len(result.demos)
        self.discarded += result.n_discarded

    # --- metrics ---

    def metrics(self) -> dict:
        t = self.tracer
        train_steps = t.get("tensornet.adamw_step", [TRAIN]).calls
        if train_steps:
            pass_scopes, passes = [TRAIN], train_steps
            pass_ns = t.get("policy.Policy.loss", [TRAIN]).total_ns
        else:
            pass_scopes, passes = list(INFER_SCOPES), self.infer_calls
            pass_ns = t.get("policy.Policy.forward", INFER_SCOPES).total_ns
        out = {}

        for op in TAPE_OPS:
            st = t.get(f"tensornet.{op}", pass_scopes)
            out[f"tensornet.fwd.{op}.calls"] = _div(st.calls, passes)
            out[f"tensornet.fwd.{op}.self_ms"] = _div(st.self_ns, passes) / NS_PER_MS
            out[f"tensornet.bwd.{op}.ms"] = _div(self.bwd_op_ns.get(op, 0), passes) / NS_PER_MS
        op_calls = sum(t.get(f"tensornet.{op}", pass_scopes).calls for op in PRIMITIVES)
        out["tensornet.tape_nodes"] = _mean(self.tape_nodes)
        out["tensornet.fwd.us_per_op"] = _div(pass_ns, op_calls) / NS_PER_US
        for name in ("backward", "adamw_step"):
            total = t.get(f"tensornet.{name}", pass_scopes).total_ns
            out[f"tensornet.{name}.ms"] = _div(total, passes) / NS_PER_MS

        for stage in STAGES:
            st = t.get(f"policy.Policy.{stage}", pass_scopes)
            out[f"policy.{stage}.fwd_ms"] = _div(st.total_ns, passes) / NS_PER_MS
            out[f"policy.{stage}.bwd_ms"] = _div(self.bwd_stage_ns[stage], passes) / NS_PER_MS
        acts = t.samples["policy.Policy.act"]
        out["policy.act.ms_p50"] = _pct(acts, 50) / NS_PER_MS
        out["policy.act.ms_p90"] = _pct(acts, 90) / NS_PER_MS
        out["policy.infer.rows_per_call"] = _div(self.infer_rows, self.infer_calls)
        out["policy.collate.ms_per_window"] = (
            _div(t.get("policy.collate").total_ns, self.windows) / NS_PER_MS
        )

        record_steps = t.get("simworld.Simulator.step", ["record"]).calls
        env_steps = record_steps + sum(self.env_steps.values())
        for short, span in SIM_SPANS.items():
            out[f"simworld.{short}.us_p50"] = _pct(t.samples[span], 50) / NS_PER_US
            out[f"simworld.{short}.calls_per_env_step"] = _div(t.get(span, ENV_SCOPES).calls,
                                                               env_steps)
        geo = [st for (scope, name), st in t.stats.items()
               if scope in ENV_SCOPES and name.startswith("geometry.")]
        out["geometry.self_ms_per_env_step"] = (
            _div(sum(st.self_ns for st in geo), env_steps) / NS_PER_MS
        )
        out["geometry.calls_per_env_step"] = _div(sum(st.calls for st in geo), env_steps)

        record_ns = t.get("datasets.record_demonstrations").total_ns
        out["datasets.record.us_per_env_step"] = _div(record_ns, record_steps) / NS_PER_US
        out["datasets.record.discard_ratio"] = _div(self.discarded, self.demos + self.discarded)

        out["harness.train.step_ms_p50"] = _pct(self.step_ms, 50)
        out["harness.train.step_ms_p90"] = _pct(self.step_ms, 90)
        out["harness.train.data_wait_ms"] = _mean(self.wait_ms)
        for short, span in (("rollout", "harness.rollout"),
                            ("closed_form", "harness.closed_form_baseline")):
            out[f"harness.{short}.driver_self_ms_per_env_step"] = (
                _div(t.get(span).self_ns, self.env_steps[short]) / NS_PER_MS
            )

        study_ns = t.get("harness.run_study").total_ns
        collate_in_train = t.get("policy.collate", [TRAIN]).total_ns
        stages = {
            "record": record_ns,
            "collate": collate_in_train,
            "train": t.get("harness.train", [TRAIN]).total_ns - collate_in_train,
            "eval": t.get("harness.rollout").total_ns
            + t.get("harness.closed_form_baseline").total_ns,
        }
        for stage, ns in stages.items():
            out[f"harness.study.stage_share.{stage}"] = _div(ns, study_ns)
        return out


def _div(a, b) -> float:
    """a / b, or 0 when the denominator never happened."""
    return a / b if b else 0.0


def _mean(values) -> float:
    return float(statistics.fmean(values)) if values else 0.0


def _pct(values, q) -> float:
    return percentile(values, q) if values else 0.0
