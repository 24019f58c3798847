"""Trajectory-aligned visuomotor policy.

Three stages trained end-to-end:
  encoder    per-block linear projections of the observation tokens into the
             model width, concatenated (language, visual, depth);
  predictor  H learnable queries refined by pre-norm transformer blocks
             (RoPE self-attention over the queries, cross-attention onto the
             encoded tokens, GELU feed-forward), with a shared linear head
             emitting one geometric target row per horizon step;
  decoder    H action queries of the same block structure cross-attending to
             [conditioning stream, state embedding], with a 7-wide head
             (translation, rotation, gripper through a logistic squash).

Variant wiring: the richer supervision targets condition the decoder on the
predictor's hidden states; the no-trajectory and auxiliary-trajectory
variants condition it on the encoded tokens instead (the auxiliary branch
still exists and is trained by the trajectory loss, but its hidden states
never reach the decoder).

Everything runs in the numpy autodiff core; inference uses the same code
path without a tape.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import simworld as sw
from . import tensornet as tn
from .datasets import SupervisionVariant, make_supervision

POLICY_CFG_SCHEMA = "policy_cfg_v1"


class PolicyConfigError(ValueError):
    pass


@dataclass
class PolicyConfig:
    token_dim: int
    d_model: int = 64
    predictor_blocks: int = 2
    decoder_blocks: int = 1
    heads: int = 4
    horizon: int = 8
    lam: float = 0.1
    ffn_factor: int = 4
    seed: int = 0
    variant: SupervisionVariant = field(default_factory=SupervisionVariant)

    def __post_init__(self):
        if self.d_model % self.heads != 0:
            raise PolicyConfigError(f"d_model {self.d_model} not divisible by heads {self.heads}")
        if self.horizon < 1:
            raise PolicyConfigError("horizon must be >= 1")
        if self.lam < 0:
            raise PolicyConfigError("lam must be >= 0")

    @classmethod
    def paper_scale(cls, token_dim: int, **overrides) -> "PolicyConfig":
        """Full-scale reference configuration (selectable, not used in tests)."""
        args = dict(d_model=896, predictor_blocks=4, decoder_blocks=2, heads=8, horizon=8)
        args.update(overrides)
        return cls(token_dim=token_dim, **args)

    def to_json(self) -> dict:
        return {
            "schema": POLICY_CFG_SCHEMA,
            "token_dim": self.token_dim,
            "d_model": self.d_model,
            "predictor_blocks": self.predictor_blocks,
            "decoder_blocks": self.decoder_blocks,
            "heads": self.heads,
            "horizon": self.horizon,
            "lam": self.lam,
            "ffn_factor": self.ffn_factor,
            "seed": self.seed,
            "variant": {
                "target": self.variant.target,
                "rotation_param": self.variant.rotation_param,
                "depth_mode": self.variant.depth_mode,
            },
        }

    @classmethod
    def from_json(cls, doc: dict) -> "PolicyConfig":
        if doc.get("schema") != POLICY_CFG_SCHEMA:
            raise PolicyConfigError(f"expected schema {POLICY_CFG_SCHEMA!r}, got {doc.get('schema')!r}")
        v = doc["variant"]
        return cls(
            token_dim=doc["token_dim"],
            d_model=doc["d_model"],
            predictor_blocks=doc["predictor_blocks"],
            decoder_blocks=doc["decoder_blocks"],
            heads=doc["heads"],
            horizon=doc["horizon"],
            lam=doc["lam"],
            ffn_factor=doc.get("ffn_factor", 4),
            seed=doc.get("seed", 0),
            variant=SupervisionVariant(v["target"], v["rotation_param"], v["depth_mode"]),
        )

    def config_hash(self) -> str:
        import hashlib

        blob = json.dumps(self.to_json(), sort_keys=True, separators=(",", ":")).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


@dataclass
class PolicyOutput:
    """One inference step: the action chunk plus predictor readouts."""

    chunk: np.ndarray  # (H, 7): dp, dtheta, gripper in [0, 1]
    tau: np.ndarray | None  # (H, target_dim) predicted trajectory, if any
    chart_violations: int  # axis-angle rows at or past the chart boundary


class Policy:
    """Encoder + (optional) trajectory predictor + action decoder."""

    def __init__(self, cfg: PolicyConfig):
        self.cfg = cfg
        self.params = tn.ParamSet(cfg.seed)
        d, dt = cfg.d_model, cfg.token_dim
        p = self.params

        p.linear_weight("enc.lang.w", dt, d)
        p.zeros("enc.lang.b", (d,))
        p.linear_weight("enc.vis.w", dt, d)
        p.zeros("enc.vis.b", (d,))
        if cfg.variant.depth_mode != "none":
            p.linear_weight("enc.dep.w", dt, d)
            p.zeros("enc.dep.b", (d,))

        if cfg.variant.uses_predictor:
            p.query_normal("pred.q", (cfg.horizon, d))
            for i in range(cfg.predictor_blocks):
                self._block_params(f"pred.b{i}", d)
            p.ones("pred.lnf.g", (d,))
            p.zeros("pred.lnf.b", (d,))
            p.linear_weight("pred.head.w", d, cfg.variant.target_dim)
            p.zeros("pred.head.b", (cfg.variant.target_dim,))

        p.linear_weight("state.w", 7, d)
        p.zeros("state.b", (d,))
        p.query_normal("dec.q", (cfg.horizon, d))
        for i in range(cfg.decoder_blocks):
            self._block_params(f"dec.b{i}", d)
        p.ones("dec.lnf.g", (d,))
        p.zeros("dec.lnf.b", (d,))
        p.linear_weight("dec.head.w", d, 7)
        p.zeros("dec.head.b", (7,))

        self._positions = np.arange(1, cfg.horizon + 1, dtype=float)

    def _block_params(self, prefix: str, d: int):
        p = self.params
        for ln in ["ln1", "ln2", "lnkv", "ln3"]:
            p.ones(f"{prefix}.{ln}.g", (d,))
            p.zeros(f"{prefix}.{ln}.b", (d,))
        for attn in ["self", "cross"]:
            for w in ["wq", "wk", "wv", "wo"]:
                p.linear_weight(f"{prefix}.{attn}.{w}", d, d)
            # Without RoPE a key bias adds one constant to all of a query's scores, which softmax ignores.
            for b in ["bq", "bk", "bv", "bo"] if attn == "self" else ["bq", "bv", "bo"]:
                p.zeros(f"{prefix}.{attn}.{b}", (d,))
        hidden = self.cfg.ffn_factor * d
        p.linear_weight(f"{prefix}.ffn.w1", d, hidden)
        p.zeros(f"{prefix}.ffn.b1", (hidden,))
        p.linear_weight(f"{prefix}.ffn.w2", hidden, d)
        p.zeros(f"{prefix}.ffn.b2", (d,))

    # --- forward pieces ---

    def _ln(self, x, name):
        return tn.add(tn.mul(tn.layer_norm(x), self.params[f"{name}.g"]), self.params[f"{name}.b"])

    def _attn(self, prefix, q_in, kv_in, positions=None):
        p = self.params
        return tn.multi_head_attention(
            q_in,
            kv_in,
            self.cfg.heads,
            p[f"{prefix}.wq"],
            p[f"{prefix}.wk"],
            p[f"{prefix}.wv"],
            p[f"{prefix}.wo"],
            p[f"{prefix}.bq"],
            p[f"{prefix}.bk"] if positions is not None else None,
            p[f"{prefix}.bv"],
            p[f"{prefix}.bo"],
            positions=positions,
        )

    def _block(self, prefix, x, kv):
        normed = self._ln(x, f"{prefix}.ln1")
        x = tn.add(x, self._attn(f"{prefix}.self", normed, normed, positions=self._positions))
        x = tn.add(
            x,
            self._attn(f"{prefix}.cross", self._ln(x, f"{prefix}.ln2"), self._ln(kv, f"{prefix}.lnkv")),
        )
        h = tn.linear(self._ln(x, f"{prefix}.ln3"), self.params[f"{prefix}.ffn.w1"], self.params[f"{prefix}.ffn.b1"])
        h = tn.linear(tn.gelu(h), self.params[f"{prefix}.ffn.w2"], self.params[f"{prefix}.ffn.b2"])
        return tn.add(x, h)

    def encode(self, lang, visual, depth) -> tn.Tensor:
        """Project token blocks to the model width; concatenation order is
        (language, visual, depth).

        `depth` is always the metric block. The variant's depth mode decides
        what is encoded: the block as is (metric), its per-frame min-max
        normalization (relative), or nothing (none).
        """
        p = self.params
        blocks = [
            tn.linear(tn.as_tensor(lang), p["enc.lang.w"], p["enc.lang.b"]),
            tn.linear(tn.as_tensor(visual), p["enc.vis.w"], p["enc.vis.b"]),
        ]
        mode = self.cfg.variant.depth_mode
        if mode != "none":
            if mode == "relative":
                depth = sw.relative_depth(depth)
            blocks.append(tn.linear(tn.as_tensor(depth), p["enc.dep.w"], p["enc.dep.b"]))
        return tn.concat(blocks, axis=-2)

    def encode_features(self, features: sw.ObservationFeatures) -> tn.Tensor:
        return self.encode(features.lang, features.visual, features.depth)

    def predict_trajectory(self, h3d: tn.Tensor):
        """Refine the trajectory queries against the encoded tokens.

        Returns (h_traj, tau); tau is recomputable as the linear head applied
        to h_traj. Skipped entirely (returns None) for the no-trajectory
        variant.
        """
        if not self.cfg.variant.uses_predictor:
            return None
        x = self.params["pred.q"]
        for i in range(self.cfg.predictor_blocks):
            x = self._block(f"pred.b{i}", x, h3d)
        h_traj = self._ln(x, "pred.lnf")
        tau = self.trajectory_head(h_traj)
        return h_traj, tau

    def trajectory_head(self, h_traj) -> tn.Tensor:
        tau = tn.linear(tn.as_tensor(h_traj), self.params["pred.head.w"], self.params["pred.head.b"])
        if self.cfg.variant.rotation_param == "quaternion" and self.cfg.variant.target_dim == 7:
            pos = tn.narrow(tau, -1, 0, 3)
            quat = tn.normalize_rows(tn.narrow(tau, -1, 3, 4))
            tau = tn.concat([pos, quat], axis=-1)
        return tau

    def decode_actions(self, conditioning: tn.Tensor, state_vec) -> tn.Tensor:
        """Action chunk from the conditioning stream and the raw 7-d state."""
        state = tn.as_tensor(state_vec)
        h_state = tn.linear(state, self.params["state.w"], self.params["state.b"])
        h_ctx = tn.concat([conditioning, h_state], axis=-2)
        x = self.params["dec.q"]
        for i in range(self.cfg.decoder_blocks):
            x = self._block(f"dec.b{i}", x, h_ctx)
        x = self._ln(x, "dec.lnf")
        out = tn.linear(x, self.params["dec.head.w"], self.params["dec.head.b"])
        rigid = tn.narrow(out, -1, 0, 6)
        grip = tn.sigmoid(tn.narrow(out, -1, 6, 1))
        return tn.concat([rigid, grip], axis=-1)

    # --- training/inference entry points ---

    def forward(self, lang, visual, depth, state_vec):
        """Full pass; returns dict with h3d, h_traj, tau, chunk tensors."""
        h3d = self.encode(lang, visual, depth)
        pred = self.predict_trajectory(h3d)
        h_traj, tau = pred if pred is not None else (None, None)
        conditioning = h_traj if self.cfg.variant.decoder_sees_trajectory else h3d
        chunk = self.decode_actions(conditioning, state_vec)
        return {"h3d": h3d, "h_traj": h_traj, "tau": tau, "chunk": chunk}

    def loss(self, batch):
        """(total, traj, act) for a collated batch, total = lam * traj + act.

        traj and act are the l1 losses of tau and of the action chunk against
        their targets (raw meters and radians); traj is 0 without a predictor.
        """
        out = self.forward(batch["lang"], batch["visual"], batch["depth"], batch["state"])
        if out["tau"] is None:
            traj = tn.Tensor(np.asarray(0.0))
        else:
            traj = tn.l1_loss(out["tau"], tn.Tensor(batch["traj_targets"]))
        act = tn.l1_loss(out["chunk"], tn.Tensor(batch["action_targets"]))
        return tn.add(tn.scale(traj, self.cfg.lam), act), traj, act

    def act(self, features: sw.ObservationFeatures, state_vec) -> PolicyOutput:
        """Inference (no tape): one action chunk for the current observation."""
        out = self.forward(
            features.lang, features.visual, features.depth,
            np.asarray(state_vec, dtype=float).reshape(1, 7),
        )
        tau = None if out["tau"] is None else out["tau"].data.copy()
        violations = 0
        if tau is not None and self.cfg.variant.rotation_param == "axis_angle" and self.cfg.variant.target_dim == 6:
            violations = int(np.sum(np.linalg.norm(tau[:, 3:6], axis=1) >= math.pi))
        return PolicyOutput(chunk=out["chunk"].data.copy(), tau=tau, chart_violations=violations)


def build_variant(cfg: PolicyConfig) -> Policy:
    """Wire a policy for the configured supervision variant."""
    return Policy(cfg)


def param_loss_fn(policy: Policy, batch, names=None):
    """Adapter for finite-difference checks over policy parameters.

    Returns (fn, x0, names) where fn maps a list of Tensors (one per named
    parameter) to the total loss with those values bound.
    """
    names = list(names or policy.params.names())

    def fn(tensors):
        saved = [policy.params.swap(n, t) for n, t in zip(names, tensors)]
        try:
            total, _, _ = policy.loss(batch)
        finally:
            for n, s in zip(names, saved):
                policy.params.swap(n, s)
        return total

    x0 = [policy.params[n].data.copy() for n in names]
    return fn, x0, names


def collate(windows, variant: SupervisionVariant, cam: sw.CameraModel, scene: sw.SceneSpec):
    """Stack training windows into batched arrays for Policy.loss.

    Depth stays metric for every variant (Policy.encode re-expresses it), so
    `scene` is unused; it stays in the signature because callers, the
    benchmark among them, pass all four arguments positionally. Trajectory
    targets are synthesized per variant.
    """
    lang, visual, depth, states, traj_t, act_t = [], [], [], [], [], []
    for w in windows:
        lang.append(w.features.lang)
        visual.append(w.features.visual)
        depth.append(w.features.depth)
        states.append(w.state_vec.reshape(1, 7))
        traj_t.append(make_supervision(w, variant, cam))
        act_t.append(w.target_actions)
    return {
        "lang": np.stack(lang),
        "visual": np.stack(visual),
        "depth": np.stack(depth),
        "state": np.stack(states),
        "traj_targets": np.stack(traj_t),
        "action_targets": np.stack(act_t),
    }
