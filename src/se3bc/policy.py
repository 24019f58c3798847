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
path without a tape. The policy computes in its parameters' dtype (float32
from ParamSet): it casts every array it receives (features, state, loss
targets, hidden-state noise) to that dtype, and `act` returns float64, so
callers see float64 only.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from . import simworld as sw
from . import tensornet as tn
from .datasets import DatasetError, SupervisionVariant, pose_targets

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

    def to_json(self) -> dict:
        return {"schema": POLICY_CFG_SCHEMA, **asdict(self)}

    def config_hash(self) -> str:
        import hashlib

        blob = json.dumps(self.to_json(), sort_keys=True, separators=(",", ":")).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


@dataclass
class PolicyOutput:
    """One inference step: the action chunk plus predictor readouts."""

    chunk: np.ndarray  # (H, 7) float64: dp, dtheta, gripper in [0, 1]
    tau: np.ndarray | None  # (H, target_dim) float64 predicted trajectory, if any


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

    def _input(self, x) -> tn.Tensor:
        """An array the policy receives, as an untracked tensor of its parameters' dtype."""
        return tn.Tensor(np.asarray(x, dtype=self.params["dec.head.w"].data.dtype))

    def _ln(self, x, name):
        return tn.layer_norm(x, self.params[f"{name}.g"], self.params[f"{name}.b"])

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
            tn.linear(self._input(lang), p["enc.lang.w"], p["enc.lang.b"]),
            tn.linear(self._input(visual), p["enc.vis.w"], p["enc.vis.b"]),
        ]
        mode = self.cfg.variant.depth_mode
        if mode != "none":
            if mode == "relative":
                depth = sw.relative_depth(depth)
            blocks.append(tn.linear(self._input(depth), p["enc.dep.w"], p["enc.dep.b"]))
        return tn.concat(blocks, axis=-2)

    def encode_features(self, features: sw.ObservationFeatures) -> tn.Tensor:
        return self.encode(features.lang, features.visual, features.depth)

    def predict_trajectory(self, h3d: tn.Tensor, h_noise=None):
        """Refine the trajectory queries against the encoded tokens.

        Returns (h_traj, tau); tau is recomputable as the linear head applied
        to h_traj. An (H, d_model) h_noise array is added to h_traj before
        the head reads it (the perturbed protocol). Skipped entirely (returns
        None) for the no-trajectory variant.
        """
        if not self.cfg.variant.uses_predictor:
            return None
        x = self.params["pred.q"]
        for i in range(self.cfg.predictor_blocks):
            x = self._block(f"pred.b{i}", x, h3d)
        h_traj = self._ln(x, "pred.lnf")
        if h_noise is not None:
            h_traj = tn.add(h_traj, self._input(h_noise))
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
        state = self._input(state_vec)
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

    def forward(self, lang, visual, depth, state_vec, h_noise=None):
        """Full pass; returns dict with h3d, h_traj, tau, chunk tensors.

        h_noise is predict_trajectory's: the decoder then conditions on the
        noisy h_traj when its variant reads h_traj.
        """
        h3d = self.encode(lang, visual, depth)
        pred = self.predict_trajectory(h3d, h_noise)
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
            traj = self._input(0.0)
        else:
            traj = tn.l1_loss(out["tau"], self._input(batch["traj_targets"]))
        act = tn.l1_loss(out["chunk"], self._input(batch["action_targets"]))
        return tn.add(tn.scale(traj, self.cfg.lam), act), traj, act

    def act(self, features: sw.ObservationFeatures, state_vec, h_noise=None) -> PolicyOutput:
        """Inference (no tape): one action chunk for the current observation,
        as float64 arrays. h_noise is predict_trajectory's."""
        out = self.forward(features.lang, features.visual, features.depth,
                           np.reshape(state_vec, (1, 7)), h_noise)
        tau = None if out["tau"] is None else out["tau"].data.astype(np.float64)
        return PolicyOutput(chunk=out["chunk"].data.astype(np.float64), tau=tau)


def build_variant(cfg: PolicyConfig) -> Policy:
    """Wire a policy for the configured supervision variant."""
    return Policy(cfg)


def collate(windows, variant: SupervisionVariant, cam: sw.CameraModel, scene: sw.SceneSpec):
    """Stack training windows into batched arrays for Policy.loss.

    Depth stays metric for every variant (Policy.encode re-expresses it), so
    `scene` is unused; it stays in the signature because callers, the
    benchmark among them, pass all four arguments positionally. Trajectory
    targets are synthesized per variant.
    """
    return {
        "lang": np.stack([w.features.lang for w in windows]),
        "visual": np.stack([w.features.visual for w in windows]),
        "depth": np.stack([w.features.depth for w in windows]),
        "state": np.stack([w.state_vec.reshape(1, 7) for w in windows]),
        "traj_targets": _traj_targets(windows, variant, cam),
        "action_targets": np.stack([w.target_actions for w in windows]),
    }


def _traj_targets(windows, variant: SupervisionVariant, cam: sw.CameraModel) -> np.ndarray:
    """pose_targets of each window's poses, stacked, converting each distinct
    pose row once: overlapping windows share most of their rows."""
    poses = np.concatenate([w.target_poses_cam for w in windows], dtype=np.float64)
    rows = {}  # row bytes -> row of `table`, in first-seen order
    index = [rows.setdefault(row.tobytes(), len(rows)) for row in poses]
    try:
        table = pose_targets(np.frombuffer(b"".join(rows)).reshape(-1, 6), variant, cam)
    except DatasetError:
        for w in windows:  # raise as the first failing window does, naming its step
            pose_targets(w.target_poses_cam, variant, cam)
        raise
    return table[index].reshape(len(windows), len(poses) // len(windows), variant.target_dim)
