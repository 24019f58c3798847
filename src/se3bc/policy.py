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
path without a tape. Inference is batched: `act` takes B observations (an
evaluation passes one per live episode, a caller with one observation a
batch of one) and returns one row per observation, equal to what a batch of
that observation alone returns. The policy computes in its parameters' dtype
(float32 from ParamSet): it casts every array it receives (features, state,
loss targets, hidden-state noise) to that dtype, and `act` returns float64,
so callers see float64 only.

An evaluation holds the policy frozen (`Policy.frozen`). Block 0 of each
query stack reads the stack's H queries and no observation, up to its
cross-attention: its self-attention sublayer with RoPE, the residual add and
ln2, whose output is the cross-attention's query input. Inside the scope the
first untaped call computes that prefix once per stack, and every later call
reuses it, with the same bits.
"""

from __future__ import annotations

import contextlib
import json
from dataclasses import asdict, dataclass, field

import numpy as np

from . import simworld as sw
from . import tensornet as tn
from .datasets import HORIZON_DEFAULT, DatasetError, SupervisionVariant, pose_targets

POLICY_CFG_SCHEMA = "policy_cfg_v2"

# The architecture, read when a Policy is built and when it runs; a test that
# needs a tiny policy patches them.
D_MODEL = 64  # model width
HEADS = 4  # attention heads per block
PREDICTOR_BLOCKS = 2
DECODER_BLOCKS = 1
FFN_FACTOR = 4  # feed-forward hidden width, in multiples of D_MODEL


class PolicyConfigError(ValueError):
    pass


@dataclass
class PolicyConfig:
    token_dim: int
    horizon: int = HORIZON_DEFAULT
    lam: float = 0.1
    seed: int = 0
    variant: SupervisionVariant = field(default_factory=SupervisionVariant)

    def __post_init__(self):
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
    """One batched inference step: an action chunk plus predictor readouts per
    observation, row b answering observation b."""

    chunk: np.ndarray  # (B, H, 7) float64: dp, dtheta, gripper in [0, 1]
    tau: np.ndarray | None  # (B, H, target_dim) float64 predicted trajectory, if any


class Policy:
    """Encoder + (optional) trajectory predictor + action decoder."""

    def __init__(self, cfg: PolicyConfig):
        self.cfg = cfg
        self.params = p = tn.ParamSet(cfg.seed)
        for tokens in ["lang", "vis"] + (["dep"] if cfg.variant.depth_mode != "none" else []):
            p.linear_weight(f"enc.{tokens}.w", cfg.token_dim, D_MODEL)
            p.zeros(f"enc.{tokens}.b", (D_MODEL,))
        if cfg.variant.uses_predictor:
            self._stack_params("pred", PREDICTOR_BLOCKS, cfg.variant.target_dim)
        p.linear_weight("state.w", 7, D_MODEL)
        p.zeros("state.b", (D_MODEL,))
        self._stack_params("dec", DECODER_BLOCKS, 7)
        self._positions = np.arange(1, cfg.horizon + 1, dtype=float)
        self._prefixes = None  # stack -> its block-0 prefix, a dict inside frozen()

    def _stack_params(self, prefix: str, blocks: int, out_dim: int):
        """A query stack: H queries, `blocks` blocks, a final norm and a linear head."""
        p = self.params
        p.query_normal(f"{prefix}.q", (self.cfg.horizon, D_MODEL))
        for i in range(blocks):
            self._block_params(f"{prefix}.b{i}")
        p.ones(f"{prefix}.lnf.g", (D_MODEL,))
        p.zeros(f"{prefix}.lnf.b", (D_MODEL,))
        p.linear_weight(f"{prefix}.head.w", D_MODEL, out_dim)
        p.zeros(f"{prefix}.head.b", (out_dim,))

    def _block_params(self, prefix: str):
        p, d = self.params, D_MODEL
        for ln in ["ln1", "ln2", "lnkv", "ln3"]:
            p.ones(f"{prefix}.{ln}.g", (d,))
            p.zeros(f"{prefix}.{ln}.b", (d,))
        for attn in ["self", "cross"]:
            for w in ["wq", "wk", "wv", "wo"]:
                p.linear_weight(f"{prefix}.{attn}.{w}", d, d)
            # Without RoPE a key bias adds one constant to all of a query's scores, which softmax ignores.
            for b in ["bq", "bk", "bv", "bo"] if attn == "self" else ["bq", "bv", "bo"]:
                p.zeros(f"{prefix}.{attn}.{b}", (d,))
        hidden = FFN_FACTOR * d
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
            HEADS,
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

    def _self_attend(self, prefix, x):
        """Block `prefix` up to its cross-attention: the residual stream after
        the self-attention sublayer, and its ln2, the cross-attention's query input."""
        normed = self._ln(x, f"{prefix}.ln1")
        x = tn.add(x, self._attn(f"{prefix}.self", normed, normed, positions=self._positions))
        return x, self._ln(x, f"{prefix}.ln2")

    def _query_prefix(self, stack):
        """_self_attend of block 0 on the stack's queries. It reads parameters
        only, so inside frozen() an untaped call computes it once per stack."""
        prefixes = self._prefixes
        if prefixes is None or tn.recording():
            return self._self_attend(f"{stack}.b0", self.params[f"{stack}.q"])
        if stack not in prefixes:
            prefixes[stack] = self._self_attend(f"{stack}.b0", self.params[f"{stack}.q"])
        return prefixes[stack]

    def _block(self, prefix, attended, kv):
        """The rest of block `prefix`, from _self_attend's pair `attended`."""
        # Both dels free the query input before the feed-forward, the peak of
        # an untaped forward over a large batch.
        x, q_in = attended
        del attended
        x = tn.add(x, self._attn(f"{prefix}.cross", q_in, self._ln(kv, f"{prefix}.lnkv")))
        del q_in
        h = tn.linear(self._ln(x, f"{prefix}.ln3"), self.params[f"{prefix}.ffn.w1"], self.params[f"{prefix}.ffn.b1"])
        h = tn.linear(tn.gelu(h), self.params[f"{prefix}.ffn.w2"], self.params[f"{prefix}.ffn.b2"])
        return tn.add(x, h)

    def _run_stack(self, prefix, blocks, kv):
        """A stack's queries refined against kv by its blocks, then its final norm."""
        x = self._block(f"{prefix}.b0", self._query_prefix(prefix), kv)
        for i in range(1, blocks):
            x = self._block(f"{prefix}.b{i}", self._self_attend(f"{prefix}.b{i}", x), kv)
        return self._ln(x, f"{prefix}.lnf")

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

    def predict_trajectory(self, h3d: tn.Tensor, h_noise=None):
        """Refine the trajectory queries against the encoded tokens.

        Returns (h_traj, tau); tau is recomputable as the linear head applied
        to h_traj. An h_noise array of h_traj's shape, (H, D_MODEL) or
        (B, H, D_MODEL), is added to h_traj before the head reads it (the
        perturbed protocol). Skipped entirely (returns
        None) for the no-trajectory variant.
        """
        if not self.cfg.variant.uses_predictor:
            return None
        h_traj = self._run_stack("pred", PREDICTOR_BLOCKS, h3d)
        if h_noise is not None:
            h_traj = tn.add(h_traj, self._input(h_noise))
        tau = self.trajectory_head(h_traj)
        return h_traj, tau

    def trajectory_head(self, h_traj) -> tn.Tensor:
        tau = tn.linear(tn.as_tensor(h_traj), self.params["pred.head.w"], self.params["pred.head.b"])
        if self.cfg.variant.rotation_param == "quaternion":
            pos = tn.narrow(tau, -1, 0, 3)
            quat = tn.normalize_rows(tn.narrow(tau, -1, 3, 4))
            tau = tn.concat([pos, quat], axis=-1)
        return tau

    def decode_actions(self, conditioning: tn.Tensor, state_vec) -> tn.Tensor:
        """Action chunk from the conditioning stream and the raw 7-d state."""
        state = self._input(state_vec)
        h_state = tn.linear(state, self.params["state.w"], self.params["state.b"])
        h_ctx = tn.concat([conditioning, h_state], axis=-2)
        x = self._run_stack("dec", DECODER_BLOCKS, h_ctx)
        out = tn.linear(x, self.params["dec.head.w"], self.params["dec.head.b"])
        rigid = tn.narrow(out, -1, 0, 6)
        grip = tn.sigmoid(tn.narrow(out, -1, 6, 1))
        return tn.concat([rigid, grip], axis=-1)

    # --- training/inference entry points ---

    @contextlib.contextmanager
    def frozen(self):
        """Hold the parameters fixed for the scope, as an evaluation does.

        Each query stack's block-0 prefix (_query_prefix) is then computed at
        the first untaped call and reused by the later ones; a taped call
        computes it afresh, so its gradients reach every parameter. Changing a
        parameter inside the scope leaves the reused prefix stale. The prefixes
        are dropped on exit, on a raise too; a nested scope keeps the outer
        one's.
        """
        if self._prefixes is not None:
            yield
            return
        self._prefixes = {}
        try:
            yield
        finally:
            self._prefixes = None

    def forward(self, lang, visual, depth, state_vec, h_noise=None):
        """Full pass; returns a dict of the tau and chunk tensors (tau is None
        without a predictor).

        h_noise is predict_trajectory's: the decoder then conditions on the
        noisy h_traj when its variant reads h_traj.
        """
        h3d = self.encode(lang, visual, depth)
        pred = self.predict_trajectory(h3d, h_noise)
        h_traj, tau = pred if pred is not None else (None, None)
        conditioning = h_traj if self.cfg.variant.decoder_sees_trajectory else h3d
        chunk = self.decode_actions(conditioning, state_vec)
        return {"tau": tau, "chunk": chunk}

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

    def act(self, features: list[sw.ObservationFeatures], state_vecs, h_noise=None) -> PolicyOutput:
        """Inference (no tape) for a batch of B observations: `features` holds
        B ObservationFeatures and `state_vecs` is (B, 7). h_noise is
        predict_trajectory's, (B, H, D_MODEL): row b perturbs observation b.
        Returns (B, H, ·) float64 arrays; row b equals the row a batch of
        observation b alone gives, bit for bit (tests pin this)."""
        out = self.forward(np.stack([f.lang for f in features]),
                           np.stack([f.visual for f in features]),
                           np.stack([f.depth for f in features]),
                           np.reshape(state_vecs, (-1, 1, 7)), h_noise)
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
