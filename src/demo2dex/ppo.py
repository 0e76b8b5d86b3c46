"""Minimal proximal policy optimization on plain numpy.

The residual policies here are tiny (two hidden layers, a few dozen inputs),
so a hand-rolled MLP with explicit backward passes is plenty fast, keeps the
dependency set flat, and makes training bitwise reproducible for a given seed:
there is no threaded BLAS nondeterminism in the hot path and every random draw
comes from one generator in a fixed order.
"""
from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

LOG_2PI = float(np.log(2.0 * np.pi))
LOG_STD_MIN = -5.0
LOG_STD_MAX = 1.0
OBS_CLIP = 10.0


# PPO settings of the residual grasp policy
HIDDEN = (64, 64)
EPISODES_PER_UPDATE = 4
EPOCHS = 4
BATCH_SIZE = 64
GAMMA = 0.995
GAE_LAMBDA = 0.95
CLIP = 0.3
LR = 3e-4
ENTROPY_COEF = 0.003
VALUE_COEF = 0.5
MAX_GRAD_NORM = 10.0
ACTION_STD = 0.2
EVAL_EVERY = 2  # updates between deterministic evaluations
EARLY_STOP = 3  # consecutive eval successes that end training


@dataclass(frozen=True)
class TrainConfig:
    """The `rl` config section: the training budget."""

    total_steps: int = 200_000


class RunningNorm:
    """Streaming mean/variance normalizer (parallel Welford merge)."""

    def __init__(self, dim: int):
        self.mean = np.zeros(dim)
        self.var = np.ones(dim)
        self.count = 1e-4

    def update(self, batch: np.ndarray) -> None:
        b_mean = batch.mean(axis=0)
        b_var = batch.var(axis=0)
        b_count = batch.shape[0]
        delta = b_mean - self.mean
        tot = self.count + b_count
        m_a = self.var * self.count
        m_b = b_var * b_count
        m2 = m_a + m_b + delta * delta * self.count * b_count / tot
        self.mean = self.mean + delta * b_count / tot
        self.var = m2 / tot
        self.count = tot

    def normalize(self, x: np.ndarray) -> np.ndarray:
        return np.clip((x - self.mean) / np.sqrt(self.var + 1e-8), -OBS_CLIP, OBS_CLIP)

    def to_dict(self) -> dict:
        return {"mean": self.mean, "var": self.var, "count": self.count}

    @staticmethod
    def from_dict(d: dict) -> "RunningNorm":
        rn = RunningNorm(len(d["mean"]))
        rn.mean = np.asarray(d["mean"], dtype=np.float64)
        rn.var = np.asarray(d["var"], dtype=np.float64)
        rn.count = float(d["count"])
        return rn


class MLP:
    """Fully connected tanh network with explicit forward/backward."""

    def __init__(self, sizes: list[int], rng: np.random.Generator, out_scale: float = 0.01):
        self.sizes = list(sizes)
        self.Ws: list[np.ndarray] = []
        self.bs: list[np.ndarray] = []
        for i in range(len(sizes) - 1):
            fan_in, fan_out = sizes[i], sizes[i + 1]
            scale = out_scale / np.sqrt(fan_in) if i == len(sizes) - 2 else np.sqrt(2.0 / fan_in)
            self.Ws.append(rng.normal(0.0, scale, size=(fan_in, fan_out)))
            self.bs.append(np.zeros(fan_out))

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """x is (B, in); returns (output (B, out), activation cache)."""
        h = x
        cache = [x]
        for i in range(len(self.Ws) - 1):
            h = np.tanh(h.dot(self.Ws[i]) + self.bs[i])
            cache.append(h)
        y = h.dot(self.Ws[-1]) + self.bs[-1]
        return y, cache

    def backward(self, cache: list[np.ndarray], dy: np.ndarray) -> list[np.ndarray]:
        """Gradient of a scalar loss with dL/dy = dy; returns [dW0, db0, dW1, ...]."""
        grads: list[np.ndarray] = [None] * (2 * len(self.Ws))
        delta = dy
        for i in range(len(self.Ws) - 1, -1, -1):
            h_in = cache[i]
            grads[2 * i] = h_in.T.dot(delta)
            grads[2 * i + 1] = delta.sum(axis=0)
            if i > 0:
                delta = delta.dot(self.Ws[i].T) * (1.0 - cache[i] ** 2)
        return grads

    def params(self) -> list[np.ndarray]:
        out = []
        for w, b in zip(self.Ws, self.bs):
            out.append(w)
            out.append(b)
        return out

    def to_dict(self) -> dict:
        return {"sizes": self.sizes, "Ws": self.Ws, "bs": self.bs}

    @staticmethod
    def from_dict(d: dict) -> "MLP":
        mlp = MLP.__new__(MLP)
        mlp.sizes = list(d["sizes"])
        mlp.Ws = [np.asarray(w, dtype=np.float64) for w in d["Ws"]]
        mlp.bs = [np.asarray(b, dtype=np.float64) for b in d["bs"]]
        return mlp


class Adam:
    def __init__(self, params: list[np.ndarray], lr: float):
        self.params = params
        self.lr = lr
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0

    def step(self, grads: list[np.ndarray]) -> None:
        self.t += 1
        b1, b2, eps = 0.9, 0.999, 1e-8
        bias1 = 1.0 - b1**self.t
        bias2 = 1.0 - b2**self.t
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            p -= self.lr * (m / bias1) / (np.sqrt(v / bias2) + eps)


def clip_grad_norm(grads: list[np.ndarray], max_norm: float) -> float:
    total = np.sqrt(sum(float((g * g).sum()) for g in grads))
    if total > max_norm and total > 0:
        scale = max_norm / total
        for g in grads:
            g *= scale
    return total


@dataclass
class GaussianPolicy:
    """Diagonal Gaussian over actions; the std is state independent."""

    net: MLP
    log_std: np.ndarray

    @staticmethod
    def build(dim_obs: int, dim_act: int, hidden, action_std: float, rng) -> "GaussianPolicy":
        net = MLP([dim_obs, *hidden, dim_act], rng, out_scale=0.01)
        return GaussianPolicy(net, np.full(dim_act, np.log(action_std)))

    def mean(self, x: np.ndarray) -> np.ndarray:
        y, _ = self.net.forward(np.atleast_2d(x))
        return y[0] if x.ndim == 1 else y

    def sample(self, x: np.ndarray, rng: np.random.Generator) -> tuple[np.ndarray, float]:
        mu = self.mean(x)
        std = np.exp(self.log_std)
        a = mu + std * rng.standard_normal(mu.shape)
        return a, self.log_prob_single(a, mu)

    def log_prob_single(self, a: np.ndarray, mu: np.ndarray) -> float:
        z = (a - mu) / np.exp(self.log_std)
        return float(-0.5 * (z * z).sum() - self.log_std.sum() - 0.5 * LOG_2PI * a.shape[-1])

    def entropy(self) -> float:
        return float(self.log_std.sum() + 0.5 * self.log_std.shape[0] * (LOG_2PI + 1.0))

    def to_dict(self) -> dict:
        return {"net": self.net.to_dict(), "log_std": self.log_std}

    @staticmethod
    def from_dict(d: dict) -> "GaussianPolicy":
        return GaussianPolicy(MLP.from_dict(d["net"]), np.asarray(d["log_std"], dtype=np.float64))


@dataclass
class TrainResult:
    policy: GaussianPolicy
    obs_norm: RunningNorm
    log: list[dict]
    env_steps: int
    updates: int
    stopped_early: bool

    def policy_dict(self) -> dict:
        return {"policy": self.policy.to_dict(), "obs_norm": self.obs_norm.to_dict()}


def compute_gae(rewards, values, gamma: float, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Advantages and returns for one finished episode (terminal value 0)."""
    n = len(rewards)
    adv = np.zeros(n)
    last = 0.0
    for t in range(n - 1, -1, -1):
        next_v = values[t + 1] if t + 1 < n else 0.0
        delta = rewards[t] + gamma * next_v - values[t]
        last = delta + gamma * lam * last
        adv[t] = last
    return adv, adv + values[:n]


def run_episode(env, policy: GaussianPolicy, obs_norm: RunningNorm, rng=None, collect=None):
    """One episode; stochastic when rng is given, mean-action otherwise.

    `collect`, if passed, receives each (obs_raw, action, reward, logp, value_input)
    tuple via append; returns (total_reward, steps, success, infos_last).
    """
    obs = env.reset()
    total, steps = 0.0, 0
    done = False
    info: dict = {}
    while not done:
        x = obs_norm.normalize(obs)
        if rng is not None:
            action, logp = policy.sample(x, rng)
        else:
            action, logp = policy.mean(x), 0.0
        nxt, reward, done, info = env.step(action)
        if collect is not None:
            collect.append((obs, action, reward, logp, x))
        total += reward
        steps += 1
        obs = nxt
    return total, steps, bool(info.get("success", False)), info


def train_residual_policy(env, cfg: TrainConfig, seed: int) -> TrainResult:
    """PPO on a residual grasp environment; deterministic for a given seed."""
    rng = np.random.default_rng(seed)
    policy = GaussianPolicy.build(env.dim_obs, env.dim_act, HIDDEN, ACTION_STD, rng)
    value = MLP([env.dim_obs, *HIDDEN, 1], rng, out_scale=1.0)
    obs_norm = RunningNorm(env.dim_obs)
    p_params = policy.net.params()
    v_params = value.params()
    opt_p = Adam(p_params + [policy.log_std], LR)
    opt_v = Adam(v_params, LR)

    log: list[dict] = [
        {
            "type": "header",
            "gamma": GAMMA,
            "clip": CLIP,
            "batch_size": BATCH_SIZE,
            "gae_lambda": GAE_LAMBDA,
            "lr": LR,
            "hidden": list(HIDDEN),
            "entropy_coef": ENTROPY_COEF,
            "action_std": ACTION_STD,
            "seed": seed,
        }
    ]
    env_steps = 0
    updates = 0
    consecutive = 0
    stopped_early = False
    best = None  # (score, success, policy, obs_norm) of the best evaluation

    while env_steps < cfg.total_steps:
        # -- rollout --------------------------------------------------------
        batch_obs, batch_act, batch_logp, batch_adv, batch_ret = [], [], [], [], []
        ep_rewards, ep_lengths, ep_successes = [], [], []
        for _ in range(EPISODES_PER_UPDATE):
            rows: list = []
            total, steps, success, _ = run_episode(env, policy, obs_norm, rng=rng, collect=rows)
            obs_raw = np.array([r[0] for r in rows])
            acts = np.array([r[1] for r in rows])
            rews = np.array([r[2] for r in rows])
            logps = np.array([r[3] for r in rows])
            xs = np.array([r[4] for r in rows])
            vals, _ = value.forward(xs)
            adv, ret = compute_gae(rews, vals[:, 0], GAMMA, GAE_LAMBDA)
            batch_obs.append(obs_raw)
            batch_act.append(acts)
            batch_logp.append(logps)
            batch_adv.append(adv)
            batch_ret.append(ret)
            ep_rewards.append(total)
            ep_lengths.append(steps)
            ep_successes.append(success)
            env_steps += steps
        obs_raw = np.concatenate(batch_obs)
        obs_norm.update(obs_raw)
        xs = obs_norm.normalize(obs_raw)
        acts = np.concatenate(batch_act)
        logp_old = np.concatenate(batch_logp)
        adv = np.concatenate(batch_adv)
        rets = np.concatenate(batch_ret)
        adv = (adv - adv.mean()) / (adv.std() + 1e-8)
        n = xs.shape[0]

        # -- optimization -----------------------------------------------------
        pi_losses, v_losses = [], []
        for _ in range(EPOCHS):
            order = rng.permutation(n)
            for start in range(0, n, BATCH_SIZE):
                idx = order[start : start + BATCH_SIZE]
                x, a, lp_old, ad, rt = xs[idx], acts[idx], logp_old[idx], adv[idx], rets[idx]
                b = x.shape[0]
                mu, cache_p = policy.net.forward(x)
                std = np.exp(policy.log_std)
                z = (a - mu) / std
                logp = -0.5 * (z * z).sum(axis=1) - policy.log_std.sum() - 0.5 * LOG_2PI * a.shape[1]
                ratio = np.exp(logp - lp_old)
                unclipped = ratio * ad
                clipped = np.clip(ratio, 1.0 - CLIP, 1.0 + CLIP) * ad
                use_unclipped = unclipped <= clipped
                pi_loss = -np.minimum(unclipped, clipped).mean()
                # dL/dlogp, nonzero only where the unclipped branch is active
                dlogp = np.where(use_unclipped, -ratio * ad, 0.0) / b
                dmu = dlogp[:, None] * (z / std)
                dlogstd = (dlogp[:, None] * (z * z - 1.0)).sum(axis=0)
                dlogstd -= ENTROPY_COEF  # entropy bonus: dH/dlog_std = 1 per dim
                grads_p = policy.net.backward(cache_p, dmu) + [dlogstd]
                clip_grad_norm(grads_p, MAX_GRAD_NORM)
                opt_p.step(grads_p)
                np.clip(policy.log_std, LOG_STD_MIN, LOG_STD_MAX, out=policy.log_std)

                v_pred, cache_v = value.forward(x)
                v_err = v_pred[:, 0] - rt
                v_loss = 0.5 * float((v_err * v_err).mean())
                dv = (VALUE_COEF * v_err / b)[:, None]
                grads_v = value.backward(cache_v, dv)
                clip_grad_norm(grads_v, MAX_GRAD_NORM)
                opt_v.step(grads_v)
                pi_losses.append(pi_loss)
                v_losses.append(v_loss)
        updates += 1

        row = {
            "type": "update",
            "update": updates,
            "env_steps": env_steps,
            "mean_episode_reward": float(np.mean(ep_rewards)),
            "mean_episode_length": float(np.mean(ep_lengths)),
            "rollout_success_rate": float(np.mean(ep_successes)),
            "pi_loss": float(np.mean(pi_losses)),
            "v_loss": float(np.mean(v_losses)),
            "entropy": policy.entropy(),
        }

        # -- deterministic evaluation and early stopping ------------------------
        if updates % EVAL_EVERY == 0 or env_steps >= cfg.total_steps:
            total, _, success, _ = run_episode(env, policy, obs_norm, rng=None)
            row["eval_reward"] = total
            row["eval_success"] = success
            score = (1e9 if success else 0.0) + total
            if best is None or score > best[0]:
                best = (score, success, copy.deepcopy(policy), copy.deepcopy(obs_norm))
            consecutive = consecutive + 1 if success else 0
            if consecutive >= EARLY_STOP:
                log.append(row)
                stopped_early = True
                break
        log.append(row)

    if best is not None and best[1]:
        _, _, policy, obs_norm = best
    return TrainResult(
        policy=policy,
        obs_norm=obs_norm,
        log=log,
        env_steps=env_steps,
        updates=updates,
        stopped_early=stopped_early,
    )
