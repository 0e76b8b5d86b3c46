"""Optimizer, network, and advantage-estimation tests against independent oracles."""
import numpy as np
import pytest
from scipy import stats

from demo2dex.ppo import (
    OBS_CLIP,
    Adam,
    GaussianPolicy,
    MLP,
    RunningNorm,
    TrainConfig,
    clip_grad_norm,
    compute_gae,
    run_episode,
    train_residual_policy,
)
from demo2dex.jsonio import canonical_dumps


def gae_oracle(rewards, values, gamma, lam):
    """Direct double-loop evaluation: A_t = sum_k (gamma*lam)^k * delta_{t+k}."""
    n = len(rewards)
    deltas = [
        rewards[t] + gamma * (values[t + 1] if t + 1 < n else 0.0) - values[t]
        for t in range(n)
    ]
    adv = np.zeros(n)
    for t in range(n):
        acc = 0.0
        for k in range(n - t):
            acc += (gamma * lam) ** k * deltas[t + k]
        adv[t] = acc
    return adv, adv + np.asarray(values)[:n]


class TestGAE:
    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(1, 40))
            rewards = rng.normal(size=n)
            values = rng.normal(size=n)
            gamma = float(rng.uniform(0.8, 1.0))
            lam = float(rng.uniform(0.0, 1.0))
            adv, ret = compute_gae(rewards, values, gamma, lam)
            adv_o, ret_o = gae_oracle(rewards, values, gamma, lam)
            np.testing.assert_allclose(adv, adv_o, atol=1e-12)
            np.testing.assert_allclose(ret, ret_o, atol=1e-12)

    def test_single_step(self):
        # one step, terminal value zero: A = r - v, return = r
        adv, ret = compute_gae([2.0], [0.5], 0.9, 0.95)
        assert adv[0] == pytest.approx(1.5, abs=1e-15)
        assert ret[0] == pytest.approx(2.0, abs=1e-15)

    def test_lambda_zero_is_td_error(self):
        rewards = [1.0, 2.0, 3.0]
        values = [0.2, 0.4, 0.6]
        adv, _ = compute_gae(rewards, values, 0.99, 0.0)
        expect = [1.0 + 0.99 * 0.4 - 0.2, 2.0 + 0.99 * 0.6 - 0.4, 3.0 - 0.6]
        np.testing.assert_allclose(adv, expect, atol=1e-14)


class TestMLP:
    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        net = MLP([3, 5, 4, 2], rng, out_scale=0.5)
        x = rng.normal(size=(4, 3))
        w = rng.normal(size=(4, 2))  # fixed weighting makes the loss scalar

        def loss():
            y, _ = net.forward(x)
            return float((y * w).sum())

        y, cache = net.forward(x)
        grads = net.backward(cache, w)
        params = net.params()
        assert len(grads) == len(params)
        eps = 1e-6
        for p, g in zip(params, grads):
            flat = p.reshape(-1)
            gflat = np.asarray(g).reshape(-1)
            for idx in range(flat.size):
                old = flat[idx]
                flat[idx] = old + eps
                up = loss()
                flat[idx] = old - eps
                dn = loss()
                flat[idx] = old
                fd = (up - dn) / (2 * eps)
                assert gflat[idx] == pytest.approx(fd, abs=2e-6), idx

    def test_forward_batch_shape(self):
        net = MLP([4, 8, 3], np.random.default_rng(0))
        y, cache = net.forward(np.zeros((7, 4)))
        assert y.shape == (7, 3)
        assert cache[0].shape == (7, 4)


class TestAdam:
    def test_first_step_hand_computed(self):
        p = np.array([1.0])
        opt = Adam([p], lr=0.1)
        g = np.array([0.4])
        opt.step([g.copy()])
        # m=0.04, v=0.00016; bias-corrected m_hat=0.4, v_hat=0.16
        # update = 0.1 * 0.4 / (0.4 + 1e-8)
        expect = 1.0 - 0.1 * 0.4 / (np.sqrt(0.16) + 1e-8)
        assert p[0] == pytest.approx(expect, abs=1e-12)

    def test_second_step_hand_computed(self):
        p = np.array([0.0])
        opt = Adam([p], lr=0.01)
        opt.step([np.array([1.0])])
        opt.step([np.array([-0.5])])
        b1, b2, eps = 0.9, 0.999, 1e-8
        m = 0.9 * (0.1 * 1.0) + 0.1 * (-0.5)
        v = 0.999 * (0.001 * 1.0) + 0.001 * 0.25
        first = -0.01 * (0.1 / (1 - b1)) / (np.sqrt(0.001 / (1 - b2)) + eps)
        second = -0.01 * (m / (1 - b1**2)) / (np.sqrt(v / (1 - b2**2)) + eps)
        assert p[0] == pytest.approx(first + second, abs=1e-12)

    def test_updates_in_place(self):
        p = np.ones((3, 3))
        ref = p
        opt = Adam([p], lr=0.05)
        opt.step([np.ones((3, 3))])
        assert ref is p
        assert not np.allclose(p, 1.0)


class TestClipGradNorm:
    def test_below_threshold_untouched(self):
        g = [np.array([0.3, 0.4])]  # norm 0.5
        total = clip_grad_norm(g, 1.0)
        assert total == pytest.approx(0.5, abs=1e-12)
        np.testing.assert_array_equal(g[0], [0.3, 0.4])

    def test_above_threshold_scaled(self):
        g = [np.array([3.0, 0.0]), np.array([4.0])]  # norm 5
        total = clip_grad_norm(g, 1.0)
        assert total == pytest.approx(5.0, abs=1e-12)
        combined = np.sqrt(sum(float((x * x).sum()) for x in g))
        assert combined == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(g[0], [0.6, 0.0], atol=1e-12)

    def test_zero_gradients(self):
        g = [np.zeros(4)]
        assert clip_grad_norm(g, 1.0) == 0.0
        np.testing.assert_array_equal(g[0], np.zeros(4))


class TestGaussianPolicy:
    def test_log_prob_matches_scipy(self):
        rng = np.random.default_rng(5)
        pol = GaussianPolicy.build(3, 4, [8], 0.3, rng)
        pol.log_std = rng.uniform(-1.5, 0.5, size=4)
        for _ in range(20):
            x = rng.normal(size=3)
            mu = pol.mean(x)
            a = mu + rng.normal(size=4)
            std = np.exp(pol.log_std)
            expect = stats.norm.logpdf(a, loc=mu, scale=std).sum()
            assert pol.log_prob_single(a, mu) == pytest.approx(expect, abs=1e-12)

    def test_entropy_matches_scipy(self):
        rng = np.random.default_rng(6)
        pol = GaussianPolicy.build(2, 3, [4], 0.2, rng)
        pol.log_std = np.array([-0.7, 0.1, -1.2])
        expect = sum(stats.norm.entropy(scale=np.exp(s)) for s in pol.log_std)
        assert pol.entropy() == pytest.approx(expect, abs=1e-12)

    def test_sample_reproducible(self):
        pol = GaussianPolicy.build(3, 2, [4], 0.5, np.random.default_rng(1))
        x = np.array([0.1, -0.2, 0.3])
        a1, lp1 = pol.sample(x, np.random.default_rng(42))
        a2, lp2 = pol.sample(x, np.random.default_rng(42))
        np.testing.assert_array_equal(a1, a2)
        assert lp1 == lp2


class TestRunningNorm:
    def test_streaming_matches_full_batch(self):
        rng = np.random.default_rng(12)
        data = rng.normal(loc=3.0, scale=2.5, size=(500, 4))
        rn = RunningNorm(4)
        for chunk in np.array_split(data, 7):
            rn.update(chunk)
        # count starts at 1e-4 so stats converge to the batch values
        np.testing.assert_allclose(rn.mean, data.mean(axis=0), atol=1e-2)
        np.testing.assert_allclose(rn.var, data.var(axis=0), rtol=1e-2)

    def test_normalize_clips(self):
        rn = RunningNorm(2)
        rn.mean = np.zeros(2)
        rn.var = np.ones(2)
        out = rn.normalize(np.array([1e6, -1e6]))
        np.testing.assert_array_equal(out, [OBS_CLIP, -OBS_CLIP])


class _CountdownEnv:
    """Deterministic five-step environment for episode plumbing tests."""

    def __init__(self, dim_obs=3, dim_act=2):
        self.dim_obs = dim_obs
        self.dim_act = dim_act
        self.t = 0

    def reset(self):
        self.t = 0
        return np.zeros(self.dim_obs)

    def step(self, action):
        self.t += 1
        obs = np.full(self.dim_obs, float(self.t))
        reward = -float(np.abs(action).sum())
        done = self.t >= 5
        return obs, reward, done, {"success": done}


class TestRunEpisode:
    def test_mean_action_deterministic(self):
        env = _CountdownEnv()
        pol = GaussianPolicy.build(3, 2, [4], 0.3, np.random.default_rng(0))
        rn = RunningNorm(3)
        r1 = run_episode(env, pol, rn)
        r2 = run_episode(env, pol, rn)
        assert r1 == r2
        assert r1[1] == 5 and r1[2] is True

    def test_stochastic_reproducible_and_collected(self):
        env = _CountdownEnv()
        pol = GaussianPolicy.build(3, 2, [4], 0.3, np.random.default_rng(0))
        rn = RunningNorm(3)
        buf1: list = []
        buf2: list = []
        out1 = run_episode(env, pol, rn, rng=np.random.default_rng(3), collect=buf1)
        out2 = run_episode(env, pol, rn, rng=np.random.default_rng(3), collect=buf2)
        assert out1[0] == out2[0]
        assert len(buf1) == 5
        for row1, row2 in zip(buf1, buf2):
            np.testing.assert_array_equal(row1[1], row2[1])


def test_train_config_rejects_unknown_key():
    # the training budget is the only `rl` setting; the rest are constants
    with pytest.raises(TypeError, match="lr"):
        TrainConfig(lr=3e-4)
    assert TrainConfig(total_steps=600).total_steps == 600


class _UnsolvedEnv(_CountdownEnv):
    """The countdown without success, so training spends its whole budget."""

    def step(self, action):
        obs, reward, done, _ = super().step(action)
        return obs, reward, done, {"success": False}


def test_training_is_reproducible_per_seed():
    def train(seed):
        res = train_residual_policy(_UnsolvedEnv(), TrainConfig(total_steps=60), seed)
        return [canonical_dumps(row) for row in res.log], canonical_dumps(res.policy_dict()), res

    log0, policy0, res = train(0)
    assert (res.updates, res.env_steps, res.stopped_early) == (3, 60, False)
    assert [row.get("eval_success") for row in res.log[1:]] == [None, False, False]
    assert train(0)[:2] == (log0, policy0)
    log1, policy1, _ = train(1)
    assert log1[1:] != log0[1:] and policy1 != policy0
    # the header pins the settings that the bundled config's `rl` section used to set
    assert res.log[0] == {
        "type": "header", "gamma": 0.995, "clip": 0.3, "batch_size": 64, "gae_lambda": 0.95,
        "lr": 3e-4, "hidden": [64, 64], "entropy_coef": 0.003, "action_std": 0.2, "seed": 0,
    }


def test_training_returns_the_best_successful_evaluation():
    # every episode succeeds, so training stops after three successful
    # evaluations and returns the copy taken at the best of them; on seed 0
    # that is the first, not the policy training ended with
    res = train_residual_policy(_CountdownEnv(), TrainConfig(total_steps=10_000), 0)
    evals = [row["eval_reward"] for row in res.log[1:] if "eval_reward" in row]
    assert res.stopped_early and len(evals) == 3
    assert max(evals) == evals[0] > evals[-1]
    total, _, success, _ = run_episode(_CountdownEnv(), res.policy, res.obs_norm)
    assert success and total == evals[0]
