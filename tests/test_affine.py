"""Pairwise affine averaging on the complete graph and its moment bounds."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geogossip import affine
from geogossip import (
    affine_pair_update,
    contraction_bound,
    contraction_factor,
    expected_quadratic_form,
    mean_square_decay_bound,
    simulate_affine_gossip,
)
from geogossip.affine import (
    alternating_noise,
    draw_pairs,
    enumerated_quadratic_form,
    markov_tail_bound,
    norm_square_trajectories,
    perturbed_deviation_bound,
    random_alpha,
    spike_vector,
    update_matrix,
    validate_alpha,
)


# ------------------------------------------------------------ single update

def test_pair_update_hand_example():
    x = np.array([1.0, -1.0, 0.0])
    out = affine_pair_update(x, 0, 1, [0.4, 0.4, 0.4])
    assert np.allclose(out, [0.2, -0.2, 0.0], atol=1e-15)
    assert np.array_equal(x, [1.0, -1.0, 0.0])  # input untouched


def test_pair_update_matches_matrix():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        a = random_alpha(n, rng)
        x = rng.normal(size=n)
        i, j = rng.choice(n, size=2, replace=False)
        out = affine_pair_update(x, int(i), int(j), a)
        assert np.allclose(out, update_matrix(n, int(i), int(j), a) @ x,
                           atol=1e-14)


def test_pair_update_rejects_same_index():
    with pytest.raises(ValueError):
        affine_pair_update([1.0, 2.0], 1, 1, [0.4, 0.4])
    with pytest.raises(ValueError):
        affine_pair_update([1.0, 2.0], 0, 0, [0.4, 0.4], nu=0.1)


def test_uniform_alpha_keeps_consensus():
    x = np.full(5, 3.7)
    out = affine_pair_update(x, 1, 4, np.full(5, 0.4))
    assert np.allclose(out, x, atol=1e-15)


def test_heterogeneous_alpha_breaks_consensus():
    # with unequal weights the update is affine but not convex: a consensus
    # state moves, which is what separates this dynamic from plain averaging
    a = np.array([0.35, 0.45, 0.4])
    out = affine_pair_update(np.full(3, 1.0), 0, 1, a)
    assert out[0] == pytest.approx(1.0 - 0.35 + 0.45)
    assert not np.allclose(out, 1.0)


def test_sum_preserved_through_many_updates():
    rng = np.random.default_rng(5)
    a = random_alpha(16, rng)
    x = rng.normal(size=16)
    total = x.sum()
    for _ in range(1000):
        i, j = rng.choice(16, size=2, replace=False)
        x = affine_pair_update(x, int(i), int(j), a)
    assert x.sum() == pytest.approx(total, abs=1e-10)


def test_perturbed_update_noise_cancels_in_sum():
    y = np.array([1.0, -1.0, 0.0, 0.0])
    out = affine_pair_update(y, 0, 2, np.full(4, 0.4), nu=0.25)
    base = affine_pair_update(y, 0, 2, np.full(4, 0.4))
    assert np.allclose(out, base + np.array([0.25, 0.0, -0.25, 0.0]))
    assert out.sum() == pytest.approx(y.sum(), abs=1e-15)


# -------------------------------------------------------------------- alpha

def test_alpha_band_is_open():
    validate_alpha([0.4, 0.45, 1 / 3 + 1e-9])
    for bad in (1 / 3, 0.5, 0.6, 0.2, 0.0):
        with pytest.raises(ValueError):
            validate_alpha([0.4, bad])


def test_alpha_must_be_vector():
    with pytest.raises(ValueError):
        validate_alpha(0.4)
    with pytest.raises(ValueError):
        validate_alpha([0.4])
    with pytest.raises(ValueError):
        validate_alpha(np.full((2, 2), 0.4))


def test_random_alpha_in_band():
    rng = np.random.default_rng(3)
    for _ in range(50):
        a = random_alpha(10, rng)
        assert np.all(a > 1 / 3) and np.all(a < 0.5)


def test_spike_vector_mean_zero():
    for n in (2, 3, 7, 32, 100):
        s = spike_vector(n)
        assert abs(s.sum()) <= 1e-14 * n
        assert s[0] == pytest.approx(1.0 - 1.0 / n)


# ---------------------------------------------------------- second moments

def test_quadratic_form_boundary_closed_form():
    # alpha = 1/2 is plain averaging; the mean map is the rank-one projector
    m = expected_quadratic_form([0.5, 0.5])
    assert np.allclose(m, [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)


def test_quadratic_form_two_node_closed_form():
    m = expected_quadratic_form([0.4, 0.4])
    assert np.allclose(m, [[0.52, 0.48], [0.48, 0.52]], atol=1e-15)


def test_quadratic_form_matches_enumeration():
    rng = np.random.default_rng(11)
    for n in range(2, 7):
        for _ in range(3):
            a = random_alpha(n, rng)
            diff = expected_quadratic_form(a) - enumerated_quadratic_form(a)
            assert np.max(np.abs(diff)) <= 1e-12


def test_quadratic_form_row_sums():
    # M 1 = 1 + (u*u - mean(u) u) / (n - 1) with u = 1 - 2 alpha; for
    # homogeneous alpha the correction vanishes and 1 is an eigenvector
    rng = np.random.default_rng(23)
    for n in (2, 4, 9):
        a = random_alpha(n, rng)
        u = 1.0 - 2.0 * a
        want = 1.0 + (u * u - u.mean() * u) / (n - 1)
        assert np.allclose(expected_quadratic_form(a) @ np.ones(n), want,
                           atol=1e-13)
    m = expected_quadratic_form(np.full(6, 0.42))
    assert np.allclose(m @ np.ones(6), np.ones(6), atol=1e-13)


def test_contraction_below_bound():
    rng = np.random.default_rng(8)
    for n in (2, 3, 5, 12, 40):
        for _ in range(5):
            lam = contraction_factor(random_alpha(n, rng))
            assert lam <= contraction_bound(n) + 1e-9
            assert lam < 1.0


def test_contraction_homogeneous_closed_form():
    # u = 1 - 2 alpha shared by all nodes gives 1 - (1 - u^2)/(n - 1) on
    # the mean-zero subspace
    for n, alpha in [(5, 0.4), (9, 0.45), (3, 0.35)]:
        u = 1.0 - 2.0 * alpha
        want = 1.0 - (1.0 - u * u) / (n - 1)
        lam = contraction_factor(np.full(n, alpha))
        assert lam == pytest.approx(want, abs=1e-12)


def test_contraction_bound_values():
    assert contraction_bound(2) == pytest.approx(1.0 - 8.0 / 9.0)
    assert contraction_bound(10) == pytest.approx(1.0 - 8.0 / 81.0)
    with pytest.raises(ValueError):
        contraction_bound(1)


# ------------------------------------------------------------------- bounds

def test_decay_and_tail_bounds():
    assert mean_square_decay_bound(0, 8) == 1.0
    assert mean_square_decay_bound(2, 8) == pytest.approx((15 / 16) ** 2)
    assert markov_tail_bound(0, 8, 0.5) == 1.0  # capped at one
    assert markov_tail_bound(100, 8, 0.5) == pytest.approx(
        4.0 * (15 / 16) ** 100)
    with pytest.raises(ValueError):
        markov_tail_bound(1, 8, 0.0)
    with pytest.raises(ValueError):
        mean_square_decay_bound(1, 1)


def test_perturbed_deviation_bound_formula():
    n, a, eps = 16, 1.0, 1e-3
    at0 = perturbed_deviation_bound(0, n, a, eps, norm_y0=2.0)
    assert at0 == pytest.approx(
        n ** 0.5 * (2.0 + 8.0 * np.sqrt(2.0) * n ** 1.5 * eps))
    # the transient part halves like (1 - 1/2n)^(t/2)
    big = perturbed_deviation_bound(10_000, n, a, eps, norm_y0=2.0)
    assert big < at0
    with pytest.raises(ValueError):
        perturbed_deviation_bound(-1, n, a, eps, 1.0)
    with pytest.raises(ValueError):
        perturbed_deviation_bound(1, 1, a, eps, 1.0)


def test_alternating_noise_pattern():
    nu = alternating_noise(5, 0.25)
    assert np.array_equal(nu, [0.25, -0.25, 0.25, -0.25, 0.25])
    assert np.array_equal(alternating_noise(4, 0.0), np.zeros(4))


# ------------------------------------------------------------- trajectories

def test_trajectory_shapes_and_start():
    x0 = spike_vector(8)
    out = norm_square_trajectories(x0, np.full(8, 0.4), ticks=16, trials=5,
                                   seed=1)
    assert out.shape == (5, 17)
    assert np.allclose(out[:, 0], float(x0 @ x0))
    with pytest.raises(ValueError):
        norm_square_trajectories(x0, np.full(8, 0.4), ticks=4, trials=1,
                                 seed=1, noise=np.zeros(3))


def test_zero_noise_reproduces_clean_run_exactly():
    x0 = spike_vector(8)
    a = np.full(8, 0.4)
    clean = simulate_affine_gossip(x0, a, ticks=64, seed=9)
    noisy = simulate_affine_gossip(x0, a, ticks=64, seed=9,
                                   noise=np.zeros(64))
    assert np.array_equal(clean, noisy)


def test_gossip_rejects_biased_start():
    with pytest.raises(ValueError):
        simulate_affine_gossip(np.ones(4), np.full(4, 0.4), ticks=2, seed=0)
    x = np.ones(4)
    out = simulate_affine_gossip(x - x.mean(), np.full(4, 0.4), ticks=2,
                                 seed=0)
    assert out[0] == 0.0
    with pytest.raises(ValueError):
        simulate_affine_gossip(spike_vector(4), np.full(4, 0.4), ticks=-1,
                               seed=0)
    # the alpha, length and noise-length checks are the kernel's
    with pytest.raises(ValueError):
        simulate_affine_gossip(spike_vector(4), np.full(4, 0.6), ticks=2,
                               seed=0)
    with pytest.raises(ValueError):
        simulate_affine_gossip(spike_vector(4), np.full(3, 0.4), ticks=2,
                               seed=0)
    with pytest.raises(ValueError):
        simulate_affine_gossip(spike_vector(4), np.full(4, 0.4), ticks=2,
                               seed=0, noise=np.zeros(3))


def test_mean_square_decays_toward_bound():
    # sample mean of |x(t)|^2 over trials stays under the closed-form decay
    # bound up to sampling noise at every tick
    n, ticks, trials = 8, 64, 2000
    x0 = spike_vector(n)
    rng = np.random.default_rng(17)
    a = random_alpha(n, rng)
    traj = norm_square_trajectories(x0, a, ticks, trials, seed=21)
    norm0 = float(x0 @ x0)
    mean = traj.mean(axis=0) / norm0
    se = traj.std(axis=0, ddof=1) / np.sqrt(trials) / norm0
    t = np.arange(ticks + 1)
    bound = mean_square_decay_bound(1, n) ** t
    assert np.all(mean <= bound + 3.0 * se + 1e-12)


def test_trajectories_deterministic():
    x0 = spike_vector(6)
    a = np.full(6, 0.44)
    t1 = norm_square_trajectories(x0, a, 32, 4, seed=2)
    t2 = norm_square_trajectories(x0, a, 32, 4, seed=2)
    assert np.array_equal(t1, t2)


# ---------------------------------------------------------- pair draws

def test_draw_pairs_is_the_documented_block():
    n, trials, ticks, seed = 5, 6, 40, 13
    pi, pj = draw_pairs(n, trials, ticks, seed)
    assert pi.shape == pj.shape == (trials, ticks)
    assert np.all(pi != pj)
    assert pi.min() >= 0 and pj.min() >= 0
    assert pi.max() < n and pj.max() < n
    k = np.random.default_rng(seed).integers(0, n * (n - 1),
                                             size=(trials, ticks))
    assert np.array_equal(pi, k // (n - 1))
    j = k % (n - 1)
    assert np.array_equal(pj, j + (j >= pi))
    # row 0 of a batch is the single-trial draw
    one_i, one_j = draw_pairs(n, 1, ticks, seed)
    assert np.array_equal(one_i[0], pi[0]) and np.array_equal(one_j[0], pj[0])
    with pytest.raises(ValueError):
        draw_pairs(1, 1, 1, seed)


def test_draw_pairs_uniform_over_ordered_pairs():
    # 12 ordered pairs at n=4, 10000 expected draws each
    n = 4
    pi, pj = draw_pairs(n, 200, 600, seed=8)
    counts = np.bincount((pi * n + pj).ravel(), minlength=n * n)
    counts = counts.reshape(n, n)
    assert np.all(np.diag(counts) == 0)
    off = counts[~np.eye(n, dtype=bool)]
    expect = pi.size / (n * (n - 1))
    sd = np.sqrt(expect * (1.0 - 1.0 / (n * (n - 1))))
    assert np.all(np.abs(off - expect) < 5.0 * sd)


def _norm_sq_in_order(x):
    s = 0.0
    for v in x:
        s += v * v
    return s


# The kernel converts the pair block (n + 3) // 4 ticks at a time, so the
# cases below step chunks of 2 ticks: 41 and 23 ticks end on a partial
# chunk, and 1 tick is one short of a chunk.
@pytest.mark.parametrize("n, trials, ticks", [
    (5, 6, 40),
    (7, 6, 41),
    (6, 4, 1),
    (5, 3, 0),
    (7, 1, 23),
], ids=["whole-chunks", "partial-last-chunk", "shorter-than-a-chunk",
        "no-ticks", "one-trial"])
def test_trajectories_replay_drawn_pairs(n, trials, ticks):
    # oracle: the kernel's own pair draws replayed one update at a time
    # through the single update give the same |x(t)|^2, bit for bit
    seed = 13
    a = random_alpha(n, np.random.default_rng(3))
    x0 = spike_vector(n)
    nu = alternating_noise(ticks, 1e-3)
    nu[::3] = 0.0
    pi, pj = draw_pairs(n, trials, ticks, seed)
    clean = norm_square_trajectories(x0, a, ticks, trials, seed)
    noisy = norm_square_trajectories(x0, a, ticks, trials, seed, noise=nu)
    # the checks' traj.mean(axis=0) and traj.std(axis=0) sum in memory
    # order, so the layout is part of the result
    for traj in (clean, noisy):
        assert traj.shape == (trials, ticks + 1)
        assert traj.flags.c_contiguous
    for r in range(trials):
        x = x0.copy()
        y = x0.copy()
        want_x = [_norm_sq_in_order(x)]
        want_y = [_norm_sq_in_order(y)]
        for t in range(ticks):
            x = affine_pair_update(x, pi[r, t], pj[r, t], a)
            y = affine_pair_update(y, pi[r, t], pj[r, t], a, nu[t])
            want_x.append(_norm_sq_in_order(x))
            want_y.append(_norm_sq_in_order(y))
        assert np.array_equal(clean[r], want_x)
        assert np.array_equal(noisy[r], want_y)
    assert np.array_equal(simulate_affine_gossip(x0, a, ticks, seed),
                          clean[0])
    assert np.array_equal(
        simulate_affine_gossip(x0, a, ticks, seed, noise=nu), noisy[0])


def test_single_trial_norms_sum_in_order():
    # simulate_affine_gossip promises row 0 of a batch with the same seed.
    # The kernel keeps a second value column for a single trial, so its
    # norms are reduced across columns in node order, as a batch's are,
    # and not pairwise along one contiguous column.
    n, ticks, seed = 16, 23, 13
    a = random_alpha(n, np.random.default_rng(3))
    x0 = spike_vector(n)
    batch = norm_square_trajectories(x0, a, ticks, 3, seed)
    assert np.array_equal(simulate_affine_gossip(x0, a, ticks, seed),
                          batch[0])


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 64), trials=st.integers(1, 5),
       ticks=st.integers(0, 40), seed=st.integers(0, 2**32 - 1),
       noisy=st.booleans())
def test_single_trial_is_row_zero_of_every_batch(n, trials, ticks, seed,
                                                 noisy):
    # one summation order for every trial count: the single trajectory is
    # row 0 of a batch of 1 to 5 trials with the same seed, bit for bit
    a = random_alpha(n, np.random.default_rng(seed))
    x0 = spike_vector(n)
    nu = alternating_noise(ticks, 1e-3) if noisy else None
    batch = norm_square_trajectories(x0, a, ticks, trials, seed, noise=nu)
    assert np.array_equal(simulate_affine_gossip(x0, a, ticks, seed,
                                                 noise=nu), batch[0])


def _no_draw(*args, **kwargs):
    raise AssertionError("pairs drawn before the inputs were checked")


@pytest.mark.parametrize("change, name", [
    (dict(ticks=-1), "ticks"),
    (dict(trials=-1), "trials"),
    (dict(noise=np.zeros((4, 2))), "noise"),
    (dict(noise=[np.nan, 0.0, 0.0, 0.0]), "noise"),
    (dict(x0=np.array([np.inf, -1.0, 0.5, 0.5])), "x0"),
    (dict(alpha=[0.4, np.nan, 0.4, 0.4]), "alpha"),
], ids=["negative-ticks", "negative-trials", "2d-noise", "nan-noise",
        "inf-x0", "nan-alpha"])
def test_trajectories_reject_bad_inputs_before_drawing(monkeypatch, change,
                                                       name):
    args = dict(x0=spike_vector(4), alpha=np.full(4, 0.4), ticks=4,
                trials=3, seed=0)
    args.update(change)
    monkeypatch.setattr(affine, "_pair_codes", _no_draw)
    with pytest.raises(ValueError, match=name):
        norm_square_trajectories(**args)


def test_trajectories_traced_peak_memory():
    # The kernel holds the (trials, ticks) block of pair codes, the result,
    # the values, their squares and two chunk buffers the size of the
    # values: about 2.5 times the result at this shape.  Holding the two
    # split (trials, ticks) pair blocks as well takes 3.2 times, and a
    # converted copy of them 4.5 times.
    n, trials, ticks = 32, 2000, 320
    tracemalloc.start()
    try:
        out = norm_square_trajectories(spike_vector(n), np.full(n, 0.4),
                                       ticks, trials, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.75 * out.nbytes
