"""Affine pairwise gossip on the complete graph, with brute-force oracles.

The update is non-convex: the active pair (i, j) moves to

    x_i' = (1 - alpha_i) x_i + alpha_j x_j + nu
    x_j' = (1 - alpha_j) x_j + alpha_i x_i - nu

with every alpha strictly inside (1/3, 1/2), so the pair sum is preserved
exactly while individual values may overshoot; nu is optional
antisymmetric noise, zero in the clean dynamics.  affine_pair_update is
the one scalar form of this update.  The module also provides the
closed-form second-moment matrix E[A^T A] of one update, its exhaustive
enumeration oracle, the spectral contraction factor on the mean-zero
subspace, the decay/tail/deviation bounds, and one Monte Carlo kernel,
norm_square_trajectories, with simulate_affine_gossip as its
single-trajectory entry point.

Each update of the kernel takes one uniform ordered pair, the law the
closed-form moments assume.  norm_square_trajectories checks its inputs,
then draws every pair as one (trials, ticks) block of codes, row r
driving trial r, for the kernel: plain vectorised numpy that steps every
trial one tick at a time on one (n, trials) array of values, at least two
columns wide so that every norm sums in node order.  It reads the codes
tick-major, a chunk of ticks at a time, as contiguous rows of flat
positions in that array and of the weights they select, so the tick loop
does only the arithmetic that depends on values, and each tick's norms
fill one contiguous row.  Zero noise reproduces the clean run bit for bit.
"""

import math

import numpy as np

ALPHA_LOW = 1.0 / 3.0
ALPHA_HIGH = 1.0 / 2.0


def _as_alpha(alpha) -> np.ndarray:
    a = np.ascontiguousarray(alpha, dtype=np.float64)
    if a.ndim != 1 or a.shape[0] < 2:
        raise ValueError("alpha must be a vector of length >= 2")
    return a


def validate_alpha(alpha) -> np.ndarray:
    """Return alpha as a float array, rejecting entries outside (1/3, 1/2)."""
    a = _as_alpha(alpha)
    outside = ~((a > ALPHA_LOW) & (a < ALPHA_HIGH))   # nan is outside
    if np.any(outside):
        raise ValueError(f"alpha entries must lie strictly inside "
                         f"(1/3, 1/2), got {a[outside][0]}")
    return a


def affine_pair_update(x, i: int, j: int, alpha, nu: float = 0.0,
                       ) -> np.ndarray:
    """One pairwise affine update, returned as a new vector.

    After the update x_i gains nu and x_j loses it, so the pair sum is
    exact: the same alpha_i*x_i and alpha_j*x_j terms move between the two
    entries and the noise cancels.  nu = 0 is the clean update.

    Args:
        x: value vector.
        i, j: distinct node indices.
        alpha: mixing weights, validated to (1/3, 1/2).
        nu: antisymmetric noise added after the update.

    Raises:
        ValueError: if i == j or alpha is out of range.
    """
    if i == j:
        raise ValueError(f"pair indices must differ, got i == j == {i}")
    a = validate_alpha(alpha)
    out = np.array(x, dtype=np.float64, copy=True)
    i, j = int(i), int(j)
    xi = out[i]
    xj = out[j]
    out[i] = (1.0 - a[i]) * xi + a[j] * xj
    out[j] = (1.0 - a[j]) * xj + a[i] * xi
    if nu != 0.0:
        out[i] += nu
        out[j] -= nu
    return out


def update_matrix(n: int, i: int, j: int, alpha) -> np.ndarray:
    """The linear map A of one update: x' = A x for the ordered pick (i, j)."""
    a = np.asarray(alpha, dtype=np.float64)
    m = np.eye(n)
    m[i, i] = 1.0 - a[i]
    m[i, j] = a[j]
    m[j, j] = 1.0 - a[j]
    m[j, i] = a[i]
    return m


def expected_quadratic_form(alpha) -> np.ndarray:
    """Closed-form M = E[A^T A] over a uniform ordered pair pick.

    M = I (1 - 1/(n-1)) + 11^T / (n(n-1)) - u u^T / (n(n-1))
        + diag(u_i^2) / (n-1),   u = 1 - 2 alpha.

    Valid for any alpha vector of length >= 2; the contraction bound below
    additionally needs entries inside (1/3, 1/2).

    Raises:
        ValueError: if alpha has fewer than 2 entries.
    """
    a = _as_alpha(alpha)
    n = a.shape[0]
    u = 1.0 - 2.0 * a
    m = np.eye(n) * (1.0 - 1.0 / (n - 1))
    m += np.ones((n, n)) / (n * (n - 1))
    m -= np.outer(u, u) / (n * (n - 1))
    m += np.diag(u * u) / (n - 1)
    return m


def enumerated_quadratic_form(alpha) -> np.ndarray:
    """Oracle: average A^T A over all n(n-1) ordered picks, each weight equal."""
    a = _as_alpha(alpha)
    n = a.shape[0]
    acc = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            m = update_matrix(n, i, j, a)
            acc += m.T @ m
    return acc / (n * (n - 1))


def contraction_factor(alpha) -> float:
    """Max of v^T M v over unit v orthogonal to the all-ones vector."""
    m = expected_quadratic_form(alpha)
    n = m.shape[0]
    p = np.eye(n) - np.ones((n, n)) / n
    s = p @ m @ p
    s = (s + s.T) / 2.0
    return float(np.linalg.eigvalsh(s)[-1])


def contraction_bound(n: int) -> float:
    """Spectral bound 1 - 8/(9(n-1)) on the mean-zero subspace."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return 1.0 - 8.0 / (9.0 * (n - 1))


def mean_square_decay_bound(t: int, n: int) -> float:
    """Expected-norm-square bound (1 - 1/(2n))^t for mean-zero starts."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return (1.0 - 1.0 / (2.0 * n)) ** t


def markov_tail_bound(t: int, n: int, eps: float) -> float:
    """Tail bound min(1, eps^-2 (1 - 1/(2n))^t) on P(|x(t)| > eps |x(0)|)."""
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    return min(1.0, eps ** -2 * mean_square_decay_bound(t, n))


def perturbed_deviation_bound(t: int, n: int, a: float, eps: float,
                              norm_y0: float) -> float:
    """Deviation bound n^(a/2) ((1-1/(2n))^(t/2) |y0| + 8 sqrt(2) n^(3/2) eps).

    The noisy trajectory exceeds this with probability at most 5/n^a.

    Raises:
        ValueError: on negative arguments or n < 2.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if t < 0 or a < 0 or eps < 0 or norm_y0 < 0:
        raise ValueError("t, a, eps, norm_y0 must be nonnegative")
    decay = (1.0 - 1.0 / (2.0 * n)) ** (t / 2.0)
    return n ** (a / 2.0) * (decay * norm_y0 + 8.0 * math.sqrt(2.0) * n ** 1.5 * eps)


def alternating_noise(ticks: int, eps: float) -> np.ndarray:
    """Adversarial worst-case-style noise eps * (-1)^t, t = 0..ticks-1."""
    nu = np.full(ticks, eps, dtype=np.float64)
    nu[1::2] *= -1.0
    return nu


def draw_pairs(n: int, trials: int, ticks: int, seed: int):
    """The ordered pairs that drive `trials` runs of `ticks` updates each.

    One block k = integers(0, n(n-1), size=(trials, ticks)) is drawn from
    default_rng(seed) and split as i = k // (n-1), j = k % (n-1), with j
    shifted past i, so every draw is a uniform ordered pair with i != j.
    Row r drives trial r; numpy fills the block row by row, so row 0 of a
    batch is the pair sequence of a single-trial run with the same seed.

    Returns:
        (i, j), two (trials, ticks) int64 arrays.
    """
    return _split_pairs(_pair_codes(n, trials, ticks, seed), n)


def _pair_codes(n, trials, ticks, seed):
    # draw_pairs in two steps, so the kernel can keep the codes (one entry
    # per update, half the size of the pairs) and split them a chunk at a time
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return np.random.default_rng(seed).integers(0, n * (n - 1),
                                                size=(trials, ticks))


def _split_pairs(k, n, out=(None, None)):
    i, j = np.divmod(k, n - 1, out=out)
    j += j >= i
    return i, j


def _trajectories(x0, alpha, codes, nu):
    # x is (n, width), width = max(trials, 2): node v of trial r sits at
    # flat position v * width + r, and the norm reduction over axis 0 adds
    # x_0^2, x_1^2, ... in order (numpy sums a lone column pairwise, hence
    # the idle column of a single trial).  sq holds x * x entry for entry,
    # kept current by squaring only the two entries a tick writes.
    n = x0.shape[0]
    trials, ticks = codes.shape
    width = max(trials, 2)
    x = np.repeat(x0[:, None], width, axis=1)
    flat = x.reshape(-1)
    sq = x * x
    sq_flat = sq.reshape(-1)
    out = np.empty((trials, ticks + 1), dtype=np.float64)
    out[:, 0] = np.add.reduce(sq, axis=0)[:trials]
    # The codes are split a chunk of ticks at a time into tick-major rows,
    # so no whole block of pairs is held; (n + 3) // 4 ticks keep each chunk
    # buffer about the size of x (4 entries per trial and tick against n per
    # trial).  Row t of pos holds the flat positions of (i, j, j, i) for
    # every trial, and row t of weight the matching (1 - alpha_i,
    # 1 - alpha_j, alpha_j, alpha_i).
    step = max(1, min(ticks, (n + 3) // 4))
    pos = np.empty((step, 4, trials), dtype=np.intp)
    weight = np.empty((step, 4, trials), dtype=np.float64)
    norms = np.empty((step, width), dtype=np.float64)
    col = np.arange(trials)
    signed = np.stack([nu, -nu], axis=1)[:, :, None]
    noisy = (nu != 0.0).tolist()
    for t0 in range(0, ticks, step):
        t1 = min(t0 + step, ticks)
        p, w, rows = pos[:t1 - t0], weight[:t1 - t0], norms[:t1 - t0]
        _split_pairs(codes[:, t0:t1].T, n, out=(p[:, 0], p[:, 1]))
        p[:, 2:] = p[:, 1::-1]
        # node ids are in range, so "clip" changes none; it only spares the
        # copy of w that take makes under the default "raise"
        np.take(alpha, p, out=w, mode="clip")
        np.subtract(1.0, w[:, :2], out=w[:, :2])
        p *= width
        p += col
        # affine_pair_update's arithmetic on every trial at once: y holds
        # (1 - alpha_i) x_i, (1 - alpha_j) x_j, alpha_j x_j, alpha_i x_i, and
        # adding -nu rounds exactly as subtracting nu does
        for t, pt, wt, row in zip(range(t0, t1), p, w, rows):
            y = flat[pt]
            y *= wt
            new = y[:2]
            new += y[2:]
            if noisy[t]:
                new += signed[t]
            ends = pt[:2]
            flat[ends] = new
            new *= new
            sq_flat[ends] = new
            np.add.reduce(sq, axis=0, out=row)
        out[:, t0 + 1:t1 + 1] = rows[:, :trials].T
    return out


def norm_square_trajectories(x0, alpha, ticks: int, trials: int, seed: int,
                             noise=None) -> np.ndarray:
    """|x(t)|^2 for `trials` independent runs of `ticks` updates each.

    Each update picks one uniform ordered pair (i, j), i != j; after the
    input checks all pairs are drawn as one block (see draw_pairs), row r
    driving trial r.  The kernel keeps every trial's values in one (n,
    trials) array, at least two columns wide so that every norm sums in
    node order, and steps all trials one tick at a time.  It splits the
    drawn block, a chunk of ticks at a time, into tick-major rows of flat
    positions in that array and of the weights they select, so a tick is
    one gather, one multiply and one add for both ends, the noise folded in
    when it is nonzero, one scatter, and the norm reduced into a
    contiguous row; each chunk's rows are then copied into the result.

    Args:
        x0: start vector, shared by all trials; must be finite.
        alpha: mixing weights.
        ticks: updates per trial, >= 0.
        trials: number of independent runs (one shared RNG stream), >= 0.
        seed: RNG seed.
        noise: optional per-tick antisymmetric noise magnitudes, a finite
            vector of length `ticks`; zeros reproduce the unperturbed
            dynamics bit for bit.

    Returns:
        C-contiguous (trials, ticks + 1) array, column t holding |x(t)|^2.

    Raises:
        ValueError: naming the argument, before any pair is drawn, if ticks
            or trials is negative, alpha is out of range, x0 does not match
            alpha or is not finite, or noise is not a finite vector of
            length `ticks`.
    """
    if ticks < 0:
        raise ValueError(f"ticks must be >= 0, got {ticks}")
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    a = validate_alpha(alpha)
    x = np.ascontiguousarray(x0, dtype=np.float64)
    if x.shape != a.shape:
        raise ValueError("x0 and alpha must have the same length")
    if not np.all(np.isfinite(x)):
        raise ValueError("x0 must be finite")
    if noise is None:
        nu = np.zeros(ticks, dtype=np.float64)
    else:
        nu = np.ascontiguousarray(noise, dtype=np.float64)
        if nu.shape != (ticks,):
            raise ValueError(f"noise must be a vector of length {ticks}, "
                             f"got shape {nu.shape}")
        if not np.all(np.isfinite(nu)):
            raise ValueError("noise must be finite")
    return _trajectories(x, a, _pair_codes(len(a), trials, ticks, seed), nu)


def simulate_affine_gossip(x0, alpha, ticks: int, seed: int,
                           noise=None) -> np.ndarray:
    """One trajectory of |x(t)|^2 under uniform ordered-pair gossip.

    Args:
        x0: start vector; its mean must be zero (the bounds assume it).
        alpha: mixing weights.
        ticks: number of updates, >= 0.
        seed: RNG seed for the pair draws (see draw_pairs), which do not
            depend on the noise; the trajectory is row 0 of
            norm_square_trajectories with the same seed and noise, bit for
            bit.
        noise: optional length-`ticks` array of nu values, added as
            +nu/-nu; zeros reproduce the clean trajectory bit for bit.

    Raises:
        ValueError: if the start is not mean-zero, or on any input that
            norm_square_trajectories rejects.
    """
    x = np.asarray(x0, dtype=np.float64)
    total = float(x.sum())
    if abs(total) > 1e-9 * max(1.0, float(np.abs(x).sum())):
        raise ValueError(f"start vector must sum to zero, got sum {total}")
    return norm_square_trajectories(x, alpha, ticks, 1, seed, noise=noise)[0]


def spike_vector(n: int) -> np.ndarray:
    """Mean-zero spike: one at node 0, shifted so the sum is exactly zero."""
    x = np.full(n, -1.0 / n)
    x[0] += 1.0
    return x


def random_alpha(n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform alpha strictly inside (1/3, 1/2)."""
    while True:
        a = ALPHA_LOW + (ALPHA_HIGH - ALPHA_LOW) * rng.random(n)
        if np.all(a > ALPHA_LOW) and np.all(a < ALPHA_HIGH):
            return a
