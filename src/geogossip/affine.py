"""Affine pairwise gossip on the complete graph, with brute-force oracles.

The update is non-convex: the active pair (i, j) moves to

    x_i' = (1 - alpha_i) x_i + alpha_j x_j
    x_j' = (1 - alpha_j) x_j + alpha_i x_i

with every alpha strictly inside (1/3, 1/2), so the pair sum is preserved
exactly while individual values may overshoot.  The module provides the
closed-form second-moment matrix E[A^T A] of one update, its exhaustive
enumeration oracle, the spectral contraction factor on the mean-zero
subspace, Monte Carlo trajectory simulators (optionally with bounded
antisymmetric noise), and the decay/tail/deviation bounds they are tested
against.

In the simulators each update draws one uniform ordered pair, the law the
closed-form moments assume.  All pairs are drawn as one (trials, ticks)
block before the loop, row r driving trial r, and the kernel is plain
vectorised numpy that steps every trial one tick at a time.  Zero noise
reproduces the clean run bit for bit.
"""

import math
from dataclasses import dataclass

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
    if np.any(a <= ALPHA_LOW) or np.any(a >= ALPHA_HIGH):
        bad = a[(a <= ALPHA_LOW) | (a >= ALPHA_HIGH)][0]
        raise ValueError(
            f"alpha entries must lie strictly inside (1/3, 1/2), got {bad}")
    return a


@dataclass
class AffineSystem:
    """Value vector plus per-node mixing weights on the complete graph."""

    alpha: np.ndarray
    x: np.ndarray

    def __post_init__(self):
        self.alpha = validate_alpha(self.alpha)
        self.x = np.ascontiguousarray(self.x, dtype=np.float64)
        if self.x.shape != self.alpha.shape:
            raise ValueError("x and alpha must have the same length")

    @property
    def n(self) -> int:
        return int(self.alpha.shape[0])

    def update(self, i: int, j: int):
        """Apply one pairwise update in place."""
        _pair_update(self.x, i, j, self.alpha, 0.0)


@dataclass
class PerturbedSystem:
    """AffineSystem whose updates add +nu to one node and -nu to the other."""

    alpha: np.ndarray
    y: np.ndarray
    noise_bound: float

    def __post_init__(self):
        self.alpha = validate_alpha(self.alpha)
        self.y = np.ascontiguousarray(self.y, dtype=np.float64)
        if self.y.shape != self.alpha.shape:
            raise ValueError("y and alpha must have the same length")
        if self.noise_bound < 0:
            raise ValueError(f"noise bound must be >= 0, got {self.noise_bound}")

    @property
    def n(self) -> int:
        return int(self.alpha.shape[0])

    def update(self, i: int, j: int, nu: float):
        if abs(nu) > self.noise_bound:
            raise ValueError(f"|nu|={abs(nu)} exceeds the bound {self.noise_bound}")
        _pair_update(self.y, i, j, self.alpha, nu)


def _pair_update(x, i, j, alpha, nu):
    # pair sum is exact: the same alpha_i*x_i and alpha_j*x_j terms move
    # between the two entries, and the +-nu noise cancels
    xi = x[i]
    xj = x[j]
    x[i] = (1.0 - alpha[i]) * xi + alpha[j] * xj
    x[j] = (1.0 - alpha[j]) * xj + alpha[i] * xi
    if nu != 0.0:
        x[i] += nu
        x[j] -= nu


def affine_pair_update(x, i: int, j: int, alpha) -> np.ndarray:
    """One pairwise affine update, returned as a new vector.

    Args:
        x: value vector.
        i, j: distinct node indices.
        alpha: mixing weights, validated to (1/3, 1/2).

    Raises:
        ValueError: if i == j or alpha is out of range.
    """
    if i == j:
        raise ValueError(f"pair indices must differ, got i == j == {i}")
    a = validate_alpha(alpha)
    out = np.array(x, dtype=np.float64, copy=True)
    _pair_update(out, int(i), int(j), a, 0.0)
    return out


def perturbed_pair_update(y, i: int, j: int, alpha, nu: float) -> np.ndarray:
    """affine_pair_update followed by y_i += nu, y_j -= nu."""
    if i == j:
        raise ValueError(f"pair indices must differ, got i == j == {i}")
    a = validate_alpha(alpha)
    out = np.array(y, dtype=np.float64, copy=True)
    _pair_update(out, int(i), int(j), a, float(nu))
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
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    k = np.random.default_rng(seed).integers(0, n * (n - 1),
                                             size=(trials, ticks))
    i, j = np.divmod(k, n - 1)
    j += j >= i
    return i, j


def _trajectories(x0, alpha, pi, pj, noise):
    # tick-major over all trials: x is (n, trials), so column r is trial r
    # and the norm reduction over axis 0 adds x_0^2, x_1^2, ... in order.
    # Each tick is _pair_update's arithmetic on every trial at once.
    trials, ticks = pi.shape
    x = np.repeat(x0[:, None], trials, axis=1)
    flat = x.reshape(-1)
    sq = np.empty_like(x)
    out = np.empty((trials, ticks + 1), dtype=np.float64)
    np.multiply(x, x, out=sq)
    np.add.reduce(sq, axis=0, out=out[:, 0])
    col = np.arange(trials)
    for t in range(ticks):
        i = pi[:, t]
        j = pj[:, t]
        fi = i * trials + col
        fj = j * trials + col
        xi = flat[fi]
        xj = flat[fj]
        ai = alpha[i]
        aj = alpha[j]
        flat[fi] = (1.0 - ai) * xi + aj * xj
        flat[fj] = (1.0 - aj) * xj + ai * xi
        if noise[t] != 0.0:
            flat[fi] += noise[t]
            flat[fj] -= noise[t]
        np.multiply(x, x, out=sq)
        np.add.reduce(sq, axis=0, out=out[:, t + 1])
    return out


def norm_square_trajectories(x0, alpha, ticks: int, trials: int, seed: int,
                             noise=None) -> np.ndarray:
    """|x(t)|^2 for `trials` independent runs of `ticks` updates each.

    Each update picks one uniform ordered pair (i, j), i != j; all pairs are
    drawn as one block before the loop (see draw_pairs), row r driving
    trial r.  The kernel is vectorised numpy that steps every trial one tick
    at a time.

    Args:
        x0: start vector, shared by all trials.
        alpha: mixing weights.
        ticks: updates per trial.
        trials: number of independent runs (one shared RNG stream).
        seed: RNG seed.
        noise: optional per-tick antisymmetric noise magnitudes, length
            `ticks`; zeros reproduce the unperturbed dynamics bit for bit.

    Returns:
        (trials, ticks + 1) array, column t holding |x(t)|^2.
    """
    a = validate_alpha(alpha)
    x = np.ascontiguousarray(x0, dtype=np.float64)
    if x.shape != a.shape:
        raise ValueError("x0 and alpha must have the same length")
    if noise is None:
        nu = np.zeros(ticks, dtype=np.float64)
    else:
        nu = np.ascontiguousarray(noise, dtype=np.float64)
        if nu.shape[0] != ticks:
            raise ValueError(f"noise must have length {ticks}, got {nu.shape[0]}")
    pi, pj = draw_pairs(a.shape[0], trials, ticks, seed)
    return _trajectories(x, a, pi, pj, nu)


def simulate_affine_gossip(x0, alpha, ticks: int, seed: int,
                           center: bool = False) -> np.ndarray:
    """One trajectory of |x(t)|^2 under uniform ordered-pair gossip.

    Args:
        x0: start vector; its mean must be zero (the bounds assume it).
        alpha: mixing weights.
        ticks: number of updates, >= 0.
        seed: RNG seed for the pair draws (see draw_pairs); the trajectory
            equals row 0 of norm_square_trajectories with the same seed.
        center: subtract the mean instead of rejecting a nonzero-sum start.

    Raises:
        ValueError: if ticks < 0 or the start is not mean-zero (and center
            is False).
    """
    if ticks < 0:
        raise ValueError(f"ticks must be >= 0, got {ticks}")
    x = np.array(x0, dtype=np.float64, copy=True)
    total = float(x.sum())
    if center:
        x -= total / x.shape[0]
    elif abs(total) > 1e-9 * max(1.0, float(np.abs(x).sum())):
        raise ValueError(f"start vector must sum to zero, got sum {total}")
    return norm_square_trajectories(x, alpha, ticks, 1, seed)[0]


def simulate_perturbed_gossip(y0, alpha, ticks: int, seed: int, noise,
                              noise_bound: float | None = None) -> np.ndarray:
    """One noisy trajectory of |y(t)|^2; noise[t] is added as +nu/-nu.

    Args:
        y0: start vector (mean-zero like the unperturbed case).
        alpha: mixing weights.
        ticks: number of updates.
        seed: RNG seed for the pair draws (see draw_pairs), which do not
            depend on the noise; sharing it with simulate_affine_gossip and
            passing zero noise reproduces that trajectory exactly.
        noise: length-`ticks` array of nu values.
        noise_bound: optional cap; raises if any |noise[t]| exceeds it.
    """
    nu = np.ascontiguousarray(noise, dtype=np.float64)
    if noise_bound is not None and nu.size and float(np.abs(nu).max()) > noise_bound:
        raise ValueError(f"noise exceeds the bound {noise_bound}")
    y = np.array(y0, dtype=np.float64, copy=True)
    total = float(y.sum())
    if abs(total) > 1e-9 * max(1.0, float(np.abs(y).sum())):
        raise ValueError(f"start vector must sum to zero, got sum {total}")
    return norm_square_trajectories(y, alpha, ticks, 1, seed, noise=nu)[0]


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
