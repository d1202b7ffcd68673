"""Deterministic numeric kernel: seeded PRNG, Gaussian draws, and rank-2
PCA via power iteration (``np.linalg.eigh`` when that cannot settle).

The PRNG is a pure integer recurrence (a splitmix64-expanded seed driving a
256-bit xoshiro256** state), so a 64-bit seed reproduces the exact same
stream on any platform or language. All other routines are pure functions.

Bulk draws (``Rng.uniforms``, ``Rng.belows``) are lane-parallel and bit for
bit the scalar ``uniform`` and ``below`` streams. xoshiro256** is linear over
GF(2), so jumping ``_LANE * 2**m`` steps ahead is a fixed 256x256 bit matrix
for each level m; the stream is cut into lanes of ``_LANE`` consecutive
draws, and the start states are found in log depth: the level-m jump of the
first ``2**m`` starts gives the next ``2**m``. All lanes then step together
as ``np.uint64`` arrays.
Draws of fewer than ``_MIN_LANES`` lanes take the scalar stream instead.
Gaussians are Box-Muller over whole pairs of ``uniforms`` per call, in one
pass, with libm's ``log``, ``cos`` and ``sin``, as ``math`` gives them.
numpy's float64 ``cos`` and ``sin`` loops call libm. Its float64 ``log`` has
its own SIMD kernel, which differs from libm in the last bit on some inputs;
``_exact_log`` steers it to the scalar loop, which calls libm. ``sqrt`` and
the products are exact IEEE operations.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DegenerateInput, InvalidInput

_MASK64 = (1 << 64) - 1

# Draws per lane of the bulk kernel. Each of its steps is one numpy pass
# over all lanes. 128 beat 64 and 256 on a belows() of 51,200 bounds and
# drew the decoder's weights as fast as 256 (64 was slower).
_LANE = 128
# Fewest lanes for the lane kernel; smaller draws step next_u64(). The kernel
# costs about 0.6 ms however few lanes run. In process on a 2-CPU host, 128
# draws took 0.97 ms through it against 0.09 ms scalar, 512 took 0.58 against
# 0.37, 1024 took 0.59 against 0.73 and 4096 took 0.64 against 4.24.
_MIN_LANES = 8
# pca2's power iteration: stop at 1 - |<w, v>| <= tol; after max_iter steps, eigh takes over.
_PCA_TOL = 1e-8
_PCA_MAX_ITER = 1000


def splitmix64(state: int) -> tuple[int, int]:
    """One splitmix64 step; returns (advanced state, 64-bit output)."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


def derive_seed(seed: int, stream: int) -> int:
    """Deterministic child seed for an independent stream of randomness."""
    state, _ = splitmix64(seed & _MASK64)
    _, out = splitmix64((state ^ (stream & _MASK64)) & _MASK64)
    return out


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


def _step_lanes(state: np.ndarray, steps: int) -> np.ndarray:
    """Advance a (4, lanes) uint64 xoshiro256** state in place ``steps`` times.

    Returns the (lanes, steps) ``s[1]`` words that each step's output
    scrambles, so the scrambling can run once over all of them.
    """
    s0, s1, s2, s3 = state
    seen = np.empty((state.shape[1], steps), dtype=np.uint64)
    t = np.empty_like(s0)
    for j in range(steps):
        seen[:, j] = s1
        np.left_shift(s1, 17, out=t)
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        np.right_shift(s3, 19, out=t)  # s3 = rotl(s3, 45)
        s3 <<= 45
        s3 |= t
    return seen


def _jump(table: np.ndarray, states: np.ndarray) -> np.ndarray:
    """``states``, (k, 4) little-endian words, advanced by the jump ``table`` holds."""
    octets = states.view(np.uint8)
    nibbles = np.stack((octets & 15, octets >> 4), axis=2).reshape(-1, 64)  # nibble p at [:, p]
    columns = table.take(nibbles + np.arange(0, 1024, 16), axis=1)
    out = np.empty((len(states), 4), dtype="<u8")
    np.bitwise_xor.reduce(columns, axis=2, out=out.T)
    return out


@functools.cache
def _jump_table(level: int) -> np.ndarray:
    """Nibble tables of the bit matrix that advances a state ``_LANE * 2**level`` steps.

    Column ``16 * p + v`` holds the four words of the image of the state
    bits ``v`` at nibble ``p`` of the little-endian state, so a jump is 64
    lookups XORed together; words come first so that the XOR runs along
    contiguous memory. Level 0 steps the 256 one-bit states ``_LANE`` times,
    and each later level applies the one before twice. Built once per
    process, on first use.
    """
    bit = np.arange(256)
    images = np.zeros((256, 4), dtype="<u8")  # row i: the state with only bit i set
    images[bit, bit // 64] = np.uint64(1) << (bit % 64).astype(np.uint64)
    if level == 0:
        state = images.T.copy()
        _step_lanes(state, _LANE)
        images = state.T
    else:
        images = _jump(_jump_table(level - 1), _jump(_jump_table(level - 1), images))
    images = images.reshape(64, 4, 4).transpose(2, 0, 1)  # word w of bit 4p + b's image at [w, p, b]
    table = np.zeros((4, 64, 16), dtype=np.uint64)
    for b in range(4):
        table[:, :, 1 << b : 2 << b] = table[:, :, : 1 << b] ^ images[:, :, b, None]
    table = table.reshape(4, 1024)
    table.setflags(write=False)
    return table


def _lane_outputs(state: list[int], lanes: int) -> tuple[np.ndarray, list[int]]:
    """``lanes * _LANE`` next_u64() outputs from ``state`` as uint64, and the state after."""
    starts = np.empty((lanes + 1, 4), dtype="<u8")
    starts[0] = state
    # Lane k + d starts d lanes after lane k: each round doubles the starts known.
    d, level = 1, 0
    while d <= lanes:
        k = min(d, lanes + 1 - d)
        starts[d : d + k] = _jump(_jump_table(level), starts[:k])
        d, level = 2 * d, level + 1
    x = _step_lanes(starts[:lanes].T.copy(), _LANE).ravel()  # lane after lane
    # rotl(s1 * 5, 7) * 9, as next_u64() forms it.
    x *= 5
    t = x >> 57
    x <<= 7
    x |= t
    x *= 9
    return x, starts[lanes].tolist()


class Rng:
    """xoshiro256** generator, state expanded from a 64-bit seed by splitmix64.

    Single-owner mutable state: callers that need parallel streams derive
    independent child seeds via ``derive_seed`` instead of sharing instances.
    """

    __slots__ = ("_s",)

    def __init__(self, seed: int):
        state = seed & _MASK64
        words = []
        for _ in range(4):
            state, word = splitmix64(state)
            words.append(word)
        self._s = words

    def next_u64(self) -> int:
        """Next raw 64-bit output."""
        s = self._s
        out = (_rotl((s[1] * 5) & _MASK64, 7) * 9) & _MASK64
        t = (s[1] << 17) & _MASK64
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = _rotl(s[3], 45)
        return out

    def uniform(self) -> float:
        """Uniform double in (0, 1]; strictly positive so log() is safe."""
        return ((self.next_u64() >> 11) + 1) * 2.0**-53

    def below(self, n: int) -> int:
        """Uniform integer in [0, n), unbiased via rejection sampling."""
        if n <= 0:
            raise InvalidInput("below() requires n >= 1")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            x = self.next_u64()
            if x < limit:
                return x % n

    def _outputs(self, count: int) -> np.ndarray:
        """``count`` next_u64() outputs as uint64, whole lanes in bulk from ``_MIN_LANES`` lanes on."""
        if count < _MIN_LANES * _LANE:
            return np.fromiter((self.next_u64() for _ in range(count)), np.uint64, count)
        bulk, self._s = _lane_outputs(self._s, count // _LANE)
        if tail := count % _LANE:
            bulk = np.concatenate((bulk, np.fromiter((self.next_u64() for _ in range(tail)), np.uint64, tail)))
        return bulk

    def uniforms(self, count: int) -> np.ndarray:
        """``count`` draws identical to repeated uniform(), as float64."""
        if count < 0:
            raise InvalidInput(f"uniforms() requires count >= 0, got {count}")
        x = self._outputs(count)
        x >>= 11
        x += 1
        return x * 2.0**-53

    def belows(self, ns) -> np.ndarray:
        """Draws identical to ``[self.below(n) for n in ns]``, as int64."""
        n = np.asarray(ns)
        if n.size and (n.dtype.kind not in "iu" or n.min() < 1 or n.max() >= 1 << 63):
            raise InvalidInput("belows() requires every n in [1, 2**63)")
        n = n.astype(np.uint64)
        x = self._outputs(len(n))
        # below() rejects x >= 2**64 - r with r = 2**64 mod n < n, so no draw
        # below 2**64 - max(n) can be. Otherwise the rejections are x > ~r,
        # and for r == 0 nothing is rejected, as ~r is the top.
        if n.size and int(x.max()) >= (1 << 64) - int(n.max()):
            top = 0 - n
            top %= n
            np.invert(top, out=top)
            p = 0
            while (bad := np.flatnonzero(x[p:] > top[p:])).size:
                p += int(bad[0])  # draw p is rejected: every later draw shifts by one
                x[p:-1] = x[p + 1 :]
                x[-1] = self.next_u64()
        x %= n
        return x.view(np.int64)  # every draw is below n < 2**63

    def gaussians(self, count: int) -> np.ndarray:
        """``count`` standard normals, Box-Muller over ``ceil(count / 2)`` pairs of ``uniforms``.

        Pair k gives draws 2k (cos) and 2k + 1 (sin) over its own uniforms; an odd count drops its last sin.
        """
        if count < 0:
            raise InvalidInput(f"gaussians() requires count >= 0, got {count}")
        pairs = (count + 1) // 2
        u = self.uniforms(2 * pairs).reshape(pairs, 2)
        # radius and theta read each pair before cos and sin write over it.
        radius = _exact_log(u[:, 0])
        radius *= -2.0
        np.sqrt(radius, out=radius)
        theta = u[:, 1] * (2.0 * math.pi)
        np.cos(theta, out=u[:, 0])
        np.sin(theta, out=u[:, 1])
        u *= radius[:, None]
        return u.ravel()[:count]


def _exact_log(u: np.ndarray) -> np.ndarray:
    """libm's ``log`` of each of ``u``: numpy's float64 ``log`` takes its own SIMD
    kernel for a forward-stepping output or one element, its libm loop otherwise."""
    if len(u) == 1:
        return np.array([math.log(u[0])])
    out = np.empty(len(u))
    np.log(u, out=out[::-1])
    return out[::-1]


def _canonical_sign(v: np.ndarray) -> np.ndarray:
    # Largest-magnitude component made positive so the axis is unique.
    idx = int(np.argmax(np.abs(v)))
    return -v if v[idx] < 0 else v


def _dominant_eigenpair(
    cov: np.ndarray,
    tol: float,
    max_iter: int,
    deflate: tuple[np.ndarray, float] | None = None,
) -> tuple[np.ndarray, float] | None:
    # The dominant pair of cov, or with deflate = (v1, ev1) of cov without
    # that pair, orthogonal to v1. None when the start vector or an iterate
    # vanishes, or when max_iter steps leave 1 - |<w, v>| above tol. The
    # column of largest norm is a cheap one-step head start.
    mat, orthogonal_to = cov, None
    if deflate is not None:
        orthogonal_to, ev = deflate
        mat = cov - ev * np.outer(orthogonal_to, orthogonal_to)
    j = int(np.argsort(-np.linalg.norm(mat, axis=0))[0])
    v = mat[:, j]
    if orthogonal_to is not None:
        v = v - (v @ orthogonal_to) * orthogonal_to
    n = float(np.linalg.norm(v))
    # Relative to cov's column, so that the rounding a deflation leaves of a
    # rank-1 cov counts as vanished at every scale.
    if n <= 1e-12 * float(np.linalg.norm(cov[:, j])):
        return None
    v = v / n
    for _ in range(max_iter):
        w = mat @ v
        if orthogonal_to is not None:
            w = w - (w @ orthogonal_to) * orthogonal_to
        n = float(np.linalg.norm(w))
        if n < 1e-300:
            return None
        w = w / n
        residual = 1.0 - abs(float(w @ v))
        v = w
        if residual <= tol:
            lam = float(v @ (mat @ v))
            return v, lam
    return None


def pca2(rows) -> tuple[np.ndarray, tuple[float, float]]:
    """Project rows onto the top-2 principal axes of their sample covariance.

    Power iteration with deflation; when either power iteration cannot
    settle (it runs out of steps, or its start vector or an iterate
    vanishes, as a zero or rank-1 covariance leaves them), both axes and
    eigenvalues come from ``np.linalg.eigh`` of the same covariance. Axes
    are sign-canonicalized (largest component positive) and returned
    eigenvalues satisfy ev1 >= ev2 >= 0.
    A row with a NaN or infinite entry raises DegenerateInput naming it.

    Returns:
        (projections n x 2, (ev1, ev2))
    """
    x = np.asarray(rows, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 3 or x.shape[1] < 2:
        raise InvalidInput("pca2 expects a matrix with at least 3 rows and 2 columns")
    bad = np.flatnonzero(~np.isfinite(x).all(axis=1))
    if bad.size:
        raise DegenerateInput(f"row {bad[0]} is not finite, so the principal axes are undefined")
    centered = x - x.mean(axis=0)
    cov = (centered.T @ centered) / (x.shape[0] - 1)
    first, second = _dominant_eigenpair(cov, _PCA_TOL, _PCA_MAX_ITER), None
    if first is not None:
        second = _dominant_eigenpair(cov, _PCA_TOL, _PCA_MAX_ITER, deflate=first)
    if second is None:
        # Unsettled, as near-equal top eigenvalues or a vanishing vector leave it: both pairs from eigh.
        evs, vecs = np.linalg.eigh(cov)
        first, second = (vecs[:, -1], float(evs[-1])), (vecs[:, -2], float(evs[-2]))
    (v1, ev1), (v2, ev2) = first, second
    ev1 = max(ev1, 0.0)
    ev2 = min(max(ev2, 0.0), ev1)
    axes = np.stack([_canonical_sign(v1), _canonical_sign(v2)], axis=1)
    return centered @ axes, (ev1, ev2)
