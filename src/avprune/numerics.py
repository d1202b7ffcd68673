"""Deterministic numeric kernel: seeded PRNG, Gaussian draws, and rank-2
PCA via power iteration.

The PRNG is a pure integer recurrence (a splitmix64-expanded seed driving a
256-bit xoshiro256** state), so a 64-bit seed reproduces the exact same
stream on any platform or language. All other routines are pure functions.

Bulk draws (``Rng.uniforms``, ``Rng.gaussians``, ``Rng.belows``) are
lane-parallel and bit for bit the scalar stream. xoshiro256** is linear over
GF(2), so jumping ``_LANE * 2**m`` steps ahead is a fixed 256x256 bit matrix
for each level m; the stream is cut into lanes of ``_LANE`` consecutive
draws, and the start states are found in log depth: the level-m jump of the
first ``2**m`` starts gives the next ``2**m``. All lanes then step together
as ``np.uint64`` arrays.
The float64 stream's Box-Muller keeps ``math.log`` per element, because
numpy's float64 ``log`` has its own SIMD kernel, which differs from libm in
the last bit on some inputs. numpy's float64 ``cos`` and ``sin`` loops call
libm, so they take a whole block at once, as do ``sqrt`` and the products,
which are exact IEEE operations. ``Rng.gaussians_f32``, which draws the toy
decoder's float32 weights, takes numpy's ``log`` too: a last-bit difference
can change a float32 only near a rounding tie, and Ziv's rounding test
finds those few draws and computes them again with ``math.log``.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import ConvergenceFailure, DegenerateInput, InvalidInput

_MASK64 = (1 << 64) - 1

# Draws per lane of the bulk kernel. Each of its steps is one numpy pass
# over all lanes. 128 beat 64 and 256 on a belows() of 51,200 bounds and
# drew the decoder's weights as fast as 256 (64 was slower).
_LANE = 128
# States per jump-table gather: a (4, 32, 64) uint64 block is 64 KiB.
_JUMP_BLOCK = 32
_BOX_MULLER_BLOCK = 8192
# Relative half-width of the band around a scaled draw in which
# Rng.gaussians_f32 computes it again with math.log.
_TIE_BAND = 2.0**-36
# pca2's power iteration: stop at 1 - |<w, v>| <= tol, give up after max_iter steps.
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
    out = np.empty((len(states), 4), dtype="<u8")
    # Blocks bound the gathered (4, block, 64) lookups.
    for lo in range(0, len(states), _JUMP_BLOCK):
        octets = states[lo : lo + _JUMP_BLOCK].view(np.uint8)
        nibbles = np.stack((octets & 15, octets >> 4), axis=2).reshape(-1, 64)  # nibble p at [:, p]
        columns = table.take(nibbles + np.arange(0, 1024, 16), axis=1)
        np.bitwise_xor.reduce(columns, axis=2, out=out[lo : lo + _JUMP_BLOCK].T)
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

    __slots__ = ("_s", "_gauss_spare")

    def __init__(self, seed: int):
        state = seed & _MASK64
        words = []
        for _ in range(4):
            state, word = splitmix64(state)
            words.append(word)
        self._s = words
        self._gauss_spare: float | None = None

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

    def gaussian(self) -> float:
        """Standard normal draw (Box-Muller over the uniform stream)."""
        if self._gauss_spare is not None:
            z = self._gauss_spare
            self._gauss_spare = None
            return z
        radius = math.sqrt(-2.0 * math.log(self.uniform()))
        theta = 2.0 * math.pi * self.uniform()
        self._gauss_spare = radius * math.sin(theta)
        return radius * math.cos(theta)

    def _outputs(self, count: int) -> np.ndarray:
        """``count`` next_u64() outputs as uint64: whole lanes in bulk, the tail scalar."""
        lanes, tail = divmod(count, _LANE)
        bulk = np.empty(0, dtype=np.uint64)
        if lanes:
            bulk, self._s = _lane_outputs(self._s, lanes)
        if not tail:
            return bulk
        return np.concatenate((bulk, np.fromiter((self.next_u64() for _ in range(tail)), np.uint64, tail)))

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
        """``count`` draws identical to repeated gaussian(), spare included."""
        if count < 0:
            raise InvalidInput(f"gaussians() requires count >= 0, got {count}")
        head = []
        if count and self._gauss_spare is not None:
            head = [self._gauss_spare]
            self._gauss_spare = None
        pairs = (count - len(head) + 1) // 2
        u = self.uniforms(2 * pairs).reshape(pairs, 2)
        z = np.empty((pairs, 2))
        # Blocks bound the Python float list that math.log goes through.
        for lo in range(0, pairs, _BOX_MULLER_BLOCK):
            hi = min(lo + _BOX_MULLER_BLOCK, pairs)
            _box_muller(u[lo:hi], _exact_log(u[lo:hi, 0]), out=z[lo:hi])
        z = z.ravel()
        if (count - len(head)) % 2:
            self._gauss_spare = float(z[-1])
            z = z[:-1]
        return np.concatenate((head, z)) if head else z

    def gaussians_f32(self, count: int, scale: float) -> np.ndarray:
        """``(self.gaussians(count) * scale).astype(np.float32)``, byte for byte.

        numpy's vectorised ``log`` gives every radius, and Ziv's rounding
        test finds the draws whose float32 value it could change: a draw is
        unsure when some value within a relative ``_TIE_BAND`` of its scaled
        float64 value rounds to another float32, or when it is zero. Only
        the pairs holding an unsure draw are computed again with
        ``math.log``. numpy's ``log`` is within a few ulp (about 2**-50
        relative) of libm's, far inside the band. An odd count or a pending
        spare takes the exact path.
        """
        if count < 0:
            raise InvalidInput(f"gaussians_f32() requires count >= 0, got {count}")
        if count % 2 or self._gauss_spare is not None:
            return (self.gaussians(count) * scale).astype(np.float32)
        pairs = count // 2
        u = self.uniforms(count).reshape(pairs, 2)
        out = np.empty((pairs, 2), dtype=np.float32)
        for lo in range(0, pairs, _BOX_MULLER_BLOCK):
            hi = min(lo + _BOX_MULLER_BLOCK, pairs)
            ub = u[lo:hi]
            yb = _box_muller(ub, _fast_log(ub[:, 0]), out=np.empty((hi - lo, 2)))
            yb *= scale
            # Rounding is monotone, so where both band edges round to one
            # float32, so does every value between them.
            lower = (yb * (1.0 - _TIE_BAND)).astype(np.float32)
            unsure = lower != (yb * (1.0 + _TIE_BAND)).astype(np.float32)
            unsure |= yb == 0.0
            redo = np.flatnonzero(unsure[:, 0] | unsure[:, 1])
            if redo.size:
                exact = _box_muller(ub[redo], _exact_log(ub[redo, 0]), out=np.empty((redo.size, 2)))
                exact *= scale
                yb[redo] = exact
            out[lo:hi] = yb
        return out.ravel()


# Box-Muller's radius log: numpy's vectorised kernel for the float32 fast
# pass, and per-element libm, which the float64 stream is defined by.
_fast_log = np.log


def _exact_log(u: np.ndarray) -> np.ndarray:
    return np.fromiter(map(math.log, u.tolist()), np.float64, len(u))


def _box_muller(u: np.ndarray, radius: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Gaussian pairs from uniform pairs ``u`` into ``out``; ``radius`` holds ``log(u[:, 0])`` on entry."""
    radius *= -2.0
    np.sqrt(radius, out=radius)
    theta = u[:, 1] * (2.0 * math.pi)
    np.cos(theta, out=out[:, 0])
    np.sin(theta, out=out[:, 1])
    out *= radius[:, None]
    return out


def _canonical_sign(v: np.ndarray) -> np.ndarray:
    # Largest-magnitude component made positive so the axis is unique.
    idx = int(np.argmax(np.abs(v)))
    return -v if v[idx] < 0 else v


def _start_vector(mat: np.ndarray, orthogonal_to: np.ndarray | None) -> np.ndarray:
    # Column of largest norm is a cheap one-step head start; fall back to
    # basis vectors if the matrix is (numerically) zero.
    norms = np.linalg.norm(mat, axis=0)
    candidates = list(np.argsort(-norms))
    for j in candidates + list(range(mat.shape[0])):
        v = mat[:, int(j)].copy() if norms[int(j)] > 0 else np.eye(mat.shape[0])[int(j)]
        if orthogonal_to is not None:
            v = v - (v @ orthogonal_to) * orthogonal_to
        n = float(np.linalg.norm(v))
        if n > 1e-12:
            return v / n
    raise DegenerateInput("no usable start vector")


def _dominant_eigenpair(
    mat: np.ndarray,
    tol: float,
    max_iter: int,
    orthogonal_to: np.ndarray | None = None,
) -> tuple[np.ndarray, float]:
    v = _start_vector(mat, orthogonal_to)
    residual = 1.0
    for _ in range(max_iter):
        w = mat @ v
        if orthogonal_to is not None:
            w = w - (w @ orthogonal_to) * orthogonal_to
        n = float(np.linalg.norm(w))
        if n < 1e-300:
            # v is (numerically) in the nullspace: eigenvalue 0.
            return v, 0.0
        w = w / n
        residual = 1.0 - abs(float(w @ v))
        v = w
        if residual <= tol:
            lam = float(v @ (mat @ v))
            return v, lam
    raise ConvergenceFailure("power iteration did not converge", residual)


def pca2(rows) -> tuple[np.ndarray, tuple[float, float]]:
    """Project rows onto the top-2 principal axes of their sample covariance.

    Power iteration with deflation; axes are sign-canonicalized (largest
    component positive) and returned eigenvalues satisfy ev1 >= ev2 >= 0.
    A row with a NaN or infinite entry raises DegenerateInput naming it.

    Returns:
        (projections n x 2, (ev1, ev2))
    """
    x = np.asarray(rows, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 3:
        raise InvalidInput("pca2 expects a matrix with at least 3 rows")
    bad = np.flatnonzero(~np.isfinite(x).all(axis=1))
    if bad.size:
        raise DegenerateInput(f"row {bad[0]} is not finite, so the principal axes are undefined")
    centered = x - x.mean(axis=0)
    cov = (centered.T @ centered) / (x.shape[0] - 1)
    v1, ev1 = _dominant_eigenpair(cov, _PCA_TOL, _PCA_MAX_ITER)
    deflated = cov - ev1 * np.outer(v1, v1)
    v2, ev2 = _dominant_eigenpair(deflated, _PCA_TOL, _PCA_MAX_ITER, orthogonal_to=v1)
    ev1 = max(ev1, 0.0)
    ev2 = min(max(ev2, 0.0), ev1)
    axes = np.stack([_canonical_sign(v1), _canonical_sign(v2)], axis=1)
    return centered @ axes, (ev1, ev2)
