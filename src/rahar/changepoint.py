"""Multiple change-point detection by hierarchical divisive estimation.

Distribution shifts in a multivariate observation sequence are located
with energy statistics: for sample sets X (size n) and Y (size m) the
empirical divergence is

    E = (2/(mn)) * sum_ij |Xi - Yj|^a
        - C(n,2)^-1 * sum_{i<k} |Xi - Xk|^a
        - C(m,2)^-1 * sum_{j<k} |Yj - Yk|^a,      0 < a < 2,

and the scaled statistic Q = (mn/(m+n)) * E grows without bound under a
true distributional difference.  The divisive estimator repeatedly picks
the split that maximizes Q across all current segments, tests it by
permuting observations within segments, and commits it while the
permutation p-value stays at or below the significance level.

One prefix-sum kernel scores every split of a block of orderings at
once: the identity ordering for the split scan, a block of permutations
for the test.  It adds distance rows in the same sequence a column-wise
cumulative sum would, so every statistic is bit-identical to the
one-permutation-at-a-time formula.  Inside :func:`e_divisive` a test scores
a small first block of ``FIRST_BLOCK`` permutations, then the usual
blocks, and stops after the first block at which (1 + exceedances) /
(R + 1) already exceeds the significance level; a rejected split is
mostly decided by the first few permutations.  Such a rejected p-value
never leaves the function, while a committed split always spends all R
permutations and reports the exact p-value that :func:`permutation_test`
returns.

All randomness flows through per-permutation streams: permutation r of
test i draws its orders from numpy's
``Generator(PCG64(SeedSequence([master_seed, i, r])))``, where the
pipeline's master seed is ``derive_seed(seed, recording, segment)``.  So
results are identical regardless of evaluation order, block size or early
stopping.  The PCG64 states of a block of streams are computed in one
vectorized pass of numpy's own SeedSequence and PCG64 seeding recipes
(checked against numpy 2.4.6), and one reused generator is set to each in
turn.  NEP 19 keeps bit-generator streams stable across numpy versions,
but not the output of ``Generator.permutation``, so the pinned digests can
move with numpy.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import SegmentTooSmall

# Elements of one (block, L) float64 kernel buffer: about 256 KiB, so the
# running sums stay cache resident while distance rows stream past.
BLOCK_ELEMENTS = 32768
# Permutations in the first block of an early-stopped test.  A rejected test
# is decided by its first exceedance, which mostly falls in the first few
# permutations; a committed test pays one extra kernel pass for it.
FIRST_BLOCK = 8

# The constants of numpy's SeedSequence (numpy/random/bit_generator.pyx)
# and of PCG64's 128-bit seeding
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
# generate_state xors the k-th of its eight words with constant k, then
# multiplies it by constant k + 1
_GENERATE_CONSTS = np.array(
    [0x8B51F9DD * pow(0x58F38DED, k, 1 << 32) & _MASK32 for k in range(9)], dtype=np.uint32
)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


@dataclass(frozen=True)
class EnergyParams:
    alpha_exp: float = 1.0
    min_segment: int = 30

    def __post_init__(self):
        if not 0.0 < self.alpha_exp < 2.0:
            raise ValueError(f"alpha_exp must be in (0, 2), got {self.alpha_exp}")
        if self.min_segment < 2:
            raise ValueError(f"min_segment must be >= 2, got {self.min_segment}")


@dataclass(frozen=True)
class PermutationConfig:
    n_permutations: int = 99
    significance: float = 0.01
    master_seed: int = 0

    def __post_init__(self):
        if self.n_permutations < 1:
            raise ValueError(f"n_permutations must be >= 1, got {self.n_permutations}")
        if not 0.0 < self.significance < 1.0:
            raise ValueError(f"significance must be in (0, 1), got {self.significance}")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be non-negative, got {self.master_seed}")


@dataclass(frozen=True)
class ChangePoint:
    """A committed split: offset within the span, its Q statistic and p-value."""

    index: int
    statistic: float
    p_value: float


ChangePointSet = list[ChangePoint]


def _as_observations(span) -> np.ndarray:
    obs = np.asarray(span, dtype=float)
    if obs.ndim == 1:
        obs = obs[:, None]
    if obs.ndim != 2:
        raise ValueError(f"observations must be 1-D or 2-D, got shape {obs.shape}")
    if not np.all(np.isfinite(obs)):
        raise ValueError("observations must be finite")
    return obs


def energy_divergence(X, Y, alpha_exp: float = 1.0) -> tuple[float, float]:
    """Empirical energy divergence (E, Q) between two observation sets.

    Symmetric in X and Y.  Needs at least two observations on each side so
    the within-sample pair averages exist.
    """
    if not 0.0 < alpha_exp < 2.0:
        raise ValueError(f"alpha_exp must be in (0, 2), got {alpha_exp}")
    X = _as_observations(X)
    Y = _as_observations(Y)
    if X.shape[0] < 2 or Y.shape[0] < 2:
        raise SegmentTooSmall("energy divergence needs >= 2 observations per side")
    if X.shape[1] != Y.shape[1]:
        raise ValueError("X and Y must have the same dimensionality")
    # canonical argument order makes the result bitwise symmetric in (X, Y)
    if (Y.shape[0], Y.tobytes()) < (X.shape[0], X.tobytes()):
        X, Y = Y, X
    n, m = X.shape[0], Y.shape[0]
    cross = np.linalg.norm(X[:, None, :] - Y[None, :, :], axis=2) ** alpha_exp
    within_x = _alpha_distance_matrix(X, alpha_exp)[np.triu_indices(n, 1)]
    within_y = _alpha_distance_matrix(Y, alpha_exp)[np.triu_indices(m, 1)]
    e_hat = 2.0 * cross.mean() - within_x.mean() - within_y.mean()
    q_hat = (m * n / (m + n)) * e_hat
    return float(e_hat), float(q_hat)


def _alpha_distance_matrix(obs: np.ndarray, alpha_exp: float) -> np.ndarray:
    """|obs_i - obs_j|^alpha for every pair, with an exactly zero diagonal.

    Squared differences are added in axis order before the square root,
    the order a pairwise Euclidean distance loop uses, so the entries are
    the same bit for bit.  The output is filled a block of about
    ``BLOCK_ELEMENTS`` elements of rows at a time, so besides the one L x L
    result only a (block, L) difference buffer is live."""
    length = obs.shape[0]
    out = np.empty((length, length))
    rows = max(1, BLOCK_ELEMENTS // max(length, 1))
    diff = np.empty((min(rows, length), length))
    for first in range(0, length, rows):
        sq = out[first : first + rows]
        d = diff[: sq.shape[0]]
        sq.fill(0.0)
        for k in range(obs.shape[1]):
            np.subtract.outer(obs[first : first + rows, k], obs[:, k], out=d)
            sq += np.square(d, out=d)
        np.sqrt(sq, out=sq)
        sq **= alpha_exp  # the same scalar fast paths (sqrt, copy, square) as `**`
    return out


def _pair_increments(dist: np.ndarray, orders: np.ndarray, new_pair: np.ndarray) -> np.ndarray:
    """new_pair[s, b] = sum over i < s of dist[orders[i, b], orders[s, b]],
    written into the C-contiguous (L, block) buffer ``new_pair``.

    ``dist`` and the (L, block) ``orders``, one ordering per column, must be
    C-contiguous (a strided view would be copied by every gather) and the
    orderings at least two long.  A running (block, L) sum takes one
    gathered distance row per ordering and step, so each entry is summed in
    increasing i exactly as a column-wise cumulative sum of the row-gathered
    matrix would.
    """
    length, block = orders.shape
    # flat index of acc[b, orders[s, b]], laid out step by step
    cells = orders + np.arange(0, block * length, length)
    acc = np.empty((block, length))
    buf = np.empty_like(acc)
    # bound methods keep the per-step overhead low; indices are always in
    # range, and "clip" spares take() the buffered copy of its "raise" mode
    take_row, take_cell = dist.take, acc.reshape(-1).take
    new_pair[0] = 0.0
    take_row(orders[0], 0, acc, "clip")
    take_cell(cells[1], None, new_pair[1], "clip")
    for row, cell, out in zip(orders[1:-1], cells[2:], new_pair[2:]):
        take_row(row, 0, buf, "clip")
        np.add(acc, buf, out=acc)
        take_cell(cell, None, out, "clip")
    return new_pair


def _best_splits(
    dist: np.ndarray, row_totals: np.ndarray, orders: np.ndarray, min_segment: int
) -> tuple[np.ndarray, np.ndarray]:
    """Best (t, Q) of each ordering of the segment; ties go to the smallest t.

    Under ordering ``orders[:, b]`` the left side of split t holds the
    observations ``orders[:t, b]``.  Row sums are order-invariant, so only
    the pair-prefix increments need the kernel; the doubly permuted
    distance matrix is never materialized.  The prefix sums are taken in
    place and Q is computed in their buffers, operation by operation as
    ``(nl nr / (nl + nr)) * (2 cross / (nl nr) - lw / C(nl, 2) - rw / C(nr, 2))``
    reads, so only a few (L, block) buffers are live.
    """
    length = orders.shape[0]
    # row s of each prefix sum covers the first s + 1 observations
    left_within = _pair_increments(dist, orders, np.empty(orders.shape))
    np.cumsum(left_within, axis=0, out=left_within)
    row_cum = row_totals.take(orders, None, np.empty(orders.shape), "clip")
    np.cumsum(row_cum, axis=0, out=row_cum)

    total_within = left_within[-1]
    t = np.arange(min_segment, length - min_segment + 1)
    n_left = t.astype(float)[:, None]
    n_right = (length - t).astype(float)[:, None]
    lw = left_within[t[0] - 1 : t[-1]]
    cross = row_cum[t[0] - 1 : t[-1]]
    rw = np.multiply(lw, 2.0)
    cross -= rw  # cross = row_cum - 2 lw
    np.subtract(total_within, lw, out=rw)
    rw -= cross  # rw = total - lw - cross
    q_hat = cross
    q_hat *= 2.0
    q_hat /= n_left * n_right
    lw /= n_left * (n_left - 1.0) / 2.0
    q_hat -= lw
    rw /= n_right * (n_right - 1.0) / 2.0
    q_hat -= rw
    q_hat *= n_left * n_right / (n_left + n_right)
    k = np.argmax(q_hat, axis=0)  # first maximum = smallest split index
    return t[k], q_hat[k, np.arange(q_hat.shape[1])]


def _split_scan(dist: np.ndarray, min_segment: int) -> tuple[int, float]:
    """Best split of one segment from its alpha-distance matrix.

    Evaluates Q at every split index t (left = first t observations) with
    at least ``min_segment`` observations on each side, in O(L^2) via
    prefix sums.
    """
    dist = np.ascontiguousarray(dist)
    identity = np.arange(dist.shape[0])[:, None]
    t, q = _best_splits(dist, dist.sum(axis=1), identity, min_segment)
    return int(t[0]), float(q[0])


def best_split(span, params: EnergyParams | None = None) -> tuple[int, float]:
    """Split index maximizing Q over all admissible splits of the span.

    A split at index t puts the first t observations on the left; both
    sides must keep at least ``min_segment`` observations.
    """
    params = params or EnergyParams()
    obs = _as_observations(span)
    if obs.shape[0] < 2 * params.min_segment:
        raise SegmentTooSmall(
            f"span of {obs.shape[0]} observations cannot satisfy min_segment={params.min_segment}"
        )
    dist = _alpha_distance_matrix(obs, params.alpha_exp)
    return _split_scan(dist, params.min_segment)


def _seed_words(n: int) -> list[int]:
    """``n`` as SeedSequence reads an int: little-endian 32-bit words, at least one."""
    return [n >> shift & _MASK32 for shift in range(0, max(n.bit_length(), 1), 32)]


@functools.cache
def _hash_constants(n_words: int) -> tuple:
    """The multipliers SeedSequence's hash steps through while it mixes
    ``n_words`` words of entropy into its pool; no seed data changes them."""
    calls = _POOL_SIZE**2 + _POOL_SIZE * max(0, n_words - _POOL_SIZE)
    return tuple(
        np.uint32(_INIT_A * pow(_MULT_A, k, 1 << 32) & _MASK32) for k in range(calls + 1)
    )


def _seeded_states(master_seed: int, iteration_id: int, first: int, stop: int) -> list[tuple]:
    """The PCG64 ``(state, inc)`` of ``PCG64(SeedSequence([master_seed,
    iteration_id, r]))`` for every r in ``[first, stop)``, the streams
    computed side by side in one pass.

    numpy's SeedSequence (``bit_generator.pyx``, NEP 19) runs on uint32
    arrays over r, which wrap as its C code does: it hashes the entropy
    words into a pool of four, mixes the pool and generates four uint64
    words.  PCG64's seeding (O'Neill 2014) then takes ``inc = 2 * initseq + 1``
    and ``state = ((inc + initstate) * MULT + inc) mod 2**128``.  Words that
    do not depend on r stay scalars.
    """
    n_words = len(_seed_words(first))
    high = 1 << 32 * n_words  # the first r that takes one more word
    if stop > high:
        return _seeded_states(master_seed, iteration_id, first, high) + _seeded_states(
            master_seed, iteration_id, high, stop
        )
    r = np.arange(first, stop, dtype=np.uint64)
    entropy = [np.uint32(w) for w in _seed_words(master_seed) + _seed_words(iteration_id)]
    entropy += [(r >> np.uint64(32 * k)).astype(np.uint32) for k in range(n_words)]
    entropy += [np.uint32(0)] * (_POOL_SIZE - len(entropy))
    consts = _hash_constants(len(entropy))
    steps = iter(zip(consts, consts[1:]))

    def hashmix(value):
        xor, mult = next(steps)
        value = (value ^ xor) * mult
        return value ^ value >> _XSHIFT

    def mix(x, y):
        value = _MIX_MULT_L * x - _MIX_MULT_R * y
        return value ^ value >> _XSHIFT

    with np.errstate(over="ignore"):  # uint32 scalars wrap, as the arrays do
        pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
        for src in range(_POOL_SIZE):
            for dst in range(_POOL_SIZE):
                if dst != src:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        for word in entropy[_POOL_SIZE:]:
            for dst in range(_POOL_SIZE):
                pool[dst] = mix(pool[dst], hashmix(word))
    # generate_state(4, np.uint64): eight uint32 words, cycling through the pool
    words = np.stack(pool * 2, axis=1)
    words ^= _GENERATE_CONSTS[:-1]
    words *= _GENERATE_CONSTS[1:]
    words ^= words >> _XSHIFT
    states = []
    for state_hi, state_lo, seq_hi, seq_lo in words.astype("<u4", copy=False).view("<u8").tolist():
        inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & _MASK128
        states.append((((inc + (state_hi << 64 | state_lo)) * _PCG64_MULT + inc) & _MASK128, inc))
    return states


def _draw_orders(
    master_seed: int, iteration_id: int, first: int, stop: int, lengths: list[int]
) -> list[np.ndarray]:
    """Orders of permutations ``[first, stop)``: one ``(L, stop - first)`` array
    per segment length L, column b drawn from stream ``first + b``.  Each stream
    draws its segments' orders in segment order, with numpy's
    ``Generator.permutation`` on one reused generator set to its state."""
    states = _seeded_states(master_seed, iteration_id, first, stop)
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    orders = [np.empty((length, len(states)), dtype=np.intp) for length in lengths]
    for b, (state, inc) in enumerate(states):
        # a fresh stream: no buffered half of a uint32 draw carries over
        bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                               "has_uint32": 0, "uinteger": 0}
        for o in orders:
            o[:, b] = rng.permutation(o.shape[0])
    return orders


def permutation_test(
    current_segments: list,
    observed_stat: float,
    params: EnergyParams | None = None,
    perm_cfg: PermutationConfig | None = None,
    iteration_id: int = 0,
) -> float:
    """Permutation p-value for the best split of the current segmentation.

    Each permutation shuffles observations independently within every
    segment and recomputes the maximal best-split statistic across all
    segments; p = (1 + #{permuted >= observed}) / (R + 1).  Deterministic
    given (master_seed, iteration_id).
    """
    params = params or EnergyParams()
    perm_cfg = perm_cfg or PermutationConfig()
    matrices = [
        _alpha_distance_matrix(_as_observations(seg), params.alpha_exp)
        for seg in current_segments
    ]
    return _permutation_pvalue(matrices, observed_stat, params, perm_cfg, iteration_id)


def _permutation_pvalue(
    matrices: list[np.ndarray],
    observed_stat: float,
    params: EnergyParams,
    perm_cfg: PermutationConfig,
    iteration_id: int,
    stop_above: float | None = None,
) -> float:
    """p-value over R permutations, scored a block at a time.

    With ``stop_above`` set, the first block holds only ``FIRST_BLOCK``
    permutations, and the test returns after the first block at which the
    p-value is sure to exceed ``stop_above``; the value returned then is a
    lower bound, only good for that comparison.
    """
    admissible = [
        np.ascontiguousarray(d) for d in matrices if d.shape[0] >= 2 * params.min_segment
    ]
    row_totals = [d.sum(axis=1) for d in admissible]
    n_perm = perm_cfg.n_permutations
    block = max(1, BLOCK_ELEMENTS // max((d.shape[0] for d in admissible), default=1))
    starts = range(0, n_perm, block)
    if stop_above is not None:
        starts = [0, *range(min(FIRST_BLOCK, block), n_perm, block)]
    exceed = 0
    for first, stop in zip(starts, [*starts[1:], n_perm]):
        orders = _draw_orders(
            perm_cfg.master_seed, iteration_id, first, stop, [d.shape[0] for d in admissible]
        )
        stat = np.full(stop - first, -np.inf)
        for dist, totals, o in zip(admissible, row_totals, orders):
            np.maximum(stat, _best_splits(dist, totals, o, params.min_segment)[1], out=stat)
        exceed += int(np.count_nonzero(stat >= observed_stat))
        if stop_above is not None and (1 + exceed) / (n_perm + 1) > stop_above:
            break
    return (1 + exceed) / (n_perm + 1)


def _split_in_place(dist: np.ndarray, t: int) -> tuple[np.ndarray, np.ndarray]:
    """The children ``dist[:t, :t]`` and ``dist[t:, t:]`` of a C-contiguous
    matrix, moved into its own buffer as C-contiguous views: the left child
    at offset 0, then the right one at offset t**2.  The parent is lost.

    Each child moves in ascending chunks of rows of about ``BLOCK_ELEMENTS``
    elements.  Every row lands at or before the place it is read from, and a
    chunk's writes end before the next chunk's reads begin, so no entry is
    overwritten before it moves; within a chunk, numpy copies a source that
    overlaps its target out before it writes.
    """
    flat = dist.reshape(-1)
    children = []
    for lo, hi in ((0, t), (t, dist.shape[0])):
        size = hi - lo
        child = flat[lo * lo : lo * lo + size * size].reshape(size, size)
        rows = max(1, BLOCK_ELEMENTS // size)
        for first in range(lo, hi, rows):
            stop = min(first + rows, hi)
            child[first - lo : stop - lo] = dist[first:stop, lo:hi]
        children.append(child)
    return tuple(children)


def _open(start: int, dist: np.ndarray, min_segment: int) -> list:
    """``[(start, C-contiguous dist, best local split t, Q)]`` for a segment
    long enough to split, else ``[]``."""
    if dist.shape[0] < 2 * min_segment:
        return []
    return [(start, dist, *_split_scan(dist, min_segment))]


def e_divisive(
    span,
    params: EnergyParams | None = None,
    perm_cfg: PermutationConfig | None = None,
) -> ChangePointSet:
    """Hierarchical divisive estimation of all significant change points.

    Iterates: find the globally best admissible split across current
    segments, test it by within-segment permutation, commit it if
    p <= significance, stop otherwise.  Spans too short to split return an
    empty set (the whole span is one mode).  Committed indices are offsets
    within the span, reported in increasing order.  The span's one L x L
    distance matrix is its only buffer of order L^2: a commit moves the
    split segment's children into the segment's own part of it.
    """
    params = params or EnergyParams()
    perm_cfg = perm_cfg or PermutationConfig()
    obs = _as_observations(span)
    length = obs.shape[0]
    if length < 2 * params.min_segment:
        return []

    segments = _open(0, _alpha_distance_matrix(obs, params.alpha_exp), params.min_segment)
    committed: list[ChangePoint] = []

    for iteration_id in range(length):  # hard upper bound; loop exits earlier
        best, best_q = None, -np.inf
        for k, seg in enumerate(segments):  # span order, so ties pick the smallest index
            if seg[3] > best_q:
                best, best_q = k, seg[3]
        if best is None:
            break

        p_value = _permutation_pvalue(
            [seg[1] for seg in segments], best_q, params, perm_cfg, iteration_id,
            stop_above=perm_cfg.significance,
        )
        if p_value > perm_cfg.significance:
            break

        start, dist, t, _ = segments[best]
        committed.append(ChangePoint(index=start + t, statistic=best_q, p_value=p_value))
        left, right = _split_in_place(dist, t)
        segments[best : best + 1] = _open(start, left, params.min_segment) + _open(
            start + t, right, params.min_segment
        )

    committed.sort(key=lambda cp: cp.index)
    return committed
