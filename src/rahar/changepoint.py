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

Every exact float64 statistic comes from one routine, ``_pair_sums``: a
sequence's distance row totals and within-prefix pair sums, its rows
rebuilt a block at a time from the observations and added as the
one-permutation-at-a-time formula adds them, in row order: a cumulative
sum over each block's own staircase of pair increments, and a reduction
over axis 0, which numpy adds row after row, for the columns later blocks
read.  The observed split scan, the rescoring of a permuted ordering and
:func:`energy_divergence` read it, so all are bit-identical to that
formula.  A segment also rounds those rows once into its own float32
matrix and finds whether float32 holds its distances: from its sorted
coordinate gaps where they prove no positive distance too small, else
from the rows; each segment decides for itself.  On one
that does, at any alpha and in every block, each ordering's best Q first
takes an upper bound from the segment's spectrum: energy distance is a
quadratic form of the double-centred matrix -J D J / 2, one power step of
which, taken once per segment in three einsum passes over the float32
matrix, bounds every split of an ordering from one cumulative sum.  An
ordering at or above the observed Q there takes the float32 prefix-sum
kernel, which bounds its best Q from both sides within a proven error
bound.  On a segment float32 cannot hold, the bounds are (-inf, +inf).
An ordering whose largest bounds over the segments straddle the observed
Q is rescored exactly, on the segments whose upper bound reaches it, so
p-values are bit-identical too, and the screen only ever decides a
non-exceedance.  Inside :func:`e_divisive` a
test scores a small first block of ``FIRST_BLOCK`` permutations, then the
usual blocks, and stops after the first block at which (1 + exceedances)
/ (R + 1) already exceeds the significance level; a rejected split is
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
from typing import NamedTuple

import numpy as np

from .errors import SegmentTooSmall

# Elements of one (block, L) float64 buffer: about 256 KiB.  A permutation
# block's float32 running sums, twice as many, stay cache resident while
# distance rows stream past.
BLOCK_ELEMENTS = 32768
# Permutations in the first block of an early-stopped test.  A rejected test
# is decided by its first exceedance, which mostly falls in the first few
# permutations; a committed test pays one extra kernel pass for it.
FIRST_BLOCK = 8
# Steps a float32 running sum of the permutation kernel takes before it is
# added to a float64 one: its error bound grows with them, its cost falls.
CHUNK = 64

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
    the within-sample pair averages exist.  Q is the split scan's at n of [X; Y].
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
    row_totals, left_within, _ = _pair_sums(np.concatenate([X, Y]), alpha_exp)
    q_hat = _split_curve(row_totals, left_within, n)[0]  # n <= m, so t = n comes first
    return float(q_hat * (n + m) / (n * m)), float(q_hat)


def _alpha_rows(cols: np.ndarray, index, alpha_exp: float, out: np.ndarray,
                diff: np.ndarray) -> np.ndarray:
    """``out[i, j] = |x[index][i] - x[j]|^alpha`` in float64 for the
    observations x whose C-contiguous coordinate columns are ``cols``,
    squares added in axis order before the square root as a pairwise
    Euclidean distance loop adds them: the same bits in whichever rows it
    is built.  The first square is written as the sum, as 0 + d^2 is d^2."""
    with np.errstate():
        # with numpy's default 8192-element ufunc buffer, a broadcast subtract
        # whose rows are shorter copies them through it, at about 3 times the
        # cost (numpy 2.4); the smallest buffer leaves each row one inner loop
        np.setbufsize(16)
        np.subtract.outer(cols[0, index], cols[0], out=out)
        np.square(out, out=out)
        for col in cols[1:]:
            np.subtract.outer(col[index], col, out=diff)
            out += np.square(diff, out=diff)
    np.sqrt(out, out=out)
    if alpha_exp != 1.0:
        out **= alpha_exp  # the same scalar fast paths (sqrt, square) as `**`
    return out


def _distance_rows(obs: np.ndarray, alpha_exp: float):
    """Yield ``(first, rows)``: float64 alpha-distance rows, a block at a time."""
    length = obs.shape[0]
    step = max(1, BLOCK_ELEMENTS // max(length, 1))
    cols = np.ascontiguousarray(obs.T)
    buf, diff = np.empty((2, min(step, length), length))
    for first in range(0, length, step):
        n = min(step, length - first)
        yield first, _alpha_rows(cols, slice(first, first + n), alpha_exp, buf[:n], diff[:n])


def _pair_increments(dist: np.ndarray, orders: np.ndarray) -> np.ndarray:
    """new_pair[s, b] = sum over i < s of dist[orders[i, b], orders[s, b]]
    as a float64 (L, block) array, for the float32 L x L ``dist`` and the
    C-contiguous (L, block) ``orders``, one ordering of at least two per
    column.

    A running float32 (block, L) sum takes one row of ``dist`` per ordering
    and step; it is added to a float64 sum and restarted every ``CHUNK``
    steps.
    """
    length, block = orders.shape
    # flat index of acc[b, orders[s, b]], laid out step by step
    cells = orders + np.arange(0, block * length, length)
    acc, flushed = np.zeros((block, length), np.float32), np.zeros((block, length))
    buf, part, new_pair = np.empty_like(acc), np.zeros(orders.shape, np.float32), np.empty(orders.shape)
    # bound methods keep the per-step overhead low; indices are always in
    # range, and "clip" spares take() the buffered copy of its "raise" mode
    take_row, take_cell, take_flushed = dist.take, acc.reshape(-1).take, flushed.reshape(-1).take
    new_pair[0] = 0.0
    for s, (row, cell, out) in enumerate(zip(orders[:-1], cells[1:], part[1:]), 1):
        take_row(row, 0, buf, "clip")
        np.add(acc, buf, out=acc)
        take_cell(cell, None, out, "clip")
        if s % CHUNK == 0 or s == length - 1:  # steps first .. s are done
            first = s - (s - 1) % CHUNK
            take_flushed(cells[first : s + 1], None, new_pair[first : s + 1], "clip")
            flushed += acc
            acc.fill(0.0)
    return np.add(new_pair, part, out=new_pair)


def _split_q(left_within: np.ndarray, row_cum: np.ndarray, total, min_segment: int) -> np.ndarray:
    """Q at each split t = min_segment, ..., L - min_segment (rows) of each
    ordering (columns).  Row s of the float64 (L, block) prefix sums
    ``left_within`` (pair distances) and ``row_cum`` (row totals) covers the
    first s + 1 observations.  Q is computed in their buffers, which it
    overwrites, operation by operation as
    ``(nl nr / (nl + nr)) * (2 cross / (nl nr) - lw / C(nl, 2) - rw / C(nr, 2))``
    reads, with cross = row_cum - 2 lw and rw = total - lw - cross.
    """
    length = left_within.shape[0]
    t = np.arange(min_segment, length - min_segment + 1)
    n_left = t.astype(float)[:, None]
    n_right = (length - t).astype(float)[:, None]
    lw = left_within[t[0] - 1 : t[-1]]
    cross = row_cum[t[0] - 1 : t[-1]]
    rw = np.multiply(lw, 2.0)
    cross -= rw  # cross = row_cum - 2 lw
    np.subtract(total, lw, out=rw)
    rw -= cross  # rw = total - lw - cross
    q_hat = cross
    q_hat *= 2.0
    q_hat /= n_left * n_right
    lw /= n_left * (n_left - 1.0) / 2.0
    q_hat -= lw
    rw /= n_right * (n_right - 1.0) / 2.0
    q_hat -= rw
    q_hat *= n_left * n_right / (n_left + n_right)
    return q_hat


def _split_curve(row_totals: np.ndarray, left_within: np.ndarray, min_segment: int) -> np.ndarray:
    """Q at each split t = min_segment, ..., L - min_segment of one ordering,
    from its row totals and its within-prefix pair sums, both in that order."""
    lw = left_within[:, None]
    return _split_q(lw, np.cumsum(row_totals)[:, None], lw[-1], min_segment)[:, 0]


def _gaps_clear(obs: np.ndarray) -> bool:
    """Whether every positive gap between the sorted values of each
    coordinate of ``obs`` is at least 2**-62, so that, by the argument in
    :func:`_pair_sums`, every positive distance^alpha is above 2**-126."""
    gaps = np.diff(np.sort(obs, axis=0), axis=0)
    return bool(gaps.min(initial=np.inf, where=gaps > 0.0) >= 2.0**-62)


def _pair_sums(obs: np.ndarray, alpha_exp: float, dist: np.ndarray | None = None) -> tuple:
    """``(row_totals, left_within, fits)`` of the float64 alpha-distance
    matrix of ``obs``, its rows rebuilt a block at a time: each row's
    ``sum(axis=1)``, and at s the pair sum of the first s + 1 observations,
    each pair increment added in increasing row order as a column-wise
    cumulative sum adds it.

    A block of n rows from ``first`` adds the running column sums of the
    earlier blocks into its first row.  Its own n x n staircase, the
    columns first + 1 ... first + n that its increments are read from,
    takes a ``cumsum`` down the columns; the columns from first + n on,
    which later blocks read, take one ``np.add.reduce`` over axis 0.  numpy
    sums pairwise only along an array's fast axis: across the rows of a
    row-major block it adds them in order, as the cumsum's last row does,
    bit for bit, as long as the reduce spans at least two columns (one
    column alone is its fast axis).  So the reduce starts at column first +
    n, whose sum no later block reads, and spans two columns wherever a
    later block reads one.

    Given an L x L float32 ``dist``, the rows are also rounded into it, and
    ``fits`` says whether float32 holds every distance (else None): no
    positive one below 2**-126, where float32 loses its 2**-24 relative
    precision, and L times the largest below 2**127, so no row sum
    overflows.  The first test is decided from the sorted coordinate
    columns where it can be.  A positive distance has a coordinate whose
    difference is not 0 (distinct floats differ by a non-zero float), at
    least the smallest positive gap in that coordinate's sorted values, as
    rounding is monotone.  With every such gap at least 2**-62, its square is
    at least 2**-124, so are the sum of squares (its terms are not
    negative) and the square root's square, and x^alpha >= min(1, x^2) for
    alpha < 2 leaves the distance^alpha at least 2**-124 less a few units
    of ``**``'s last place, above 2**-126.  Only where a gap is smaller does
    each block take the smallest positive row entry, so ``fits`` is the same
    as that scan gives for every input.
    """
    length = obs.shape[0]
    row_totals, new_pair, acc = np.empty(length), np.zeros(length), np.zeros(length)
    largest, smallest = 0.0, np.inf
    scan_smallest = dist is not None and not _gaps_clear(obs)
    for first, rows in _distance_rows(obs, alpha_exp):
        n = rows.shape[0]
        stop = first + n
        if dist is not None:
            with np.errstate(over="ignore"):  # flagged below
                dist[first:stop] = rows
            largest = max(largest, rows.max())
            if scan_smallest:
                smallest = min(smallest, rows.min(initial=np.inf, where=rows > 0.0))
        row_totals[first:stop] = rows.sum(axis=1)
        tail = rows[:, first + 1 :]  # no later read needs the columns up to first
        tail[0] += acc[first + 1 :]
        np.add.reduce(tail[:, n - 1 :], axis=0, out=acc[stop:])
        stair = tail[:, :n]
        np.cumsum(stair, axis=0, out=stair)  # row k: the sum of rows 0 .. first + k
        new_pair[first + 1 : first + 1 + stair.shape[1]] = stair.diagonal()
    fits = None if dist is None else bool(length * largest <= 2.0**127 and smallest >= 2.0**-126)
    return row_totals, np.cumsum(new_pair), fits


class _Segment(NamedTuple):
    """A segment's observations, float32 matrix, what ``_scan`` reads and,
    where ``fits``, what :func:`_spectrum` gives (else None)."""
    obs: np.ndarray
    dist: np.ndarray
    row_totals: np.ndarray
    t: int
    q: float
    fits: bool
    spectrum: tuple | None


def _scan(obs: np.ndarray, params: EnergyParams, dist: np.ndarray | None = None) -> tuple:
    """``(row_totals, t, Q, fits)``: the ``_pair_sums`` of the segment and
    its best split, ties to the smallest t."""
    row_totals, left_within, fits = _pair_sums(obs, params.alpha_exp, dist)
    q = _split_curve(row_totals, left_within, params.min_segment)
    k = int(np.argmax(q))  # first maximum = smallest split index
    return row_totals, params.min_segment + k, float(q[k]), fits


def _segment(obs: np.ndarray, params: EnergyParams, dist=None) -> _Segment:
    """A segment's record, its float32 matrix rounded from the rows ``_scan``
    reads into ``dist`` (a new L x L one if None), its ``fits`` from them."""
    if dist is None:
        dist = np.empty((obs.shape[0], obs.shape[0]), np.float32)
    scan = _scan(obs, params, dist)
    return _Segment(obs, dist, *scan, _spectrum(dist, scan[1]) if scan[3] else None)


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
    return _scan(obs, params)[1:3]


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


def _bounds(seg: _Segment, orders: np.ndarray, params: EnergyParams) -> tuple:
    """Bounds (lo, hi) of the max over t of Q under each ordering (a column
    of ``orders``), as :func:`_exact_max` gives it, from the float32 matrix:
    the kernel's float64 prefix pair sums lw and the segment's row totals in
    that order, with the half-sum T of the row totals as the total.

    There a distance is rounded once to a normal float32 (relative error u =
    2**-24) and an increment is a float64 sum of float32 recursive sums of
    at most ``CHUNK`` terms (Higham 2002, §4.2: gamma_n = n u / (1 - n u)),
    so with lw cumulated in float64 as ``_pair_sums`` cumulates it, the
    kernel's lw and the exact one differ by at most eps lw* <= eps (1 + 2
    eps) lw, eps = 2 (CHUNK + 1) u, lw* the exact sum (float64's gamma_2L
    fits in the margin for L < 2**32).  Both Qs take the same row prefix
    sums, and as cross = row_cum - 2 lw and rw = total + lw - row_cum, Q is
    linear in lw with slope -h (4 / (nl nr) + 1 / C(nl, 2) + 1 / C(nr, 2)),
    h = nl nr / (nl + nr).  The rest is float64 rounding (T against the
    exact total, each side's few operations on non-negative terms of at most
    2 T, the bound itself), which (L + 16) 2**-50 T times that slope covers.
    """
    length, m = orders.shape[0], params.min_segment
    left_within = _pair_increments(seg.dist, orders)
    np.cumsum(left_within, axis=0, out=left_within)
    row_cum = seg.row_totals.take(orders, None, np.empty(orders.shape), "clip")
    np.cumsum(row_cum, axis=0, out=row_cum)
    n_left = np.arange(m, length - m + 1.0)[:, None]
    n_right = length - n_left
    # h (4 / (nl nr) + 1 / C(nl, 2) + 1 / C(nr, 2)) with h = nl nr / L
    slope = (4.0 + 2.0 * n_right / (n_left - 1.0) + 2.0 * n_left / (n_right - 1.0)) / length
    half_total = seg.row_totals.sum() / 2.0
    eps = 2.0 * (CHUNK + 1) * 2.0**-24
    margin = left_within[m - 1 : length - m] * (eps * (1.0 + 2.0 * eps) * slope)
    margin += (length + 16) * 2.0**-50 * half_total * slope
    q_hat = _split_q(left_within, row_cum, half_total, m)
    return np.subtract(q_hat, margin).max(axis=0), np.add(q_hat, margin, out=q_hat).max(axis=0)


def _spectrum(dist: np.ndarray, t: int) -> tuple | None:
    """``(v, theta, rho, mu, slack, delta)`` of :func:`_screen` on a segment
    with float32 matrix ``dist`` (D) and best split ``t``, or None where Kx
    is 0 (as is K where every distance is 0).

    Energy distance is a quadratic form of K = -J D J / 2, J = I - 11'/L.
    One power step from the centred indicator x of the split at t gives v =
    J y / |J y|, y = D x; then theta = v'Kv, rho = |Kv - theta v| and mu^2 =
    |K|_F^2 - theta^2 - 2 rho^2, which is |PKP|_F^2, P = I - vv'.  |K|_F^2 is
    (sum D_ij^2 - (|a|^2 + |Ja|^2) / L) / 4 for the row totals a = D1.  Three
    passes over D, einsum's own float64 loops, give y and a (the column sums
    of the two sides of t), Dv and the row sums of squares.  Each product is
    within gamma_L B |v| of Dv, |D|_2 <= B the largest row total, so theta
    and rho, for v / |v|, are within (L + 4) 2**-50 B, and |K|_F^2, theta^2
    and 2 rho^2 within eps^2 = (L + 16)(sum D_ij^2 + 16 B^2) 2**-50, which mu
    takes up as (mu^2 + eps^2)^(1/2).
    """
    length = dist.shape[0]
    left = np.einsum("ij->i", dist[:, :t], dtype=float)
    right = np.einsum("ij->i", dist[:, t:], dtype=float)
    jy = left / t - right / (length - t)
    jy -= jy.mean()
    norm = np.sqrt(np.einsum("i,i", jy, jy))
    if norm == 0.0:
        return None
    v, totals = jy / norm, np.add(left, right, out=left)
    kv = np.einsum("ij,j->i", dist, v, dtype=float)
    kv -= v.sum() / length * totals  # D J v
    kv -= kv.mean()
    kv *= -0.5
    nu2 = np.einsum("i,i", v, v)
    theta = np.einsum("i,i", v, kv) / nu2
    kv -= theta * v
    rho = np.sqrt(np.einsum("i,i", kv, kv) / nu2)
    squares = np.einsum("ij,ij->i", dist, dist, dtype=float).sum()
    centred = totals - totals.mean()
    frobenius = (squares - (np.einsum("i,i", totals, totals) + np.einsum("i,i", centred, centred)) / length) / 4.0
    big = totals.max()
    eps2 = (length + 16) * (squares + 16.0 * big * big) * 2.0**-50
    mu = np.sqrt(max(frobenius - theta * theta - 2.0 * rho * rho, 0.0) + eps2)
    slack = (2.0**-24 + length * (length + 16) * 2.0**-47) * big
    delta = abs(v.sum()) + (length + 2) * np.sqrt(length) * 2.0**-50
    return v, float(theta), float(rho), float(mu), float(slack), float(delta)


def _screen(seg: _Segment, orders: np.ndarray, params: EnergyParams, observed: float):
    """An upper bound of the max over t of Q under each ordering (a column
    of ``orders``), as :func:`_exact_max` gives it, from the segment's
    :func:`_spectrum`; None where no ordering can fall below ``observed``.

    For a split into S | S' of sizes nl | nr, w = 1_S / nl - 1_S' / nr has
    |w|^2 = 1 / h, h = nl nr / L.  As lw, rw >= 0 and 1 / C(n, 2) > 2 / n^2,
    Q <= -h w'D64 w = 2 u'K64 u, u = w / |w| (J u = u), for the float64 matrix
    D64 and K64 = -J D64 J / 2.  ``fits`` rounds each distance to a normal
    float32: |D - D64|_2 <= 2**-24 B, so 2 u'K64 u <= 2 u'Ku + 2**-24 B.  With
    u = c v + s z, z a unit vector normal to v, c^2 + s^2 = 1,

        u'Ku = c^2 theta + 2 c s z'(Kv - theta v) + s^2 z'Kz <= c^2 theta + rho + s^2 mu,

    as 2 |c s| <= 1 and z'Kz <= |PKP|_2 <= mu.  c = v'u is P_t (L / (nl nr))^(1/2)
    less V (nl / L)(L / (nl nr))^(1/2), P_t the sum of v over the first t of
    the ordering, V = sum v.  So Q <= 2 (mu + (theta - mu) c^2 + rho) + 2**-24
    B at every t, and the max over t takes the largest |c| if theta >= mu,
    else the smallest.  Rounding: |c| is within ``delta`` = |V| + (L + 2) L^(1/2)
    2**-50 of the computed one, as nl, nr >= 2 keep (L / (nl nr))^(1/2) <= 1
    and P_t is within gamma_L L^(1/2).  :func:`_exact_max`'s Q is within
    (L + 16) 2**-50 T slope (the float64 margin of :func:`_bounds`) and the
    gamma_2L rounding of its lw of the exact one, at most (1.5 L (L + 16) +
    0.375 L^2) 2**-50 B as T <= L B / 2 and the slope is at most 3; with
    twice the errors of theta and rho that is below L (L + 16) 2**-47 B,
    which ``slack`` adds to 2**-24 B.
    """
    v, theta, rho, mu, slack, delta = seg.spectrum
    if 2.0 * (min(theta, mu) + rho) + slack >= observed:
        return None
    length, m = orders.shape[0], params.min_segment
    n_left = np.arange(m, length - m + 1.0)[:, None]
    prefix = v.take(orders, mode="clip")
    np.cumsum(prefix, axis=0, out=prefix)
    c = prefix[m - 1 : length - m]
    c *= np.sqrt(length / (n_left * (length - n_left)))
    np.abs(c, out=c)
    if theta >= mu:
        c = c.max(axis=0) + delta
    else:
        c = np.maximum(c.min(axis=0) - delta, 0.0)
    np.minimum(c, 1.0, out=c)
    return 2.0 * (mu + (theta - mu) * c * c + rho) + slack


def _exact_max(seg: _Segment, order: np.ndarray, params: EnergyParams) -> float:
    """max over t of Q under ``order``, bit for bit the float64 one-ordering
    formula: the pair sums of the reordered observations, and the prefix
    sums of the segment's own row totals in that order."""
    _, left_within, _ = _pair_sums(seg.obs[order], params.alpha_exp)
    return float(_split_curve(seg.row_totals[order], left_within, params.min_segment).max())


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
    segments = [
        _segment(obs, params)
        for obs in map(_as_observations, current_segments)
        if obs.shape[0] >= 2 * params.min_segment
    ]
    return _permutation_pvalue(segments, observed_stat, params, perm_cfg, iteration_id)


def _permutation_pvalue(
    segments: list[_Segment],
    observed_stat: float,
    params: EnergyParams,
    perm_cfg: PermutationConfig,
    iteration_id: int,
    stop_above: float | None = None,
) -> float:
    """p-value over R permutations of the admissible ``segments``, scored a
    block at a time with bounds (lo, hi) of each ordering's Q on each
    segment, (-inf, +inf) on one whose distances float32 cannot hold: an
    ordering whose largest lo reaches ``observed_stat`` exceeds it, one
    whose largest hi is below it does not, and the rest are rescored exactly
    on the segments whose hi reaches it, up to the first that does.  On a
    segment whose distances float32 holds, hi is :func:`_screen`'s bound,
    and the orderings it leaves at or above ``observed_stat`` take the
    float32 kernel's bounds there.

    With ``stop_above`` set, the first block holds only ``FIRST_BLOCK``
    permutations, and the test returns after the first block at which the
    p-value is sure to exceed ``stop_above``; the value returned then is a
    lower bound, only good for that comparison.
    """
    n_perm = perm_cfg.n_permutations
    block = max(1, 2 * BLOCK_ELEMENTS // max((s.obs.shape[0] for s in segments), default=1))
    starts = range(0, n_perm, block)
    if stop_above is not None:
        starts = [0, *range(min(FIRST_BLOCK, block), n_perm, block)]
    exceed = 0
    for first, stop in zip(starts, [*starts[1:], n_perm]):
        orders = _draw_orders(
            perm_cfg.master_seed, iteration_id, first, stop, [s.obs.shape[0] for s in segments]
        )
        lo = np.full((len(segments), stop - first), -np.inf)
        hi = np.full_like(lo, np.inf)
        for k, (seg, o) in enumerate(zip(segments, orders)):
            if not seg.fits:
                continue
            cols = slice(None)
            screen = _screen(seg, o, params, observed_stat) if seg.spectrum else None
            if screen is not None:
                hi[k] = screen
                # the copy of the orderings the screen keeps takes 8 bytes an
                # element to the kernel's 36: with at most 4/5 of them the two
                # stay below the kernel's peak on all
                keep = screen >= observed_stat
                if 5 * np.count_nonzero(keep) <= 4 * len(keep):
                    cols = np.flatnonzero(keep)
                    o = o.take(cols, axis=1)
            if o.shape[1]:
                lo[k, cols], hi[k, cols] = _bounds(seg, o, params)
        largest_lo = lo.max(axis=0, initial=-np.inf)
        exceed += int(np.count_nonzero(largest_lo >= observed_stat))
        reach = hi >= observed_stat
        for b in np.flatnonzero((largest_lo < observed_stat) & reach.any(axis=0)):
            exceed += any(
                _exact_max(seg, o[:, b], params) >= observed_stat
                for seg, o, r in zip(segments, orders, reach[:, b]) if r
            )
        if stop_above is not None and (1 + exceed) / (n_perm + 1) > stop_above:
            break
    return (1 + exceed) / (n_perm + 1)


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
    float32 distance matrix is its only buffer of order L^2: at a commit the
    split segment's children round their own rows into its part of it.
    """
    params = params or EnergyParams()
    perm_cfg = perm_cfg or PermutationConfig()
    obs = _as_observations(span)
    length = obs.shape[0]
    if length < 2 * params.min_segment:
        return []

    segments = [(0, _segment(obs, params))]
    committed: list[ChangePoint] = []

    for iteration_id in range(length):  # hard upper bound; loop exits earlier
        best, best_q = None, -np.inf
        for k, (_, seg) in enumerate(segments):  # span order, so ties pick the smallest index
            if seg.q > best_q:
                best, best_q = k, seg.q
        if best is None:
            break

        p_value = _permutation_pvalue(
            [seg for _, seg in segments], best_q, params, perm_cfg, iteration_id,
            stop_above=perm_cfg.significance,
        )
        if p_value > perm_cfg.significance:
            break

        start, seg = segments[best]
        t = seg.t
        committed.append(ChangePoint(index=start + t, statistic=best_q, p_value=p_value))
        # the children round their own rows into the parent's C-contiguous
        # buffer, which they overwrite: the left one at offset 0, the right at t**2
        flat = seg.dist.reshape(-1)
        segments[best : best + 1] = [
            (start + at, _segment(part, params, flat[at * at : at * at + n * n].reshape(n, n)))
            for at, part in ((0, seg.obs[:t]), (t, seg.obs[t:]))
            if (n := len(part)) >= 2 * params.min_segment
        ]

    committed.sort(key=lambda cp: cp.index)
    return committed
