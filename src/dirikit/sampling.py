"""Randomized forms and guaranteed-intertwined pairs.

Used by the command-line pair generator and the test suite.  All
randomness flows through a caller-supplied numpy Generator so outputs are
reproducible from a seed.

The stream contract: for any bit generator, ``random_form`` returns the
form of the loop that makes one ``random()`` draw per vertex pair and
leaves the generator in that loop's end state, so a seed gives the forms
and pairs it gave when the chords were drawn one pair at a time.  The
chords are drawn in blocks of doubles (``_chord_draws``).
"""

from __future__ import annotations

import math

import numpy as np

from .core import GraphForm, MeasureSpace, _require_size
from .errors import InvalidSize
from .orderiso import OrderIso, doob_pair


# The most doubles that one step of ``_chord_draws`` draws.  Its working
# arrays take about 50 bytes a double, 0.8 MB a block.  On one BLAS thread,
# random_form at n = 160, 1000 and 3000 took 1.7, 50 and 377 ms with it,
# within 15 % of blocks of 2^12 to 2^18, and 2.1, 60 and 665 ms drawing
# all doubles in one block.
_DRAW_BLOCK = 1 << 14


def _chord_draws(rng: np.random.Generator, pairs: int, p: float) -> tuple[np.ndarray, np.ndarray]:
    """The positions, among ``pairs`` vertex pairs, that the per-pair loop

        for each pair: if rng.random() < p: weight draw rng.random()

    accepts, and the doubles of their weight draws, in pair order; ``rng``
    is left where that loop leaves it.

    Each step draws a block of doubles and marks every draw as an
    acceptance or a weight draw.  A run of draws below p starts on an
    acceptance draw (the first draw, or one after a draw at or above p),
    and in it acceptance and weight draws alternate, so a draw is a weight
    draw exactly when the run of draws below p just before it has odd
    length.  The role of the draw after a block is carried into the next.
    The block that decides the last pair may hold draws the loop never
    makes: the bit generator's state is put back and just the loop's
    draws made again.
    """
    accepted, weights = [], []
    done, weight_next = 0, False  # pairs decided; the role of the next draw
    while done < pairs or weight_next:
        state = rng.bit_generator.state
        d = rng.random(min(2 * (pairs - done) + weight_next, _DRAW_BLOCK))
        below = d < p
        k = np.arange(len(d))
        start = -1 - weight_next  # a virtual draw at or above p: 1 or 2 places back
        last_high = np.maximum.accumulate(np.where(below, start, k))
        is_weight = (k - np.concatenate(([start], last_high[:-1]))) % 2 == 0
        acceptance = np.flatnonzero(~is_weight)[:pairs - done]
        end = len(d)
        if done + len(acceptance) == pairs:  # the last pair is decided here
            # -1: no acceptance, the virtual accepted draw before a carried weight
            last = acceptance[-1] if len(acceptance) else -1
            end = min(end, last + 1 + bool(last < 0 or below[last]))
        weight_next = end == len(d) and not is_weight[-1] and bool(below[-1])
        if end < len(d):
            rng.bit_generator.state = state
            rng.random(end)
        accepted.append(done + np.flatnonzero(below[acceptance]))
        weights.append(d[:end][is_weight[:end]])
        done += len(acceptance)
    return np.concatenate(accepted or [np.zeros(0, np.intp)]), np.concatenate(weights or [np.zeros(0)])


def random_form(
    rng: np.random.Generator,
    n: int,
    *,
    recurrent: bool | None = None,
    b_range: tuple[float, float] = (0.5, 2.0),
    m_range: tuple[float, float] = (0.5, 2.0),
    extra_edge_prob: float = 0.35,
    prefix: str = "v",
) -> GraphForm:
    """A connected form with O(1) weights: random tree plus chords.

    ``recurrent`` picks the killing regime: True leaves c = 0, False puts
    weights from [0.5, 2) on a nonempty random subset, None flips a coin.

    The stream contract: for any bit generator, the form, its edge column
    order (and so ``_key_order``) and the generator's end state are those
    of the per-pair loop

        for i in 1 .. n-1: tree edge (integers(0, i), i), uniform(*b_range)
        for i < j, lexicographically, not a tree edge:
            if random() < extra_edge_prob: chord (i, j), uniform(*b_range)

    followed by the measure and killing draws.  The chords are drawn in
    blocks (``_chord_draws``); the tree stays a loop, as ``integers`` may
    take half of a 64-bit draw that ``random`` would not share.
    """
    if n < 1:
        raise InvalidSize("a random form needs n >= 1")
    _require_size(n)  # before the n^2 / 2 chord draws
    parent, tree_w = np.zeros(n - 1, np.intp), np.zeros(n - 1)
    for i in range(1, n):
        parent[i - 1] = rng.integers(0, i)
        tree_w[i - 1] = rng.uniform(*b_range)
    # chords: the pairs i < j in lexicographic order, row i from row_start[i],
    # less the tree's pairs (parent[k - 1], k)
    row_start = np.arange(n) * (2 * n - 1 - np.arange(n)) // 2
    tree_pairs = np.sort(row_start[parent] + np.arange(1, n) - parent - 1)
    chords, draws = _chord_draws(rng, n * (n - 1) // 2 - (n - 1), extra_edge_prob)
    # the chord k is the pair k plus the count of tree pairs at or before it
    pair = chords + np.searchsorted(tree_pairs - np.arange(n - 1), chords, side="right")
    i = np.searchsorted(row_start, pair, side="right") - 1
    j = pair - row_start[i] + i + 1
    if len(draws):  # a chord was drawn, so b_range passed the tree's draws
        low, high = map(float, b_range)
        draws = low + (high - low) * draws  # uniform's arithmetic
    m = rng.uniform(*m_range, size=n)
    if recurrent is None:
        recurrent = bool(rng.random() < 0.5)
    c = np.zeros(n)
    if not recurrent:
        count = int(rng.integers(1, n + 1))
        hit = rng.choice(n, size=count, replace=False)
        c[hit] = rng.uniform(0.5, 2.0, size=count)
    ends = np.array([np.concatenate((parent, i)), np.concatenate((np.arange(1, n), j))])
    space = MeasureSpace([f"{prefix}{v}" for v in range(n)], m)
    return GraphForm._from_indices(space, ends, np.concatenate((tree_w, draws)), c)


def relabel_pair(
    rng: np.random.Generator, form: GraphForm, *, scale: float = 1.0
) -> tuple[GraphForm, OrderIso]:
    """A copy renamed to w0, w1, ..., permuted and jointly rescaled, plus
    the witness.

    Conductances, killing and measure are all multiplied by ``scale``,
    which leaves the generator unchanged up to the relabeling; the
    intertwiner has constant scaling 1/sqrt(scale) and operator constant 1.
    """
    n = len(form.space)
    names2 = [f"w{i}" for i in range(n)]
    perm = rng.permutation(n)  # target position i is the copy of source position perm[i]
    source_names = form.space.vertices
    tau = {names2[i]: source_names[int(perm[i])] for i in range(n)}
    space2 = MeasureSpace(names2, scale * form.space.m[perm])
    ends2 = np.argsort(perm)[form.edge_indices]
    form2 = GraphForm._from_indices(space2, ends2, scale * form.weights, scale * form.c[perm])
    h_const = 1.0 / math.sqrt(scale)
    iso = OrderIso(form.space, form2.space, tau, {y: h_const for y in names2})
    return form2, iso


def nonconstant_excessive_profile(rng: np.random.Generator, n: int) -> np.ndarray:
    """A strictly positive profile: n uniform draws from [1, 2) over their
    min, with the largest entry set to 1.2075 when it is under 1.15.  So
    for n >= 2 its min is 1 and max/min >= 1.15; the one entry at n = 1
    is 1.2075, and its max/min is 1."""
    h = rng.uniform(1.0, 2.0, size=n)
    h /= h.min()
    if h.max() < 1.15:
        h[int(np.argmax(h))] = 1.15 * 1.05
    return h


def doob_pair_sample(
    rng: np.random.Generator, n: int
) -> tuple[GraphForm, GraphForm, OrderIso]:
    """A transient form, its conjugate by a nonconstant excessive function,
    and the intertwiner (nonconstant scaling, operator constant 1).

    Killing is chosen pointwise as the smallest weight making the profile
    excessive, plus a margin; the conjugated partner then moves the killing
    to different vertices.
    """
    base = random_form(rng, n, recurrent=True)
    h = nonconstant_excessive_profile(rng, n)
    w = base.weight_matrix
    # (L h)(x) >= 0 needs c(x) >= sum_y b(x,y) (h(y) - h(x)) / h(x)
    required = (w @ h - w.sum(axis=1) * h) / h
    c = np.maximum(required, 0.0) + 0.02  # finite and > 0, as b, m and h are
    form1 = base._on_keys(base.space.m, base.weights, c)
    form2, iso = doob_pair(form1, h)
    return form1, form2, iso


def random_intertwined_pair(
    rng: np.random.Generator,
    n: int,
    transform: str,
    *,
    recurrent: bool | None = None,
) -> tuple[GraphForm, GraphForm, OrderIso]:
    """Dispatch for the pair generator: ``relabel`` or ``doob``."""
    if transform == "relabel":
        form1 = random_form(rng, n, recurrent=recurrent)
        scale = float(rng.uniform(0.5, 2.0)) if rng.random() < 0.5 else 1.0
        form2, iso = relabel_pair(rng, form1, scale=scale)
        return form1, form2, iso
    if transform == "doob":
        return doob_pair_sample(rng, n)
    raise ValueError(f"unknown transform {transform!r}")
