"""Randomized forms and guaranteed-intertwined pairs.

Used by the command-line pair generator and the test suite.  All
randomness flows through a caller-supplied numpy Generator so outputs are
reproducible from a seed.
"""

from __future__ import annotations

import math

import numpy as np

from .core import GraphForm, MeasureSpace, _require_size, build_form
from .errors import InvalidSize
from .orderiso import OrderIso, doob_pair


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
    """
    if n < 1:
        raise InvalidSize("a random form needs n >= 1")
    _require_size(n)  # before the n^2 / 2 chord draws
    names = [f"{prefix}{i}" for i in range(n)]
    edges: dict[tuple[str, str], float] = {}
    for i in range(1, n):
        j = int(rng.integers(0, i))
        edges[(names[j], names[i])] = float(rng.uniform(*b_range))
    for i in range(n):
        for j in range(i + 1, n):
            key = (names[i], names[j])
            if key not in edges and rng.random() < extra_edge_prob:
                edges[key] = float(rng.uniform(*b_range))
    m = rng.uniform(*m_range, size=n)
    if recurrent is None:
        recurrent = bool(rng.random() < 0.5)
    c = np.zeros(n)
    if not recurrent:
        count = int(rng.integers(1, n + 1))
        hit = rng.choice(n, size=count, replace=False)
        c[hit] = rng.uniform(0.5, 2.0, size=count)
    return build_form(names, m, [(u, v, w) for (u, v), w in edges.items()], c)


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
    ends2 = np.array(names2, dtype=object)[np.argsort(perm)[form.edge_indices]].tolist()
    form2 = GraphForm._from_columns(space2, *ends2, scale * form.weights, scale * form.c[perm])
    h_const = 1.0 / math.sqrt(scale)
    iso = OrderIso(form.space, form2.space, tau, {y: h_const for y in names2})
    return form2, iso


def nonconstant_excessive_profile(rng: np.random.Generator, n: int) -> np.ndarray:
    """A strictly positive profile with min 1 and max/min >= 1.15."""
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
