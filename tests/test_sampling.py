"""The block draws of `sampling.random_form` against the per-pair loop
(`conftest.oracle_random_form`), and the index-column families of
`core.generate` against lists of id triples (`conftest.oracle_generate`):
equal forms, edge column order (`_key_order`), vertex ids, errors and,
for the samplers, the bit generator's end state."""

import math

import numpy as np
import pytest
from conftest import oracle_generate, oracle_random_form, rng_for

import dirikit as dk
from dirikit import sampling
from dirikit.core import MAX_VERTICES
from dirikit.errors import InvalidSize, NegativeWeight, SelfLoop
from dirikit.sampling import random_form, relabel_pair

BIT_GENERATORS = (np.random.PCG64, np.random.MT19937, np.random.Philox, np.random.SFC64)


def outcome(make, rng, *args, **kwargs):
    """The form with its key order and vertex ids, or the error's type and
    message, then the bit generator's end state."""
    try:
        form = make(rng, *args, **kwargs)
    except Exception as exc:
        result = (type(exc), str(exc))
    else:
        result = (form, form._key_order.dtype, form._key_order.tobytes(), form.space.vertices)
    return result, repr(rng.bit_generator.state) if rng is not None else None


def assert_same_draws(seed, n, bit_generator=np.random.PCG64, **kwargs):
    expected = outcome(oracle_random_form, np.random.Generator(bit_generator(seed)), n, **kwargs)
    got = outcome(random_form, np.random.Generator(bit_generator(seed)), n, **kwargs)
    assert got == expected, (seed, n, bit_generator.__name__, kwargs)


class TestRandomFormStream:
    @pytest.mark.parametrize("recurrent", [None, True, False])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 17, 77, 160])
    def test_seeds(self, n, recurrent):
        for seed in range(6 if n < 100 else 2):
            assert_same_draws(seed, n, recurrent=recurrent)

    @pytest.mark.parametrize("p", [0.0, 0.35, 1.0, math.nan])
    def test_chord_probability(self, p):
        for seed in range(8):
            for n in (3, 4, 12, 40):
                assert_same_draws(seed, n, extra_edge_prob=p)

    def test_ranges_and_prefix(self):
        for seed in range(8):
            for n in (1, 2, 9, 30):
                assert_same_draws(seed, n, b_range=(1e-3, 7.5), m_range=(0.1, 3.0), prefix="x")
                # ids whose string order is not their index order
                assert_same_draws(seed, n, prefix="")

    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda g: g.__name__)
    def test_bit_generators(self, bit_generator):
        for seed in range(10):
            for n in (2, 3, 7, 33):
                for p in (0.35, 1.0):
                    assert_same_draws(seed, n, bit_generator, extra_edge_prob=p)

    @pytest.mark.parametrize("block", [1, 2, 3, 7])
    def test_blocks_carry_the_next_role(self, monkeypatch, block):
        # blocks of a few doubles: an accepted pair's weight draw falls in
        # the next block, and the last block holds draws the loop never makes
        monkeypatch.setattr(sampling, "_DRAW_BLOCK", block)
        for seed in range(12):
            for n in (3, 6, 13):
                for p in (0.35, 0.9, 1.0):
                    assert_same_draws(seed, n, np.random.SFC64, extra_edge_prob=p)

    @pytest.mark.parametrize("n", [0, -1, MAX_VERTICES + 1])
    def test_size_refused_before_a_draw(self, n):
        rng = rng_for(3)
        state = repr(rng.bit_generator.state)
        with pytest.raises(InvalidSize):
            random_form(rng, n)
        assert repr(rng.bit_generator.state) == state
        assert outcome(random_form, rng_for(3), n) == outcome(oracle_random_form, rng_for(3), n)

    @pytest.mark.parametrize("b_range", [(-1e308, 1e308), (2.0, 0.5), (-1.0, 0.5)],
                             ids=["overflow", "reversed", "negative"])
    def test_errors_as_the_loop_raises_them(self, b_range):
        # OverflowError and ValueError at the first tree draw; NegativeWeight
        # names the first negative edge in column order
        for n in (1, 2, 3, 8):
            for seed in range(4):
                assert_same_draws(seed, n, b_range=b_range)
        (error, _), _ = outcome(random_form, rng_for(0), 2, b_range=b_range)
        assert error is {(-1e308, 1e308): OverflowError, (2.0, 0.5): ValueError,
                         (-1.0, 0.5): NegativeWeight}[b_range]

    def test_relabel_pair_is_the_id_route(self):
        for seed in range(10):
            rng = rng_for(seed)
            form = random_form(rng, 1 + 3 * seed, recurrent=seed % 2 == 0)
            state = rng.bit_generator.state
            form2, _ = relabel_pair(rng, form, scale=1.7)
            rng.bit_generator.state = state
            perm = rng.permutation(len(form.space))
            ends = np.array(form2.space.vertices, dtype=object)[np.argsort(perm)[form.edge_indices]]
            expected = dk.GraphForm._from_columns(form2.space, *ends.tolist(), 1.7 * form.weights,
                                                  1.7 * form.c[perm])
            assert form2 == expected
            assert form2._key_order.tobytes() == expected._key_order.tobytes()


class TestIndexColumns:
    @pytest.mark.parametrize("family", ["path", "cycle", "complete"])
    @pytest.mark.parametrize("n", [-1, 0, 1, 2, 3, 7, 300, MAX_VERTICES + 1])
    def test_generate_equals_id_triples(self, family, n):
        for kwargs in ({}, {"conductance": 2.5, "measure": 0.5}, {"conductance": -1.0},
                       {"conductance": math.nan}, {"measure": 0.0}):
            expected = outcome(lambda _, *args, **kw: oracle_generate(*args, **kw), None,
                               family, n, **kwargs)
            got = outcome(lambda _, *args, **kw: dk.generate(*args, **kw), None, family, n, **kwargs)
            assert got == expected, (family, n, kwargs)

    def test_faults_named_by_their_ids(self):
        space = dk.MeasureSpace(["b", "a", "c"], 1.0)
        for ends, weights, error in (([[0, 1], [1, 1]], [1.0, 2.0], SelfLoop),
                                     ([[0, 2], [1, 1]], [1.0, -2.0], NegativeWeight),
                                     ([[0, 1, 2], [1, 0, 0]], [1.0, 1.0, math.inf], None)):
            ids = np.array(space.vertices, dtype=object)[ends].tolist()
            with pytest.raises(Exception) as by_ids:
                dk.GraphForm._from_columns(space, *ids, weights)
            with pytest.raises(Exception) as by_indices:
                dk.GraphForm._from_indices(space, np.array(ends), np.array(weights))
            assert error is None or by_ids.type is error
            assert (by_indices.type, str(by_indices.value)) == (by_ids.type, str(by_ids.value))
