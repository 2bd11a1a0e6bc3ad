import zlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from accbo import rng, snag
from accbo.baselines import run_plain_momentum_bilevel
from accbo.constants import derive_schedule
from accbo.hypergrad import EstimatorConfig, empirical_bias_and_variance
from accbo.optimizer import run_accbo
from accbo.problems import make_fixture_ridge
from accbo.rng import _BLOCK, RandomStream, _Family
from accbo.snag import DriftProcess, TrackingBoundParams, mc_tracking_grid

from conftest import analytic_instances, scaled_ridge

# numpy reports uint32 overflow in scalar arithmetic as a RuntimeWarning.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

seeds = st.integers(min_value=0, max_value=2**63 - 1)
labels = st.sampled_from(["warm", "lower", "upper", "noise", "xf", "yf", "q"])
indices = st.integers(min_value=0, max_value=10**6)


class TestDeterminism:
    def test_same_path_same_draws(self):
        a = RandomStream(7).child("warm", 3).normal(5)
        b = RandomStream(7).child("warm", 3).normal(5)
        np.testing.assert_array_equal(a, b)

    def test_construction_order_irrelevant(self):
        root = RandomStream(42)
        direct = RandomStream(42, (("a", 1), ("b", 2)))
        chained = root.child("a", 1).child("b", 2)
        np.testing.assert_array_equal(direct.normal(4), chained.normal(4))

    @given(seed=seeds, label=labels, index=indices)
    @settings(max_examples=50)
    def test_reproducible_across_instances(self, seed, label, index):
        a = RandomStream(seed).child(label, index)
        b = RandomStream(seed).child(label, index)
        assert a == b
        np.testing.assert_array_equal(a.normal(3), b.normal(3))

    def test_repeated_generator_calls_restart(self):
        s = RandomStream(1).child("x")
        np.testing.assert_array_equal(s.normal(8), s.normal(8))


class TestIndependence:
    def test_sibling_streams_differ(self):
        root = RandomStream(0)
        a = root.child("noise", 0).normal(4)
        b = root.child("noise", 1).normal(4)
        c = root.child("drift", 0).normal(4)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_seed_changes_draws(self):
        a = RandomStream(1).child("x").normal(4)
        b = RandomStream(2).child("x").normal(4)
        assert not np.array_equal(a, b)

    def test_parent_child_differ(self):
        root = RandomStream(5)
        assert not np.array_equal(root.normal(4), root.child("x").normal(4))


class TestDrawHelpers:
    def test_integers_range(self):
        for k in range(200):
            q = RandomStream(3).child("q", k).integers(0, 7)
            assert 0 <= q < 7

    def test_integers_covers_support(self):
        vals = {RandomStream(3).child("q", k).integers(0, 4) for k in range(100)}
        assert vals == {0, 1, 2, 3}

    def test_normal_scale(self):
        draws = RandomStream(11).child("big").normal(200_000, scale=0.5)
        assert np.std(draws) == pytest.approx(0.5, rel=0.02)
        assert np.mean(draws) == pytest.approx(0.0, abs=0.01)


class TestValueSemantics:
    def test_equality_and_hash(self):
        a = RandomStream(1).child("x", 2)
        b = RandomStream(1).child("x", 2)
        assert a == b and hash(a) == hash(b)
        assert a != RandomStream(1).child("x", 3)

    def test_child_does_not_mutate_parent(self):
        root = RandomStream(4)
        before = root.normal(3)
        root.child("anything", 17)
        np.testing.assert_array_equal(before, root.normal(3))


# ---------------------------------------------------------------------------
# Stream families: seed words derived a block of rows at a time must be the
# words numpy's SeedSequence derives, and the draws those of child(...).

M64 = 2**64 - 1
words32 = st.integers(min_value=0, max_value=2**32 - 1)
segments = st.lists(st.tuples(labels, st.integers(min_value=0, max_value=2**40)),
                    max_size=2)
# Rows on both sides of the first two block boundaries, and the last row.
block_rows = st.sampled_from([0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK, -1])


def numpy_draws(stream: RandomStream, size: int = 3) -> np.ndarray:
    """Reference draws: SeedSequence of the (seed, CRC32(label), index, ...) ints."""
    entropy = [stream.seed & M64]
    for label, index in stream.path:
        entropy += [zlib.crc32(label.encode("utf-8")), index & M64]
    seq = np.random.SeedSequence(entropy)
    return np.random.Generator(np.random.PCG64(seq)).random(size)


class TestFamilies:
    @given(head=st.lists(words32, max_size=6), tail=st.lists(words32, max_size=4),
           rows=st.lists(st.integers(min_value=0, max_value=3 * _BLOCK), min_size=1,
                         max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_words_equal_seedsequence(self, head, tail, rows):
        # Short heads leave the 4-word pool zero-padded; long tails are mixed
        # in after the pool.
        family = _Family(tuple(head), tuple(tail), 3 * _BLOCK + 1)
        for r in rows:
            expected = np.random.SeedSequence(head + [r] + tail).generate_state(4, np.uint64)
            np.testing.assert_array_equal(family.words(r), expected)

    @given(seed=st.integers(min_value=0, max_value=M64), prefix=segments,
           label=labels, row=block_rows, suffix=segments)
    @settings(max_examples=60, deadline=None)
    def test_rows_equal_children(self, seed, prefix, label, row, suffix):
        # Seeds >= 2**32 are two entropy words, as are indices >= 2**32.
        parent = RandomStream(seed, tuple(prefix))
        family = parent.children(label, 2 * _BLOCK + 3)
        a, b = family[row], parent.child(label, row % len(family))
        for seg_label, index in suffix:
            a, b = a.child(seg_label, index), b.child(seg_label, index)
        assert a == b and hash(a) == hash(b)
        expected = numpy_draws(b)
        np.testing.assert_array_equal(a.generator().random(3), expected)
        np.testing.assert_array_equal(b.generator().random(3), expected)

    def test_nested_families_match_scalar_draws(self):
        uppers = RandomStream(11).child("sweep", 2).children("upper", 3 * _BLOCK)
        for t in range(0, 3 * _BLOCK, 37):
            chain = uppers[t].child("chain", 1)
            for stream in (uppers[t].child("q"), chain, chain.child("hvp", 4)):
                np.testing.assert_array_equal(stream.generator().random(3),
                                              numpy_draws(stream))

    def test_rows_past_one_word_take_the_scalar_path(self):
        root = RandomStream(3)
        family = root.children("big", 2**32 + 2)
        assert len(family) == 2**32 + 2
        for i in (2**32 - 1, 2**32, 2**32 + 1):
            for a, b in ((family[i], root.child("big", i)),
                         (family[i].child("hvp", 2), root.child("big", i).child("hvp", 2))):
                assert a == b and hash(a) == hash(b)
                np.testing.assert_array_equal(a.generator().random(3), numpy_draws(b))

    def test_words_derived_once_per_block_and_only_when_drawn(self, monkeypatch):
        seed_words = rng._seed_words
        derived = []

        def counted(columns):
            derived.append(columns)
            return seed_words(columns)

        monkeypatch.setattr(rng, "_seed_words", counted)
        family = RandomStream(0).children("upper", 3 * _BLOCK)
        rows = [family[t].child("chain", 0).child("hvp", 1) for t in range(3 * _BLOCK)]
        assert derived == []
        for t in (0, 5, _BLOCK - 1):
            rows[t].generator()
        assert len(derived) == 1
        rows[_BLOCK].generator()
        assert len(derived) == 2

    def test_memory_is_one_block_whatever_the_length(self):
        family = RandomStream(0).children("upper", 6 * 10**7)
        last = family[-1]
        assert last == RandomStream(0).child("upper", 6 * 10**7 - 1)
        np.testing.assert_array_equal(last.generator().random(3), numpy_draws(last))
        assert last._family._words.shape == (6 * 10**7 % _BLOCK, 4)

    def test_sequence_protocol(self):
        family = RandomStream(2).children("mc", 5)
        assert list(family) == [RandomStream(2).child("mc", k) for k in range(5)]
        assert family[-5] == family[0]
        with pytest.raises(IndexError):
            family[5]
        with pytest.raises(IndexError):
            family[-6]


def _runs(monkeypatch, run):
    """run() on stream families, then with children replaced by the scalar
    reference: one plain child(label, i) per index."""
    batched = run()
    monkeypatch.setattr(RandomStream, "children",
                        lambda self, label, n: [self.child(label, i) for i in range(n)])
    return batched, run()


def _schedule(inst, **overrides):
    return derive_schedule(inst.constants, 0.05, 0.05, 1.0, mode="practical",
                           overrides={"alpha": 0.04, "eta": 0.01, **overrides})


class TestBatchedMatchesScalarReference:
    # Loops longer than a block, with noise on every oracle the loop draws.
    T = _BLOCK + 40

    @pytest.mark.parametrize("runner", ["accbo", "plain_momentum"])
    def test_option_one_isotropic(self, monkeypatch, runner):
        inst = analytic_instances(noise=True)[0]
        s = _schedule(inst, T=self.T, T0=self.T, S=2, Q=3)

        def run():
            if runner == "accbo":
                logs = run_accbo(inst, s, "one", RandomStream(4).child("run", 1))
            else:
                logs = run_plain_momentum_bilevel(inst, s, RandomStream(4).child("run", 1))
            return [vars(rec) for rec in logs]

        batched, scalar = _runs(monkeypatch, run)
        assert batched == scalar

    def test_option_two_ridge(self, monkeypatch):
        inst = scaled_ridge()
        s = _schedule(inst, T=self.T, T0=50, S=1, Q=4, I=2, N=3, alpha=1e-3)

        def run():
            return [vars(rec) for rec in run_accbo(inst, s, "two", RandomStream(9))]

        batched, scalar = _runs(monkeypatch, run)
        assert batched == scalar

    def test_empirical_bias_and_variance(self, monkeypatch):
        inst = make_fixture_ridge(sigma_f1=0.1, sigma_g1=0.1, sigma_g2=0.1)
        cfg = EstimatorConfig(Q=4, S=1, l_g1=inst.constants.l_g1)

        def run():
            res = empirical_bias_and_variance(inst, np.zeros(inst.dim_x), cfg, self.T,
                                              RandomStream(2).child("bias", 4))
            return {k: np.asarray(v).tobytes() for k, v in res.items()}

        batched, scalar = _runs(monkeypatch, run)
        assert batched == scalar

    def test_two_cell_tracking_grid(self, monkeypatch):
        p = TrackingBoundParams(mu=1.0, alpha=0.04, sigma=0.5, delta_drift=0.05, T=60,
                                delta_prob=0.05, V0=1.0)
        cells = [(p, DriftProcess(kind="random_walk", delta=0.05)),
                 (replace(p, sigma=0.25, delta_drift=0.0), DriftProcess())]

        unit_tape = snag._unit_tape
        tapes = []

        def recorded(*args):
            tapes.append(unit_tape(*args))
            return tapes[-1]

        monkeypatch.setattr(snag, "_unit_tape", recorded)

        def run():
            tapes.clear()
            rates = mc_tracking_grid(cells, self.T, dim=2, base_seed=3)
            # A rate counts seeds, so one seed's changed tape could leave it as is.
            return rates, [tape.tobytes() for tape in tapes]

        batched, scalar = _runs(monkeypatch, run)
        assert batched == scalar
