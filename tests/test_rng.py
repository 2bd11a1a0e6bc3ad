import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from accbo.rng import RandomStream

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
