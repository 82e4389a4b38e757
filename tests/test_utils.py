"""Utility modules: seeding and the error hierarchy."""

import numpy as np
import pytest

from repro.utils import (
    CapacityError,
    GraphConsistencyError,
    ModifierError,
    PartitionError,
    ReproError,
    derive_seed,
    make_rng,
)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "a", 1) == derive_seed(42, "a", 1)

    def test_tag_sensitivity(self):
        assert derive_seed(42, "a") != derive_seed(42, "b")
        assert derive_seed(42, "a", 1) != derive_seed(42, "a", 2)

    def test_parent_sensitivity(self):
        assert derive_seed(1, "x") != derive_seed(2, "x")

    def test_no_tag_concatenation_collision(self):
        """("ab",) and ("a", "b") must differ (separator byte)."""
        assert derive_seed(0, "ab") != derive_seed(0, "a", "b")

    def test_64_bit_range(self):
        value = derive_seed(123, "tag")
        assert 0 <= value < (1 << 64)

    def test_negative_parent_handled(self):
        assert derive_seed(-5, "x") == derive_seed(-5, "x")


class TestMakeRng:
    def test_returns_generator(self):
        assert isinstance(make_rng(1), np.random.Generator)

    def test_same_seed_same_stream(self):
        a = make_rng(7, "t").integers(0, 100, 10)
        b = make_rng(7, "t").integers(0, 100, 10)
        assert np.array_equal(a, b)

    def test_tags_decorrelate(self):
        a = make_rng(7, "t1").integers(0, 1 << 30, 10)
        b = make_rng(7, "t2").integers(0, 1 << 30, 10)
        assert not np.array_equal(a, b)


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            GraphConsistencyError,
            CapacityError,
            ModifierError,
            PartitionError,
        ],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)

    def test_catchable_as_base(self):
        with pytest.raises(ReproError):
            raise ModifierError("nope")
