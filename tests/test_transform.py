import numpy as np
import pytest

from fneq.core import Dataset
from fneq.errors import DomainError
from fneq.transform import (
    AugmentedSpace,
    augment_item,
    augment_items,
    augment_queries,
    augment_query,
    max_norm,
)


class TestMaxNorm:
    def test_dominant_norm(self):
        assert max_norm(Dataset([[3.0, 4.0], [0.0, 1.0]])) == 5.0

    def test_zero_dataset(self):
        assert max_norm(Dataset([[0.0, 0.0]])) == 0.0

    def test_bounds_every_item(self):
        rng = np.random.default_rng(0)
        items = rng.normal(size=(1000, 8)) * rng.lognormal(size=(1000, 1))
        phi = max_norm(Dataset(items))
        assert np.all(np.linalg.norm(items, axis=1) <= phi)


class TestAugmentItem:
    def test_boundary_item_gets_zero_head(self):
        np.testing.assert_allclose(augment_item([3.0, 4.0], 5.0), [0.0, 3.0, 4.0])

    def test_zero_item_gets_phi_head(self):
        np.testing.assert_allclose(augment_item([0.0, 0.0], 5.0), [5.0, 0.0, 0.0])

    def test_lifted_norm_equals_phi(self):
        rng = np.random.default_rng(1)
        items = rng.normal(size=(500, 16)) * rng.lognormal(size=(500, 1))
        phi = max_norm(Dataset(items))
        lifted = augment_items(items, phi)
        np.testing.assert_allclose(np.linalg.norm(lifted, axis=1), phi, atol=1e-7 * phi)

    def test_norm_above_phi_raises(self):
        with pytest.raises(DomainError):
            augment_item([3.0, 4.0], 4.0)

    def test_tiny_negative_radicand_clamped(self):
        x = np.array([3.0, 4.0])
        out = augment_item(x, 5.0 * (1 - 1e-14))
        assert out[0] == 0.0


class TestAugmentQuery:
    def test_definition(self):
        np.testing.assert_array_equal(augment_query([1.0, 2.0]), [0.0, 1.0, 2.0])

    def test_zero_query_kills_all_inner_products(self):
        rng = np.random.default_rng(2)
        items = rng.normal(size=(50, 4))
        lifted = augment_items(items, max_norm(Dataset(items)))
        qz = augment_query(np.zeros(4))
        np.testing.assert_array_equal(lifted @ qz, np.zeros(50))

    def test_inner_products_preserved(self):
        rng = np.random.default_rng(3)
        items = rng.normal(size=(400, 24))
        queries = rng.normal(size=(50, 24))
        phi = max_norm(Dataset(items))
        lifted_items = augment_items(items, phi)
        lifted_queries = augment_queries(queries)
        before = queries @ items.T
        after = lifted_queries @ lifted_items.T
        assert np.all(np.abs(after - before) <= 1e-9 * (1.0 + np.abs(before)))


class TestNnsEquivalence:
    def test_distance_identity(self):
        rng = np.random.default_rng(4)
        items = rng.normal(size=(200, 12))
        queries = rng.normal(size=(20, 12))
        phi = max_norm(Dataset(items))
        z = augment_items(items, phi)
        qz = augment_queries(queries)
        for qi in range(20):
            lhs = np.sum((qz[qi] - z) ** 2, axis=1)
            rhs = queries[qi] @ queries[qi] + phi**2 - 2.0 * (items @ queries[qi])
            np.testing.assert_allclose(lhs, rhs, rtol=1e-6)

    def test_argmin_distance_is_argmax_inner_product(self):
        rng = np.random.default_rng(5)
        items = rng.normal(size=(300, 10))
        queries = rng.normal(size=(30, 10))
        phi = max_norm(Dataset(items))
        z = augment_items(items, phi)
        qz = augment_queries(queries)
        for qi in range(30):
            by_ip = int(np.argmax(items @ queries[qi]))
            by_dist = int(np.argmin(np.sum((qz[qi] - z) ** 2, axis=1)))
            assert by_ip == by_dist

    def test_space_summary(self):
        data = Dataset([[3.0, 4.0]])
        space = AugmentedSpace(phi=max_norm(data), D_aug=data.dim + 1)
        assert space.phi == 5.0 and space.D_aug == 3
