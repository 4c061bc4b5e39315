import re
from dataclasses import fields

import numpy as np
import pytest

from fneq.core import (
    MAX_CODEWORDS,
    CodeMatrix,
    Codebook,
    Dataset,
    NormCodebook,
    QuerySet,
    SubVectorLayout,
    code_dtype,
    direction_vector,
    l2_norm,
    pad_to_multiple,
    split_subvectors,
)
from fneq.errors import InvalidInputError, ZeroNormError


class TestSplitSubvectors:
    def test_two_halves(self):
        layout = SubVectorLayout(D=4, m_dir=2)
        parts = split_subvectors(np.array([1.0, 2.0, 3.0, 4.0]), layout)
        np.testing.assert_array_equal(parts[0], [1.0, 2.0])
        np.testing.assert_array_equal(parts[1], [3.0, 4.0])

    def test_identity_case(self):
        parts = split_subvectors(np.array([5.0]), SubVectorLayout(D=1, m_dir=1))
        assert len(parts) == 1
        np.testing.assert_array_equal(parts[0], [5.0])

    def test_roundtrip_is_bitwise(self):
        rng = np.random.default_rng(0)
        layout = SubVectorLayout(D=512, m_dir=8)
        for _ in range(20):
            x = rng.normal(size=512)
            parts = split_subvectors(x, layout)
            assert len(parts) == 8
            assert all(p.shape == (64,) for p in parts)
            np.testing.assert_array_equal(np.concatenate(parts), x)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            split_subvectors(np.zeros(5), SubVectorLayout(D=4, m_dir=2))

    def test_layout_requires_divisibility(self):
        with pytest.raises(InvalidInputError):
            SubVectorLayout(D=10, m_dir=3)


class TestL2Norm:
    def test_three_four_five(self):
        assert l2_norm(np.array([3.0, 4.0])) == 5.0

    def test_zero_vector(self):
        assert l2_norm(np.zeros(3)) == 0.0

    def test_homogeneity(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            x = rng.normal(size=rng.integers(1, 40))
            c = rng.normal() * 10
            np.testing.assert_allclose(
                l2_norm(c * x), abs(c) * l2_norm(x), rtol=1e-9, atol=1e-12
            )

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            l2_norm(np.array([1.0, np.inf]))


class TestDirectionVector:
    def test_three_four_five(self):
        np.testing.assert_allclose(direction_vector([3.0, 4.0]), [0.6, 0.8])

    def test_basis_vector_fixed_point(self):
        e1 = np.array([1.0, 0.0, 0.0])
        np.testing.assert_array_equal(direction_vector(e1), e1)

    def test_unit_norm(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            x = rng.normal(size=rng.integers(1, 64)) * rng.lognormal()
            assert abs(l2_norm(direction_vector(x)) - 1.0) <= 1e-9

    def test_zero_vector_raises(self):
        with pytest.raises(ZeroNormError):
            direction_vector(np.zeros(4))


#: (type, shape, the rejection's message, or None where the type accepts the shape).
SHAPE_VERDICTS = [
    (Dataset, (2, 3), None),
    (Dataset, (0, 3), "items must be a non-empty 2-D matrix, got shape (0, 3)"),
    (Dataset, (3, 0), "items must be a non-empty 2-D matrix, got shape (3, 0)"),
    (Dataset, (0, 0), "items must be a non-empty 2-D matrix, got shape (0, 0)"),
    (Dataset, (3,), "items must be a non-empty 2-D matrix, got shape (3,)"),
    (QuerySet, (0, 3), None),
    (QuerySet, (3, 0), None),
    (QuerySet, (0, 0), None),
    (QuerySet, (3,), "queries must be a 2-D matrix, got shape (3,)"),
    (QuerySet, (1, 2, 3), "queries must be a 2-D matrix, got shape (1, 2, 3)"),
    (Codebook, (3, 0), None),
    (Codebook, (0, 3), "codewords must be a non-empty 2-D matrix, got shape (0, 3)"),
    (Codebook, (3,), "codewords must be a non-empty 2-D matrix, got shape (3,)"),
    (Codebook, (MAX_CODEWORDS, 1), None),
    (Codebook, (MAX_CODEWORDS + 1, 1), "k_star=65536 exceeds the 65535 code-width bound"),
    (NormCodebook, (1,), None),
    (NormCodebook, (0,), "values must be a non-empty 1-D array"),
    (NormCodebook, (), "values must be a non-empty 1-D array"),
    (NormCodebook, (2, 1), "values must be a non-empty 1-D array"),
    (NormCodebook, (MAX_CODEWORDS,), None),
    (NormCodebook, (MAX_CODEWORDS + 1,), "k_star=65536 exceeds the 65535 code-width bound"),
]
SMALLEST = {Dataset: (1, 1), QuerySet: (1, 1), Codebook: (1, 1), NormCodebook: (1,)}


class TestFrozenArrayTypes:
    @pytest.mark.parametrize("cls,shape,message", SHAPE_VERDICTS,
                             ids=[f"{c.__name__}-{s}" for c, s, _ in SHAPE_VERDICTS])
    def test_shape_verdict(self, cls, shape, message):
        a = np.zeros(shape, dtype=np.float32)
        if message is not None:
            with pytest.raises(InvalidInputError, match=re.escape(message)):
                cls(a)
            return
        stored = getattr(cls(a), fields(cls)[0].name)
        assert stored.dtype == np.float64 and stored.shape == shape
        assert stored.flags.c_contiguous and not stored.flags.writeable

    @pytest.mark.parametrize("cls", SMALLEST, ids=lambda c: c.__name__)
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, cls, bad):
        name = fields(cls)[0].name
        with pytest.raises(InvalidInputError, match=f"^{name} must contain only finite values$"):
            cls(np.full(SMALLEST[cls], bad))

    def test_stored_copy_is_detached_from_the_input(self):
        source = np.ones((2, 2))
        data = Dataset(source)
        source[0, 0] = 7.0
        assert data.items[0, 0] == 1.0


class TestDomainTypes:
    def test_dataset_rejects_nan(self):
        with pytest.raises(InvalidInputError):
            Dataset(np.array([[1.0, np.nan]]))

    def test_dataset_rejects_empty(self):
        with pytest.raises(InvalidInputError):
            Dataset(np.empty((0, 3)))

    def test_dataset_is_immutable(self):
        data = Dataset(np.ones((2, 2)))
        with pytest.raises(ValueError):
            data.items[0, 0] = 7.0

    def test_queryset_shape(self):
        qs = QuerySet(np.ones((3, 5)))
        assert qs.count == 3 and qs.dim == 5

    def test_codebook_width_bound(self):
        with pytest.raises(InvalidInputError):
            Codebook(np.zeros((70000, 2)))

    def test_norm_codebook_sorted(self):
        with pytest.raises(InvalidInputError):
            NormCodebook(np.array([2.0, 1.0]))

    def test_norm_codebook_sign_policy(self):
        with pytest.raises(InvalidInputError):
            NormCodebook(np.array([-1.0, 2.0]))
        signed = NormCodebook(np.array([-1.0, 2.0]), signed=True)
        assert signed.k_star == 2

    def test_code_matrix_bounds_checked(self):
        CodeMatrix(np.array([[0, 1], [1, 2]]), k_stars=(2, 3))
        with pytest.raises(InvalidInputError):
            CodeMatrix(np.array([[0, 3]]), k_stars=(2, 3))
        bad = [
            (np.array([0, 1]), (2,), r"^codes must be 2-D, got shape \(2,\)$"),
            (np.array([[0.0, 1.0]]), (2, 2), "^codes must be integers$"),
            (np.array([[0, 1]]), (2,), "^expected 2 per-column bounds, got 1$"),
            (np.array([[0, -1]]), (2, 2), "^codes must be non-negative$"),
        ]
        for codes, k_stars, message in bad:
            with pytest.raises(InvalidInputError, match=message):
                CodeMatrix(codes, k_stars=k_stars)

    def test_code_matrix_width(self):
        cm = CodeMatrix(np.array([[255]]), k_stars=(256,))
        assert cm.codes.dtype == np.uint8
        wide = CodeMatrix(np.array([[300]]), k_stars=(1000,))
        assert wide.codes.dtype == np.uint16
        assert code_dtype(257) is np.uint16


class TestPadToMultiple:
    def test_noop_when_divisible(self):
        x = np.ones((3, 8))
        assert pad_to_multiple(x, 4).shape == (3, 8)

    def test_pads_to_next_multiple(self):
        x = np.ones((3, 64))
        assert pad_to_multiple(x, 7).shape == (3, 70)

    def test_validation(self):
        with pytest.raises(InvalidInputError, match="^expected a 2-D matrix$"):
            pad_to_multiple(np.ones(4), 3)
        with pytest.raises(InvalidInputError, match="^m_dir must be positive$"):
            pad_to_multiple(np.ones((2, 4)), 0)

    def test_preserves_inner_products_and_norms(self):
        rng = np.random.default_rng(3)
        items = rng.normal(size=(20, 13))
        queries = rng.normal(size=(5, 13))
        ip_before = queries @ items.T
        pi, pq = pad_to_multiple(items, 5), pad_to_multiple(queries, 5)
        np.testing.assert_array_equal(pq @ pi.T, ip_before)
        np.testing.assert_array_equal(
            np.linalg.norm(pi, axis=1), np.linalg.norm(items, axis=1)
        )
