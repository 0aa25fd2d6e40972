"""Tests for array/scalar container declarations."""

import numpy as np
import pytest

from repro.ir.arrays import DTYPES, Array, array, scalar
from repro.ir.symbols import Sym


class TestDeclaration:
    def test_basic_properties(self):
        arr = array("A", ("N", "M"))
        assert arr.rank == 2
        assert not arr.is_scalar
        assert arr.element_size == 8

    def test_scalar(self):
        s = scalar("alpha")
        assert s.rank == 0
        assert s.is_scalar

    def test_invalid_dtype_rejected(self):
        with pytest.raises(ValueError):
            array("A", ("N",), dtype="float16")

    def test_float32_element_size(self):
        assert array("A", ("N",), dtype="float32").element_size == 4

    @pytest.mark.parametrize("dtype", sorted(DTYPES))
    def test_element_size_is_the_numpy_itemsize(self, dtype):
        assert DTYPES[dtype] == np.dtype(dtype).itemsize
        assert array("A", ("N",), dtype=dtype).element_size == np.dtype(dtype).itemsize


class TestShapes:
    def test_concrete_shape(self):
        arr = array("A", ("N", Sym("M") + 1))
        assert arr.concrete_shape({"N": 4, "M": 5}) == (4, 6)

    def test_size_in_elements_and_bytes(self):
        arr = array("A", ("N", "M"))
        assert arr.size_in_elements({"N": 3, "M": 5}) == 15
        assert arr.size_in_bytes({"N": 3, "M": 5}) == 15 * 8

    def test_row_major_strides(self):
        arr = array("A", ("N", "M", "K"))
        assert arr.row_major_strides({"N": 2, "M": 3, "K": 4}) == (12, 4, 1)

    def test_scalar_strides_empty(self):
        assert scalar("x").row_major_strides({}) == ()


class TestAllocation:
    def test_zero_allocation(self):
        data = array("A", ("N",)).allocate({"N": 4})
        assert data.shape == (4,)
        assert np.all(data == 0)

    def test_fill_allocation(self):
        data = array("A", ("N",)).allocate({"N": 3}, fill=2.5)
        assert np.all(data == 2.5)

    def test_random_allocation_reproducible(self):
        arr = array("A", ("N", "M"))
        first = arr.allocate({"N": 3, "M": 4}, rng=np.random.default_rng(7))
        second = arr.allocate({"N": 3, "M": 4}, rng=np.random.default_rng(7))
        assert np.array_equal(first, second)

    def test_scalar_allocation_is_zero_dimensional(self):
        data = scalar("x").allocate({})
        assert data.shape == ()
