"""Array and scalar container declarations.

The symbolic loop-nest representation describes data containers by name,
symbolic shape, and element type.  Shapes may refer to size parameters
(``N``, ``M``, ...), which are bound to concrete values only when a program
is executed or measured.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Optional, Sequence, Tuple

from .symbols import Expr, ExprLike, as_expr

if TYPE_CHECKING:  # pragma: no cover - import only needed for annotations
    import numpy as np

#: Supported element types (NumPy dtype names) and their sizes in bytes.
DTYPES = {
    "float64": 8,
    "float32": 4,
    "int64": 8,
    "int32": 4,
}


@dataclass(frozen=True)
class Array:
    """A data container: an n-dimensional array or (0-dimensional) scalar.

    Attributes:
        name: Container name, unique within a program.
        shape: Symbolic extents per dimension; empty for scalars.
        dtype: Element type name (see :data:`DTYPES`).
        transient: True for temporaries introduced by transformations; such
            containers are not part of the program's observable state.
        element_size: Size in bytes of one element, used by the performance
            model to translate accesses into cache lines.
    """

    name: str
    shape: Tuple[Expr, ...] = ()
    dtype: str = "float64"
    transient: bool = False

    def __post_init__(self) -> None:
        if self.dtype not in DTYPES:
            raise ValueError(f"unsupported dtype {self.dtype!r}")
        object.__setattr__(self, "shape", tuple(as_expr(s) for s in self.shape))

    @property
    def rank(self) -> int:
        """Number of dimensions (0 for scalars)."""
        return len(self.shape)

    @property
    def is_scalar(self) -> bool:
        return self.rank == 0

    @property
    def element_size(self) -> int:
        return DTYPES[self.dtype]

    def concrete_shape(self, parameters: Mapping[str, int]) -> Tuple[int, ...]:
        """Evaluate the symbolic shape under concrete parameter bindings."""
        return tuple(int(dim.evaluate(parameters)) for dim in self.shape)

    def size_in_elements(self, parameters: Mapping[str, int]) -> int:
        """Total number of elements under concrete parameter bindings."""
        total = 1
        for extent in self.concrete_shape(parameters):
            total *= extent
        return total

    def size_in_bytes(self, parameters: Mapping[str, int]) -> int:
        return self.size_in_elements(parameters) * self.element_size

    def row_major_strides(self, parameters: Mapping[str, int]) -> Tuple[int, ...]:
        """Row-major element strides for each dimension.

        The innermost (last) dimension has stride 1; this is the layout the
        paper assumes when computing stride costs for C code.
        """
        shape = self.concrete_shape(parameters)
        strides = [1] * len(shape)
        for dim in range(len(shape) - 2, -1, -1):
            strides[dim] = strides[dim + 1] * shape[dim + 1]
        return tuple(strides)

    def allocate(self, parameters: Mapping[str, int],
                 fill: Optional[float] = None,
                 rng: Optional[np.random.Generator] = None) -> np.ndarray:
        """Allocate a NumPy array matching the declaration.

        ``fill`` initializes all elements to a constant.  If ``rng`` is given,
        the array is filled with random values, uniform in [0, 1) for
        floating-point types and drawn from {0, 1, 2, 3} for integer types
        (a cast of [0, 1) would be all zeros); otherwise it is
        zero-initialized.
        """
        import numpy as np
        shape = self.concrete_shape(parameters)
        if fill is not None:
            return np.full(shape, fill, dtype=self.dtype)
        if rng is not None:
            if self.dtype.startswith("int"):
                return rng.integers(0, 4, size=shape, dtype=self.dtype)
            return rng.uniform(0.0, 1.0, size=shape).astype(self.dtype)
        return np.zeros(shape, dtype=self.dtype)


def array(name: str, shape: Sequence[ExprLike] = (), dtype: str = "float64",
          transient: bool = False) -> Array:
    """Convenience constructor for :class:`Array`."""
    return Array(name=name, shape=tuple(as_expr(s) for s in shape), dtype=dtype,
                 transient=transient)


def scalar(name: str, dtype: str = "float64", transient: bool = False) -> Array:
    """Convenience constructor for a scalar container."""
    return Array(name=name, shape=(), dtype=dtype, transient=transient)
