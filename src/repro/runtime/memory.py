"""Array storage and procedure memory.

Arrays are numpy-backed with Fortran-style per-dimension lower bounds
(default 1). A :class:`Memory` holds every variable of one procedure
invocation; assumed-size dimensions get their extents from the caller.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..ir.program import Procedure
from ..ir.types import ArrayType, Kind, ScalarType, Type

_DTYPES = {
    Kind.REAL: np.float64,
    Kind.INTEGER: np.int64,
    Kind.LOGICAL: np.bool_,
}

_SCALAR_DEFAULTS = {
    Kind.REAL: 0.0,
    Kind.INTEGER: 0,
    Kind.LOGICAL: False,
}


class BoundsError(IndexError):
    """An array subscript fell outside its declared bounds."""


@dataclass
class ArrayStorage:
    """A rectangular array with inclusive lower/upper bounds.

    ``data`` is C-contiguous (it comes from ``np.zeros`` or
    ``ndarray.copy()`` and is never reassigned), so ``flat`` is a view
    of it and a location's flat id is the dot product of its 0-based
    offsets with the row-major ``strides`` (in elements).
    """

    name: str
    kind: Kind
    lowers: Tuple[int, ...]
    data: np.ndarray
    strides: Tuple[int, ...] = field(init=False, repr=False, compare=False)
    flat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # Loads return ``flat.item(...)``, which is a Python float, int
        # or bool because the dtype is the kind's; a C-contiguous
        # ``reshape(-1)`` is a view, so stores through ``flat`` land in
        # ``data``.
        assert self.data.dtype == _DTYPES[self.kind], self.name
        assert self.data.flags.c_contiguous, self.name
        self.flat = self.data.reshape(-1)
        strides = []
        step = 1
        for extent in reversed(self.data.shape):
            strides.append(step)
            step *= extent
        self.strides = tuple(reversed(strides))

    @classmethod
    def allocate(cls, name: str, type_: ArrayType,
                 extents: Optional[Sequence[int]] = None) -> "ArrayStorage":
        lowers = []
        shape = []
        for axis, dim in enumerate(type_.dims):
            lowers.append(dim.lower)
            if dim.extent is not None:
                shape.append(dim.extent)
            else:
                if extents is None or axis >= len(extents) or extents[axis] is None:
                    raise ValueError(
                        f"array {name!r} has an assumed-size dimension {axis}; "
                        f"an extent must be supplied")
                shape.append(int(extents[axis]))
        data = np.zeros(tuple(shape), dtype=_DTYPES[type_.kind])
        return cls(name, type_.kind, tuple(lowers), data)

    @classmethod
    def from_values(cls, name: str, type_: ArrayType, values: np.ndarray) -> "ArrayStorage":
        values = np.asarray(values, dtype=_DTYPES[type_.kind])
        if values.ndim != type_.rank:
            raise ValueError(f"array {name!r}: rank {type_.rank} expected, "
                             f"got data of rank {values.ndim}")
        for axis, dim in enumerate(type_.dims):
            if dim.extent is not None and values.shape[axis] != dim.extent:
                raise ValueError(
                    f"array {name!r} axis {axis}: declared extent {dim.extent}, "
                    f"got {values.shape[axis]}")
        lowers = tuple(d.lower for d in type_.dims)
        return cls(name, type_.kind, lowers, values.copy())

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return int(self.data.size)

    def _offset(self, indices: Sequence[int]) -> Tuple[int, ...]:
        if len(indices) != len(self.lowers):
            raise BoundsError(
                f"array {self.name!r}: {len(self.lowers)} subscripts expected, "
                f"got {len(indices)}")
        out = []
        for axis, (idx, low) in enumerate(zip(indices, self.lowers)):
            pos = int(idx) - low
            if pos < 0 or pos >= self.data.shape[axis]:
                raise BoundsError(
                    f"array {self.name!r} axis {axis}: subscript {idx} outside "
                    f"[{low}, {low + self.data.shape[axis] - 1}]")
            out.append(pos)
        return tuple(out)

    def get(self, indices: Sequence[int]):
        """The element as a Python ``float``, ``int`` or ``bool``."""
        return self.flat.item(self.flat_index(indices))

    def set(self, indices: Sequence[int], value) -> None:
        self.flat[self.flat_index(indices)] = value

    def flat_index(self, indices: Sequence[int]) -> int:
        """A unique linear id for a location: its index into ``flat``
        (what the interpreter reports to tracers)."""
        return sum(pos * stride for pos, stride
                   in zip(self._offset(indices), self.strides))

    def fill(self, value) -> None:
        self.data.fill(value)

    def copy(self) -> "ArrayStorage":
        return ArrayStorage(self.name, self.kind, self.lowers, self.data.copy())


class Memory:
    """All variables of one procedure invocation."""

    def __init__(self) -> None:
        self.scalars: Dict[str, int | float | bool] = {}
        self.arrays: Dict[str, ArrayStorage] = {}

    @classmethod
    def for_procedure(
        cls,
        proc: Procedure,
        bindings: Mapping[str, object] = (),
        extents: Mapping[str, Sequence[int]] = (),
    ) -> "Memory":
        """Allocate every symbol of *proc*.

        ``bindings`` provides initial values (scalars or array data);
        ``extents`` provides shapes for assumed-size arrays that are not
        covered by ``bindings``.
        """
        bindings = dict(bindings)
        extents = dict(extents)
        mem = cls()
        for name in proc.symbols():
            type_ = proc.type_of(name)
            if isinstance(type_, ArrayType):
                if name in bindings:
                    mem.arrays[name] = ArrayStorage.from_values(
                        name, type_, np.asarray(bindings.pop(name)))
                else:
                    mem.arrays[name] = ArrayStorage.allocate(
                        name, type_, extents.get(name))
            else:
                assert isinstance(type_, ScalarType)
                if name in bindings:
                    mem.scalars[name] = bindings.pop(name)  # type: ignore[assignment]
                else:
                    mem.scalars[name] = _SCALAR_DEFAULTS[type_.kind]
        if bindings:
            unknown = ", ".join(sorted(bindings))
            raise KeyError(f"bindings for unknown symbols: {unknown}")
        return mem

    def get_scalar(self, name: str):
        return self.scalars[name]

    def set_scalar(self, name: str, value) -> None:
        if name not in self.scalars:
            raise KeyError(f"unknown scalar {name!r}")
        self.scalars[name] = value

    def array(self, name: str) -> ArrayStorage:
        return self.arrays[name]

    def snapshot(self) -> "Memory":
        dup = Memory()
        dup.scalars = dict(self.scalars)
        dup.arrays = {n: a.copy() for n, a in self.arrays.items()}
        return dup
