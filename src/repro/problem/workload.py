"""The Workload: an einsum-style tensor operation to be mapped.

A workload is a bag of named iteration dimensions with integer sizes plus the
operand tensors projecting onto them. The full iteration space is the
Cartesian product of the dimensions; each point performs one multiply-
accumulate (or, generally, one compute operation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple

from repro.exceptions import SpecError
from repro.problem.tensor import TensorSpec
from repro.utils.mathx import product


@dataclass(frozen=True)
class Workload:
    """A tensor-algebra operation.

    Attributes:
        name: human-readable identifier, e.g. ``"resnet50_conv3_x"``.
        dims: ordered mapping ``{dim_name: size}``; sizes are >= 1.
        tensors: operand tensors; exactly one must have ``is_output=True``
            for the standard single-output operations modelled here.
    """

    name: str
    dims: Tuple[Tuple[str, int], ...]
    tensors: Tuple[TensorSpec, ...]

    @staticmethod
    def create(
        name: str,
        dims: Mapping[str, int],
        tensors: List[TensorSpec],
    ) -> "Workload":
        """Validate and build a workload from plain containers."""
        workload = Workload(
            name=name,
            dims=tuple(dims.items()),
            tensors=tuple(tensors),
        )
        workload.validate()
        return workload

    def validate(self) -> None:
        """Raise :class:`SpecError` on any structural problem."""
        if not self.name:
            raise SpecError("workload name must be non-empty")
        if not self.dims:
            raise SpecError(f"workload {self.name} has no dimensions")
        seen = set()
        for dim, size in self.dims:
            if dim in seen:
                raise SpecError(f"workload {self.name} repeats dimension {dim}")
            seen.add(dim)
            if size < 1:
                raise SpecError(
                    f"workload {self.name} dimension {dim} has size {size}"
                )
        if not self.tensors:
            raise SpecError(f"workload {self.name} has no tensors")
        outputs = [t for t in self.tensors if t.is_output]
        if len(outputs) != 1:
            raise SpecError(
                f"workload {self.name} must have exactly one output tensor, "
                f"found {len(outputs)}"
            )
        names = [t.name for t in self.tensors]
        if len(set(names)) != len(names):
            raise SpecError(f"workload {self.name} has duplicate tensor names")
        dim_names = set(seen)
        for tensor in self.tensors:
            unknown = tensor.relevant_dims - dim_names
            if unknown:
                raise SpecError(
                    f"tensor {tensor.name} projects onto unknown dims {sorted(unknown)}"
                )

    @property
    def dim_sizes(self) -> Dict[str, int]:
        """Return ``{dim: size}`` as a fresh dict."""
        return dict(self.dims)

    # The two lookups below are computed once per instance. A
    # ``cached_property`` stores into the instance ``__dict__``, outside
    # the dataclass fields, so equality, hashing and serde never see it.

    @cached_property
    def dim_names(self) -> Tuple[str, ...]:
        return tuple(dim for dim, _ in self.dims)

    @cached_property
    def _size_of(self) -> Dict[str, int]:
        return dict(self.dims)

    def size(self, dim: str) -> int:
        """Size of a single dimension."""
        try:
            return self._size_of[dim]
        except KeyError:
            raise KeyError(f"workload {self.name} has no dimension {dim}") from None

    @property
    def total_operations(self) -> int:
        """Total compute operations (MACs) = product of all dim sizes."""
        return product(size for _, size in self.dims)

    @property
    def output(self) -> TensorSpec:
        """The unique output tensor."""
        for tensor in self.tensors:
            if tensor.is_output:
                return tensor
        raise SpecError(f"workload {self.name} has no output tensor")

    @property
    def inputs(self) -> Tuple[TensorSpec, ...]:
        """All read-only tensors."""
        return tuple(t for t in self.tensors if not t.is_output)

    def tensor(self, name: str) -> TensorSpec:
        """Look up a tensor by name."""
        for tensor in self.tensors:
            if tensor.name == name:
                return tensor
        raise KeyError(f"workload {self.name} has no tensor {name}")

    def tensor_size(self, name: str) -> int:
        """Total element count of tensor ``name`` for the full problem."""
        return self.tensor(name).full_size(self.dim_sizes)

    def with_dims(self, new_sizes: Mapping[str, int], suffix: str = "") -> "Workload":
        """Return a copy with some dimension sizes replaced.

        Used by the padding baseline and by parameter sweeps.
        """
        updated = tuple(
            (dim, new_sizes.get(dim, size)) for dim, size in self.dims
        )
        workload = Workload(
            name=self.name + suffix,
            dims=updated,
            tensors=self.tensors,
        )
        workload.validate()
        return workload

    def describe(self) -> str:
        """One-line summary for logs and reports."""
        dims = " ".join(f"{d}={s}" for d, s in self.dims)
        return f"{self.name}: {dims} ({self.total_operations:,} MACs)"
