"""Unit tests for the problem package (tensors, workloads, conv, gemm)."""

import pickle

import pytest

from repro.exceptions import SpecError
from repro.io.serde import workload_from_dict, workload_to_dict
from repro.problem import (
    ConvLayer,
    GemmLayer,
    ProjectionTerm,
    TensorSpec,
    Workload,
    conv_workload,
    gemm_workload,
)
from repro.problem.gemm import vector_workload
from repro.problem.tensor import simple_tensor


class TestProjectionTerm:
    def test_defaults(self):
        term = ProjectionTerm("C")
        assert term.coefficient == 1

    def test_rejects_nonpositive_coefficient(self):
        with pytest.raises(ValueError):
            ProjectionTerm("C", 0)


class TestTensorSpec:
    def test_relevant_dims(self):
        weights = simple_tensor("W", ("M", "C", "R", "S"))
        assert weights.relevant_dims == {"M", "C", "R", "S"}

    def test_tile_footprint_unit_ranks(self):
        weights = simple_tensor("W", ("M", "C"))
        assert weights.tile_footprint({"M": 4, "C": 3}) == 12

    def test_tile_footprint_missing_dims_default_one(self):
        weights = simple_tensor("W", ("M", "C"))
        assert weights.tile_footprint({"M": 4}) == 4

    def test_sliding_window_footprint(self):
        inputs = TensorSpec(
            name="I",
            ranks=((ProjectionTerm("P", 2), ProjectionTerm("R", 1)),),
        )
        # stride 2 window: 2*(p-1) + 1*(r-1) + 1
        assert inputs.tile_footprint({"P": 3, "R": 3}) == 2 * 2 + 2 + 1

    def test_full_size(self):
        inputs = TensorSpec(
            name="I",
            ranks=(
                (ProjectionTerm("C"),),
                (ProjectionTerm("P"), ProjectionTerm("R")),
            ),
        )
        assert inputs.full_size({"C": 3, "P": 5, "R": 3}) == 3 * 7

    def test_rejects_empty_rank(self):
        with pytest.raises(ValueError):
            TensorSpec(name="T", ranks=((),))

    def test_rejects_bad_extent(self):
        tensor = simple_tensor("T", ("M",))
        with pytest.raises(ValueError):
            tensor.tile_footprint({"M": 0})


class TestWorkload:
    def test_create_and_validate(self, small_gemm):
        assert small_gemm.total_operations == 12 * 10 * 8

    def test_dim_lookup(self, small_gemm):
        assert small_gemm.size("M") == 12
        with pytest.raises(KeyError):
            small_gemm.size("Z")

    def test_output_unique(self, small_gemm):
        assert small_gemm.output.name == "C"
        assert {t.name for t in small_gemm.inputs} == {"A", "B"}

    def test_tensor_lookup(self, small_gemm):
        assert small_gemm.tensor("A").relevant_dims == {"M", "K"}
        with pytest.raises(KeyError):
            small_gemm.tensor("nope")

    def test_rejects_no_output(self):
        with pytest.raises(SpecError):
            Workload.create(
                "bad", {"M": 2}, [simple_tensor("A", ("M",))]
            )

    def test_rejects_two_outputs(self):
        with pytest.raises(SpecError):
            Workload.create(
                "bad",
                {"M": 2},
                [
                    simple_tensor("A", ("M",), is_output=True),
                    simple_tensor("B", ("M",), is_output=True),
                ],
            )

    def test_rejects_unknown_projection_dim(self):
        with pytest.raises(SpecError):
            Workload.create(
                "bad",
                {"M": 2},
                [
                    simple_tensor("A", ("Z",)),
                    simple_tensor("B", ("M",), is_output=True),
                ],
            )

    def test_rejects_zero_size_dim(self):
        with pytest.raises(SpecError):
            Workload.create(
                "bad",
                {"M": 0},
                [simple_tensor("B", ("M",), is_output=True)],
            )

    def test_with_dims(self, small_gemm):
        bigger = small_gemm.with_dims({"M": 16}, suffix="_pad")
        assert bigger.size("M") == 16
        assert bigger.size("N") == 10
        assert bigger.name.endswith("_pad")

    def test_describe_mentions_sizes(self, small_gemm):
        text = small_gemm.describe()
        assert "M=12" in text and "MACs" in text

    def test_cached_lookups_leave_identity_unchanged(self, small_gemm):
        """The memoized dim lookups stay out of equality, hashing and serde."""
        twin = GemmLayer("small_gemm", m=12, n=10, k=8).workload()
        before = (hash(small_gemm), workload_to_dict(small_gemm))
        assert small_gemm.dim_names == ("M", "N", "K")
        assert small_gemm.dim_names is small_gemm.dim_names
        assert [small_gemm.size(d) for d in small_gemm.dim_names] == [12, 10, 8]
        assert small_gemm == twin and hash(small_gemm) == hash(twin)
        assert (hash(small_gemm), workload_to_dict(small_gemm)) == before
        restored = workload_from_dict(workload_to_dict(small_gemm))
        assert restored == small_gemm and hash(restored) == hash(small_gemm)
        assert restored.dim_names == small_gemm.dim_names
        assert pickle.loads(pickle.dumps(small_gemm)) == small_gemm


class TestConvLayer:
    def test_dim_sizes(self):
        layer = ConvLayer("l", c=3, m=8, p=5, q=5, r=3, s=3)
        assert layer.dim_sizes == {
            "N": 1, "C": 3, "M": 8, "P": 5, "Q": 5, "R": 3, "S": 3,
        }

    def test_input_sizes_stride_one(self):
        layer = ConvLayer("l", p=5, r=3)
        assert layer.input_height == 7

    def test_input_sizes_stride_two(self):
        layer = ConvLayer("l", p=112, r=7, stride_h=2)
        assert layer.input_height == (112 - 1) * 2 + 7

    def test_workload_structure(self):
        w = ConvLayer("l", c=4, m=8, p=6, q=6, r=3, s=3).workload()
        assert w.tensor("Weights").relevant_dims == {"M", "C", "R", "S"}
        assert w.tensor("Inputs").relevant_dims == {"N", "C", "P", "Q", "R", "S"}
        assert w.tensor("Outputs").relevant_dims == {"N", "M", "P", "Q"}
        assert w.output.name == "Outputs"

    def test_workload_input_footprint_uses_stride(self):
        layer = ConvLayer("l", c=1, m=1, p=10, q=10, r=3, s=3,
                          stride_h=2, stride_w=2)
        w = layer.workload()
        assert w.tensor_size("Inputs") == layer.input_height * layer.input_width

    def test_macs(self):
        w = ConvLayer("l", c=2, m=3, p=4, q=5, r=2, s=2).workload()
        assert w.total_operations == 2 * 3 * 4 * 5 * 2 * 2

    def test_rejects_bad_shape(self):
        with pytest.raises(SpecError):
            ConvLayer("l", c=0)


class TestGemm:
    def test_structure(self):
        w = GemmLayer("g", m=4, n=5, k=6).workload()
        assert w.tensor("A").relevant_dims == {"M", "K"}
        assert w.tensor("B").relevant_dims == {"K", "N"}
        assert w.output.relevant_dims == {"M", "N"}

    def test_macs(self):
        assert GemmLayer("g", 4, 5, 6).workload().total_operations == 120

    def test_rejects_bad_shape(self):
        with pytest.raises(SpecError):
            GemmLayer("g", 0, 1, 1)

    def test_vector_workload(self):
        w = vector_workload("v", 100)
        assert w.total_operations == 100
        assert w.size("D") == 100
        assert w.output.name == "Y"
