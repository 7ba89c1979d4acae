"""Shared fixtures for the test suite."""

from __future__ import annotations

import contextlib
import random

import pytest

from repro.arch import (
    eyeriss_like,
    simba_like,
    toy_glb_architecture,
    toy_linear_architecture,
)
from repro.model import Evaluator
from repro.problem import ConvLayer, GemmLayer
from repro.problem.gemm import vector_workload


@pytest.fixture
def scalar_route(monkeypatch):
    """Context-manager factory: engines built inside price every row scalar.

    Declining ``BatchEvaluator._support_check`` is exactly how a cost-model
    config the kernels do not cover (NoC/static energy, bandwidth stalls)
    reaches the engine's scalar route, so parity tests can run one search
    both ways without a production switch.
    """
    from repro.model.batch import BatchEvaluator

    @contextlib.contextmanager
    def forced():
        with monkeypatch.context() as patch:
            patch.setattr(
                BatchEvaluator,
                "_support_check",
                staticmethod(lambda evaluator: (False, "scalar route forced")),
            )
            yield

    return forced


@pytest.fixture
def rng():
    return random.Random(1234)


@pytest.fixture
def toy_arch():
    """The Fig. 4/5 toy: DRAM -> 1 KiB GLB -> 6 storage-less PEs."""
    return toy_glb_architecture(num_pes=6, glb_bytes=1024)


@pytest.fixture
def linear_arch9():
    """The Table I toy: DRAM -> 9 PEs with 1 KiB scratchpads."""
    return toy_linear_architecture(9)


@pytest.fixture
def eyeriss():
    return eyeriss_like()


@pytest.fixture
def simba():
    return simba_like()


@pytest.fixture
def vector100():
    """The 100-element distribution problem of Figs. 4 and 5."""
    return vector_workload("v100", 100)


@pytest.fixture
def small_conv():
    return ConvLayer("small_conv", c=8, m=16, p=6, q=6, r=3, s=3).workload()


@pytest.fixture
def small_gemm():
    return GemmLayer("small_gemm", m=12, n=10, k=8).workload()


@pytest.fixture
def toy_evaluator(toy_arch, vector100):
    return Evaluator(toy_arch, vector100)
