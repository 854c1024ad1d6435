"""Unit tests for the per-generation IPC models."""

import pytest

from repro.errors import ParameterError
from repro.paperdata.categories import FunctionalityCategory as F, LeafCategory as L
from repro.paperdata.ipc import FIG10_FUNCTIONALITY_IPC, FIG8_LEAF_IPC
from repro.profiling import IPCModel
from repro.profiling.ipc import generation_models


class TestConstruction:
    def test_seeded_from_paper_tables(self):
        model = IPCModel("GenC")
        assert model.leaf_ipc(L.KERNEL) == FIG8_LEAF_IPC[L.KERNEL]["GenC"]
        assert model.functionality_ipc(F.IO) == FIG10_FUNCTIONALITY_IPC[F.IO]["GenC"]

    def test_every_category_covered(self):
        model = IPCModel("GenB")
        for leaf in L:
            assert model.leaf_ipc(leaf) > 0
        for functionality in F:
            assert model.functionality_ipc(functionality) > 0

    def test_unknown_platform_rejected(self):
        with pytest.raises(ParameterError):
            IPCModel("GenD")

    def test_overrides(self):
        model = IPCModel("GenC", leaf_overrides={L.MEMORY: 2.5})
        assert model.leaf_ipc(L.MEMORY) == 2.5

    def test_nonpositive_override_rejected(self):
        with pytest.raises(ParameterError):
            IPCModel("GenC", leaf_overrides={L.MEMORY: 0.0})


class TestPaperTrends:
    def test_kernel_ipc_lowest_and_flat(self):
        for generation, model in generation_models().items():
            leaves = {leaf: model.leaf_ipc(leaf) for leaf in FIG8_LEAF_IPC}
            assert min(leaves, key=leaves.get) is L.KERNEL, generation
        gena = IPCModel("GenA")
        genc = IPCModel("GenC")
        kernel_gain = genc.leaf_ipc(L.KERNEL) / gena.leaf_ipc(L.KERNEL)
        clib_gain = genc.leaf_ipc(L.C_LIBRARIES) / gena.leaf_ipc(L.C_LIBRARIES)
        assert kernel_gain < clib_gain  # kernel scales poorly

    def test_all_leaf_ipcs_below_half_peak(self):
        """Paper: every leaf category uses < half of GenC's peak IPC 4.0."""
        model = IPCModel("GenC")
        for leaf in FIG8_LEAF_IPC:
            assert model.leaf_ipc(leaf) < 2.0

    def test_ipc_monotone_across_generations(self):
        models = generation_models()
        for leaf in L:
            values = [models[g].leaf_ipc(leaf) for g in ("GenA", "GenB", "GenC")]
            assert values == sorted(values), leaf

    def test_io_ipc_low_across_generations(self):
        """Fig. 10: I/O IPC remains low."""
        for model in generation_models().values():
            assert model.functionality_ipc(F.IO) < 0.5

    def test_lookup_uses_leaf_signal(self):
        model = IPCModel("GenC")
        assert model.lookup(F.COMPRESSION, L.ZSTD) == model.leaf_ipc(L.ZSTD)
        assert model.lookup(F.IO, L.ZSTD) == model.leaf_ipc(L.ZSTD)
