"""Unit tests for GPUDet components: store-buffer view, config."""

import numpy as np
import pytest

from repro.gpudet.gpudet import GPUDetConfig, StoreBufferView
from repro.memory.globalmem import GlobalMemory
from repro.memory.store_buffer import StoreBuffer


class TestStoreBufferView:
    def setup_method(self):
        self.mem = GlobalMemory()
        self.base = self.mem.alloc("a", 8, "f32",
                                   init=np.arange(8, dtype=np.float32))
        self.sb = StoreBuffer()
        self.view = StoreBufferView(self.mem, self.sb)

    def test_load_falls_through_to_memory(self):
        out = self.view.load_many(np.array([self.base, self.base + 4]))
        assert list(out) == [0.0, 1.0]

    def test_store_is_isolated_from_memory(self):
        self.view.store_many(np.array([self.base]), np.array([99.0]))
        assert self.mem.buffer("a")[0] == 0.0  # memory untouched
        assert self.sb.load(self.base) == 99.0

    def test_load_sees_own_buffered_store(self):
        self.view.store_many(np.array([self.base]), np.array([99.0]))
        out = self.view.load_many(np.array([self.base, self.base + 4]))
        assert list(out) == [99.0, 1.0]

    def test_drain_then_visible(self):
        self.view.store_many(np.array([self.base + 8]), np.array([7.0]))
        for addr, value in self.sb.drain():
            self.mem.store(addr, value)
        assert self.mem.buffer("a")[2] == np.float32(7.0)

    @pytest.mark.parametrize("which", ["unaligned", "out_of_bounds", "null"])
    def test_bad_store_fails_at_the_store(self, which):
        # Rejected like GlobalMemory.store rejects them, and nothing is
        # buffered.
        addr = {"unaligned": self.base + 2, "out_of_bounds": self.base + 4096,
                "null": 0}[which]
        with pytest.raises(ValueError):
            self.view.store_many(np.array([addr]), np.array([5.0]))
        assert self.sb.empty
        with pytest.raises(ValueError):
            self.view.load_many(np.array([addr]))

    def test_config_defaults(self):
        cfg = GPUDetConfig()
        assert cfg.quantum_instrs == 200
        assert cfg.serial_issue_gap >= 1
        assert cfg.serial_round_trip > 0


def _per_lane(mem, buffered, addrs):
    """Reference view load: a lane's own buffered store, else memory."""
    return np.array([buffered[a] if a in buffered else mem.load(a)
                     for a in addrs.tolist()], dtype=np.float64)


class TestStoreBufferViewLoads:
    """Gather-then-overlay must equal a per-lane reference load."""

    @pytest.fixture(params=["f32", "s32"])
    def setup(self, request):
        dtype = request.param
        mem = GlobalMemory()
        a = mem.alloc("a", 40, dtype, init=np.arange(40) * 3 - 7)
        b = mem.alloc("b", 40, dtype, init=np.arange(40) * 5 + 1)
        sb = StoreBuffer()
        return mem, a, b, sb, StoreBufferView(mem, sb)

    def _lanes(self, a, b, case):
        if case == "span":  # 16 lanes at the tail of a, 16 at b's head
            return np.array([a + 4 * (24 + i) for i in range(16)]
                            + [b + 4 * i for i in range(16)])
        return np.array([a + 4 * ((7 * i) % 40) for i in range(32)])

    @pytest.mark.parametrize("case", ["same", "span"])
    def test_empty_buffer(self, setup, case):
        mem, a, b, sb, view = setup
        lanes = self._lanes(a, b, case)
        out = view.load_many(lanes)
        assert out.dtype == np.float64
        assert np.array_equal(out, _per_lane(mem, {}, lanes))
        assert sb.stats.load_hits == 0

    @pytest.mark.parametrize("case", ["same", "span"])
    def test_nonempty_buffer(self, setup, case):
        mem, a, b, sb, view = setup
        lanes = self._lanes(a, b, case)
        buffered = {int(x): 100.0 + k for k, x in enumerate(lanes[::3])}
        view.store_many(np.array(list(buffered)),
                        np.array(list(buffered.values())))
        out = view.load_many(lanes)
        assert np.array_equal(out, _per_lane(mem, buffered, lanes))
        assert sb.stats.load_hits == sum(int(x) in buffered for x in lanes)

    @pytest.mark.parametrize("buffered", [False, True])
    @pytest.mark.parametrize("bad", [2, 40 * 4, -4])
    def test_invalid_lane_raises(self, setup, buffered, bad):
        mem, a, b, sb, view = setup
        if buffered:
            view.store_many(np.array([a]), np.array([1.0]))
        lanes = np.array([a, a + 4, a + bad, a + 8])
        with pytest.raises(ValueError):
            view.load_many(lanes)
