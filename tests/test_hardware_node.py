"""Unit tests for the simulated node: allocation, power, virtual FS."""

from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.application.benchmark_service import BenchmarkService
from repro.core.domain.configuration import Configuration
from repro.core.repositories.memory_repository import MemoryRepository
from repro.core.runners.hpcg_runner import HpcgRunner
from repro.core.services.ipmi_service import IpmiSystemService
from repro.core.services.lscpu_info import LscpuSystemInfo
from repro.hardware.bmc import BoardManagementController
from repro.hardware.cpu import CpuSpec
from repro.hardware.node import ConstantWorkload, NodeError, RunningWorkload, SimulatedNode, Workload
from repro.hardware.power import PowerBreakdown
from repro.hpcg import reference
from repro.hpcg.workload import HpcgWorkload
from repro.simkernel.engine import Simulator
from repro.simkernel.random import RandomStreams
from repro.slurm.cluster import HPCG_BINARY, SimCluster


class TestAllocation:
    def test_start_allocates_cores(self, node):
        h = node.start_workload(ConstantWorkload(cores=8))
        assert node.free_cores() == 24
        assert len(node.allocated_core_ids()) == 8
        node.stop_workload(h)
        assert node.free_cores() == 32

    def test_insufficient_cores_rejected(self, node):
        node.start_workload(ConstantWorkload(cores=30))
        with pytest.raises(NodeError, match="only 2 free"):
            node.start_workload(ConstantWorkload(cores=3))

    def test_zero_core_workload_rejected(self, node):
        with pytest.raises(NodeError):
            node.start_workload(ConstantWorkload(cores=0))

    def test_unknown_handle_rejected(self, node):
        with pytest.raises(NodeError):
            node.stop_workload(99)

    def test_two_workloads_coexist(self, node):
        node.start_workload(ConstantWorkload(cores=10))
        node.start_workload(ConstantWorkload(cores=10))
        assert node.free_cores() == 12
        assert len(node.running_workloads()) == 2

    def test_cores_reset_on_stop(self, node):
        h = node.start_workload(
            ConstantWorkload(cores=4), freq_min_khz=1_500_000, freq_max_khz=1_500_000
        )
        core = next(iter(node.allocated_core_ids()))
        assert node.policies[core].current_freq_khz == 1_500_000
        node.stop_workload(h)
        assert node.policies[core].current_freq_khz == 2_500_000


class TestPowerAndEnergy:
    def test_freq_window_applied(self, node):
        node.start_workload(
            ConstantWorkload(cores=32, compute_fraction=0.2),
            freq_min_khz=2_200_000,
            freq_max_khz=2_200_000,
        )
        rw = node.running_workloads()[0]
        assert rw.freq_khz == 2_200_000

    def test_power_rises_under_load(self, node):
        idle_w = node.instantaneous_power().system_w
        node.start_workload(ConstantWorkload(cores=32, compute_fraction=0.5, bandwidth_gbs=30.0))
        node.sim.call_at(300.0, lambda: None)
        node.sim.run()
        assert node.instantaneous_power().system_w > idle_w + 30

    def test_temperature_rises_under_load(self, node):
        t0 = node.cpu_temp_c
        node.start_workload(ConstantWorkload(cores=32, compute_fraction=0.5))
        node.sim.call_at(600.0, lambda: None)
        node.sim.run()
        assert node.cpu_temp_c > t0 + 5

    def test_energy_accumulates(self, node):
        node.start_workload(ConstantWorkload(cores=16, compute_fraction=0.3))
        node.sim.call_at(100.0, lambda: None)
        node.sim.run()
        e1 = node.true_energy_joules
        node.sim.call_at(200.0, lambda: None)
        node.sim.run()
        e2 = node.true_energy_joules
        assert e2 > e1 > 0

    def test_energy_roughly_power_times_time(self, node):
        # settle thermals first so fan power is near-constant over the window
        node.sim.call_at(1000.0, lambda: None)
        node.sim.run()
        node.start_workload(ConstantWorkload(cores=32, compute_fraction=0.3, bandwidth_gbs=35.0))
        node.sim.call_at(2000.0, lambda: None)
        node.sim.run()
        e_start = node.true_energy_joules
        p = node.instantaneous_power().system_w
        node.sim.call_at(3000.0, lambda: None)
        node.sim.run()
        delta = node.true_energy_joules - e_start
        assert delta == pytest.approx(p * 1000.0, rel=0.02)

    def test_bandwidth_capped_at_memory_peak(self, node):
        node.start_workload(ConstantWorkload(cores=16, bandwidth_gbs=500.0))
        node.start_workload(ConstantWorkload(cores=16, bandwidth_gbs=500.0))
        bd = node.instantaneous_power()
        max_dram = node.power_model.params.mem_w_per_gbs * node.memory.peak_bandwidth_gbs
        assert bd.dram_w <= max_dram + 1e-9


class TestVirtualFilesystem:
    def test_cpuinfo_has_all_threads(self, node):
        text = node.read_file("/proc/cpuinfo")
        assert text.count("processor\t:") == 64
        assert "AMD EPYC 7502P" in text

    def test_meminfo_total(self, node):
        text = node.read_file("/proc/meminfo")
        assert f"MemTotal:       {256 * 1024 * 1024} kB" in text

    def test_scaling_available_frequencies(self, node):
        text = node.read_file(
            "/sys/devices/system/cpu/cpu0/cpufreq/scaling_available_frequencies"
        )
        assert text.split() == ["1500000", "2200000", "2500000"]

    def test_scaling_governor(self, node):
        assert node.read_file(
            "/sys/devices/system/cpu/cpu5/cpufreq/scaling_governor"
        ).strip() == "performance"

    def test_cur_freq_reflects_workload(self, node):
        node.start_workload(
            ConstantWorkload(cores=1), freq_min_khz=1_500_000, freq_max_khz=1_500_000
        )
        core = next(iter(node.allocated_core_ids()))
        text = node.read_file(
            f"/sys/devices/system/cpu/cpu{core}/cpufreq/scaling_cur_freq"
        )
        assert text.strip() == "1500000"

    def test_ht_sibling_maps_to_same_core(self, node):
        a = node.read_file("/sys/devices/system/cpu/cpu0/cpufreq/scaling_cur_freq")
        b = node.read_file("/sys/devices/system/cpu/cpu32/cpufreq/scaling_cur_freq")
        assert a == b

    def test_unknown_path_raises(self, node):
        with pytest.raises(FileNotFoundError):
            node.read_file("/etc/passwd")
        with pytest.raises(FileNotFoundError):
            node.read_file("/sys/devices/system/cpu/cpu99/cpufreq/scaling_cur_freq")
        with pytest.raises(FileNotFoundError):
            node.read_file("/sys/devices/system/cpu/cpu0/cpufreq/nonsense")

    def test_cpufreq_dir_raises_isadirectory(self, node):
        with pytest.raises(IsADirectoryError):
            node.read_file("/sys/devices/system/cpu/cpu0/cpufreq")


class TestLscpu:
    def test_render_fields(self, node):
        from repro.hardware.lscpu import render_lscpu

        text = render_lscpu(node)
        assert "Model name:" in text
        assert "AMD EPYC 7502P 32-Core Processor" in text
        assert "Thread(s) per core:" in text
        lines = dict(
            (line.split(":", 1)[0], line.split(":", 1)[1].strip())
            for line in text.splitlines()
        )
        assert lines["CPU(s)"] == "64"
        assert lines["Core(s) per socket"] == "32"
        assert lines["Socket(s)"] == "1"


# ----------------------------------------------------------------------
# the fast paths against the node that computes everything from scratch
# ----------------------------------------------------------------------
class ReferenceNode(SimulatedNode):
    """The node before its memos: every breakdown computed from scratch, the
    ``--cpu-freq`` window snapped and applied core by core and every core
    reset on its own.  The fast paths must give exactly what this gives."""

    def _operating_breakdown(self, now, temp_c):
        p = self.power_model.params
        total_active = 0
        active_w = 0.0
        bw = 0.0
        for rw in self._running.values():
            wl = rw.workload
            el = rw.elapsed(now)
            single = self.power_model.breakdown(
                wl.cores,
                wl.threads_per_core,
                rw.freq_khz,
                compute_fraction=wl.compute_fraction(el),
                bandwidth_gbs=0.0,
                cpu_temp_c=temp_c,
                utilization=wl.utilization(el),
            )
            active_w += single.active_cores_w * wl.power_modulation(el)
            bw += wl.bandwidth_gbs(el)
            total_active += wl.cores
        bw = min(bw, self.memory.peak_bandwidth_gbs)
        parked = self.spec.total_cores - total_active
        return PowerBreakdown(
            platform_w=p.platform_base_w,
            dram_w=p.mem_w_per_gbs * bw,
            fan_w=p.fan_w_per_c * max(0.0, temp_c - p.fan_knee_c),
            uncore_w=p.uncore_w,
            idle_cores_w=parked * p.idle_core_w,
            active_cores_w=active_w,
        )

    def start_workload(self, workload, *, freq_min_khz=None, freq_max_khz=None, governor=None):
        free = self.free_core_ids()
        if workload.cores > len(free):
            raise NodeError(f"need {workload.cores} cores, only {len(free)} free on {self.hostname}")
        if workload.cores <= 0:
            raise NodeError(f"workload must request at least one core, got {workload.cores}")
        self._refresh(self.sim.now)
        core_ids = tuple(free[: workload.cores])
        for cid in core_ids:
            pol = self.policies[cid]
            if governor is not None:
                pol.set_governor(governor)
            if freq_min_khz is not None or freq_max_khz is not None:
                pol.set_bounds(freq_min_khz, freq_max_khz)
            pol.update(utilization=1.0)
        freq = self.policies[core_ids[0]].current_freq_khz
        handle = self._next_handle
        self._next_handle += 1
        self._running[handle] = RunningWorkload(
            workload=workload, core_ids=core_ids, start_time=self.sim.now, freq_khz=freq
        )
        return handle

    def stop_workload(self, handle):
        if handle not in self._running:
            raise NodeError(f"unknown workload handle {handle}")
        self._refresh(self.sim.now)
        rw = self._running.pop(handle)
        for cid in rw.core_ids:
            self.policies[cid].reset()
        return rw.workload


_WINDOW = st.sampled_from(
    [None, 1_000_000, 1_500_000, 1_850_000, 2_000_000, 2_200_000, 2_350_000, 2_500_000, 3_000_000]
)
_NODE_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("start"),
            st.sampled_from(["constant", "hpcg", "duty"]),
            st.integers(1, 20),  # cores: two jobs can share the node
            st.sampled_from([1, 2]),  # hyper-threading off / on
            _WINDOW,
            _WINDOW,
            st.sampled_from([None, "performance", "powersave", "ondemand"]),
        ),
        st.tuples(st.just("stop"), st.integers(0, 3)),
        st.tuples(
            st.just("advance"),
            st.one_of(
                st.sampled_from([0.0, 3.0, 4.999, 5.0, 37.5, 321.0]),
                st.floats(0.0, 700.0, allow_nan=False),
            ),
        ),
        st.tuples(st.just("read"), st.sampled_from(BoardManagementController.SENSORS)),
        st.tuples(st.just("settle"), st.floats(0.0, 200.0, allow_nan=False)),
    ),
    min_size=1,
    max_size=30,
)


class _DutyCycled(Workload):
    """Busy and half-idle in turns of 50 s: utilization alone changes."""

    def __init__(self, cores: int, threads_per_core: int) -> None:
        self.cores = cores
        self.threads_per_core = threads_per_core

    def compute_fraction(self, elapsed_s: float) -> float:
        return 0.7

    def bandwidth_gbs(self, elapsed_s: float) -> float:
        return 5.0

    def utilization(self, elapsed_s: float) -> float:
        return 0.5 if int(elapsed_s // 50.0) % 2 else 1.0


def _workload(kind: str, cores: int, threads: int, tag: int):
    if kind == "duty":
        return _DutyCycled(cores, threads)
    if kind == "constant":
        return ConstantWorkload(
            cores=cores, threads_per_core=threads, compute_fraction=0.4, bandwidth_gbs=20.0
        )
    # 2.5 GHz: the oscillating, power-capped HPCG of the paper's Figure 15
    return HpcgWorkload(
        cores, threads, 2_500_000, duration_s=600.0, streams=RandomStreams(tag), run_tag=f"t{tag}"
    )


def _drive(node_cls, ops):
    """Apply ``ops`` to a fresh node; returns everything observable."""
    node = node_cls(Simulator())
    bmc = BoardManagementController(node, RandomStreams(5))
    seen, handles = [], []
    for i, op in enumerate(ops):
        kind = op[0]
        if kind == "start":
            _, wl_kind, cores, threads, fmin, fmax, governor = op
            try:
                handles.append(
                    node.start_workload(
                        _workload(wl_kind, cores, threads, i),
                        freq_min_khz=fmin,
                        freq_max_khz=fmax,
                        governor=governor,
                    )
                )
                seen.append(("started", node.running_workloads()[-1].freq_khz))
            except (NodeError, ValueError) as exc:
                seen.append(("refused", type(exc).__name__, str(exc)))
        elif kind == "stop" and handles:
            node.stop_workload(handles.pop(op[1] % len(handles)))
        elif kind == "advance":
            node.sim.call_at(node.sim.now + op[1], lambda: None)
            node.sim.run()
        elif kind == "settle":
            # the die jumps to the steady state of op[1] watts, same instant
            node.thermal.settle(op[1])
        elif kind == "read":
            seen.append(bmc.read_sensor(op[1]))
            seen.append((node.instantaneous_power(), node.cpu_temp_c, node.true_energy_joules))
        seen.append([(p.governor, p.scaling_min_freq, p.scaling_max_freq, p.current_freq_khz) for p in node.policies])
    seen.append((node.instantaneous_power(), node.cpu_temp_c, node.true_energy_joules))
    return seen


class TestFastPathsEqualTheReference:
    @settings(max_examples=100, deadline=None)
    @given(ops=_NODE_OPS)
    # a start between two reads of one instant; a phase change in
    # utilization alone; two jobs, one with hyper-threading, stopped apart
    @example(ops=[("advance", 10.0), ("read", "CPU_Power"), ("start", "constant", 8, 1, None, None, None),
                  ("read", "Total_Power")])
    @example(ops=[("start", "duty", 16, 1, None, None, None), ("advance", 30.0), ("read", "Total_Power"),
                  ("advance", 40.0), ("read", "CPU_Power"), ("advance", 60.0), ("read", "CPU_Temp")])
    @example(ops=[("start", "hpcg", 16, 2, None, 2_500_000, None), ("advance", 100.0),
                  ("start", "hpcg", 16, 1, 2_200_000, 2_200_000, None), ("advance", 3.0), ("read", "Total_Power"),
                  ("stop", 0), ("read", "Total_Power"), ("advance", 400.0), ("read", "CPU_Power")])
    # a refused window leaves core 4 unlike the others; the next job
    # spans it
    @example(ops=[("start", "constant", 4, 1, None, None, None),
                  ("start", "constant", 4, 1, 2_500_000, 1_500_000, None), ("stop", 0),
                  ("start", "hpcg", 8, 1, None, 2_200_000, "powersave"), ("read", "Total_Power")])
    def test_random_lifecycles_are_bit_identical(self, ops):
        assert _drive(SimulatedNode, ops) == _drive(ReferenceNode, ops)

    def test_window_snapped_once_per_job(self, node):
        calls = []
        real = CpuSpec.nearest_frequency

        def counted(spec, freq_khz):
            calls.append(freq_khz)
            return real(spec, freq_khz)

        with mock.patch.object(CpuSpec, "nearest_frequency", counted):
            handle = node.start_workload(
                ConstantWorkload(cores=32), freq_min_khz=2_100_000, freq_max_khz=2_300_000
            )
            assert calls == [2_100_000, 2_300_000]
            node.stop_workload(handle)
        assert calls == [2_100_000, 2_300_000]
        assert all(p.current_freq_khz == 2_500_000 for p in node.policies)

    def test_one_breakdown_per_sample(self, node):
        """Three sensor reads and the refresh sub-step that ends at the same
        instant share one breakdown; a job's phase shares one active-core
        PowerModel.breakdown."""
        bmc = BoardManagementController(node, RandomStreams(1))
        node.start_workload(_workload("hpcg", 32, 1, 1))
        with mock.patch.object(
            SimulatedNode, "_compute_breakdown", autospec=True, side_effect=SimulatedNode._compute_breakdown
        ) as computed, mock.patch.object(
            type(node.power_model), "breakdown", autospec=True, side_effect=type(node.power_model).breakdown
        ) as per_phase:
            for k in range(1, 101):
                node.sim.call_at(3.0 * k, lambda: None)
                node.sim.run()
                bmc.read_all()
        assert computed.call_count == 100
        assert per_phase.call_count == 2  # setup phase, then the solve


#: the paper's sweep (seed 33, every configuration of Tables 4-6) with
#: 5-minute points instead of 20-minute ones, to keep the suite quick
SWEEP_POINT_S = 300.0


def _sweep():
    cluster = SimCluster(seed=33, hpcg_duration_s=SWEEP_POINT_S)
    service = BenchmarkService(
        MemoryRepository(),
        HpcgRunner(cluster, HPCG_BINARY),
        IpmiSystemService(cluster.ipmi, clock=lambda: cluster.sim.now),
        LscpuSystemInfo(cluster.node),
        sample_interval_s=3.0,
    )
    configs = [Configuration(p.cores, 2 if p.hyperthread else 1, p.freq_khz) for p in reference.GFLOPS_PER_WATT]
    rows = service.run_benchmarks(configs, clock=lambda: cluster.sim.now)
    return rows, cluster.node.true_energy_joules


def test_sweep_rows_equal_the_memo_free_reference():
    with mock.patch.object(
        SimulatedNode, "_compute_breakdown", autospec=True, side_effect=SimulatedNode._compute_breakdown
    ) as computed:
        rows, joules = _sweep()
    with mock.patch.object(SimulatedNode, "_operating_breakdown", ReferenceNode._operating_breakdown):
        want_rows, want_joules = _sweep()
    assert len(rows) == len(reference.GFLOPS_PER_WATT) == 138
    assert rows == want_rows
    assert joules == want_joules
    # one breakdown per IPMI sample, plus one per point
    assert computed.call_count <= 138 * (int(SWEEP_POINT_S // 3.0) + 1)
