"""Tests for PhysicalCore execution, GIC, timers, memory/GPT, Machine."""

import pytest

from repro.hw import (
    ExecStatus,
    GptFault,
    Machine,
    SocTopology,
    VTIMER_PPI,
)
from repro.hw.gic import SPI_BASE
from repro.isa import HOST_DOMAIN, World, realm_domain
from repro.sim import Delay, SimulationError

REALM = realm_domain(1)


def make_machine(n_cores=4):
    return Machine(SocTopology(name="test", n_cores=n_cores, memory_gib=1))


class TestExecute:
    def test_uninterrupted_work_completes_exactly(self):
        m = make_machine()
        results = []

        def proc():
            result = yield from m.core(0).execute(HOST_DOMAIN, 10_000)
            results.append((m.now, result))

        m.sim.spawn(proc())
        m.sim.run()
        assert results[0][0] == 10_000
        assert results[0][1].done

    def test_interrupt_preempts_work(self):
        m = make_machine()
        results = []

        def proc():
            result = yield from m.core(0).execute(HOST_DOMAIN, 100_000)
            results.append((m.now, result))

        m.sim.spawn(proc())
        m.sim.schedule(30_000, lambda: m.gic.cores[0].pend(VTIMER_PPI))
        m.sim.run()
        when, result = results[0]
        assert result.status == ExecStatus.INTERRUPTED
        assert when == 30_000
        assert result.remaining_ns == 70_000

    def test_pending_interrupt_returns_immediately(self):
        m = make_machine()
        m.gic.cores[0].pend(VTIMER_PPI)
        results = []

        def proc():
            result = yield from m.core(0).execute(HOST_DOMAIN, 50_000)
            results.append((m.now, result))

        m.sim.spawn(proc())
        m.sim.run()
        assert results[0][0] == 0
        assert results[0][1].status == ExecStatus.INTERRUPTED
        assert results[0][1].remaining_ns == 50_000

    def test_uninterruptible_ignores_irq(self):
        m = make_machine()
        results = []

        def proc():
            result = yield from m.core(0).execute(
                HOST_DOMAIN, 100_000, interruptible=False
            )
            results.append((m.now, result))

        m.sim.spawn(proc())
        m.sim.schedule(10_000, lambda: m.gic.cores[0].pend(VTIMER_PPI))
        m.sim.run()
        assert results[0][0] == 100_000
        assert results[0][1].done
        # irq still pending for later
        assert m.gic.cores[0].has_pending()

    def test_pollution_penalty_slows_resumption(self):
        m = make_machine()
        times = []

        def proc():
            yield from m.core(0).execute(REALM, 10_000, interruptible=False)
            yield from m.core(0).execute(
                HOST_DOMAIN, 10_000, interruptible=False
            )
            start = m.now
            yield from m.core(0).execute(REALM, 10_000, interruptible=False)
            times.append(m.now - start)

        m.sim.spawn(proc())
        m.sim.run()
        assert times[0] > 10_000  # paid a refill penalty

    def test_spans_recorded(self):
        m = make_machine()

        def proc():
            yield from m.core(0).execute(REALM, 5_000, interruptible=False)
            yield from m.core(1).execute(
                HOST_DOMAIN, 3_000, interruptible=False
            )

        m.sim.spawn(proc())
        m.sim.run()
        m.tracer.close_all_spans(m.now)
        assert m.tracer.busy_time(core=0, domain=REALM.name) == 5_000
        assert m.tracer.busy_time(core=1, domain=HOST_DOMAIN.name) == 3_000

    def test_offline_core_rejects_host_work(self):
        m = make_machine()
        m.core(0).set_online(False)

        def proc():
            yield from m.core(0).execute(HOST_DOMAIN, 1_000)

        p = m.sim.spawn(proc())
        with pytest.raises(SimulationError, match="offline"):
            m.sim.run()

    def test_offline_core_accepts_realm_work(self):
        m = make_machine()
        m.core(0).set_online(False)
        m.core(0).set_world(World.REALM)
        done = []

        def proc():
            result = yield from m.core(0).execute(REALM, 1_000)
            done.append(result.done)

        m.sim.spawn(proc())
        m.sim.run()
        assert done == [True]


class TestGic:
    def test_sgi_delivered_after_wire_delay(self):
        m = make_machine()
        log = []

        def receiver():
            yield m.gic.cores[1].doorbell.wait()
            log.append(m.now)

        m.sim.spawn(receiver())
        m.gic.send_sgi(1, 8)
        m.sim.run()
        assert log == [m.topology.ipi_wire_delay_ns]
        assert m.gic.cores[1].peek_pending() == 8

    def test_ack_priority_lowest_intid_first(self):
        m = make_machine()
        iface = m.gic.cores[0]
        iface.pend(30)
        iface.pend(8)
        assert iface.acknowledge() == 8
        assert iface.acknowledge() == 30
        assert iface.acknowledge() is None

    def test_sgi_range_checked(self):
        m = make_machine()
        with pytest.raises(SimulationError):
            m.gic.send_sgi(0, 16)

    def test_spi_routing(self):
        m = make_machine()
        m.gic.route_spi(SPI_BASE + 1, 2)
        m.gic.raise_spi(SPI_BASE + 1)
        m.sim.run()
        assert m.gic.cores[2].peek_pending() == SPI_BASE + 1

    def test_spi_retarget_for_hotplug(self):
        m = make_machine()
        m.gic.route_spi(SPI_BASE + 1, 3)
        m.gic.route_spi(SPI_BASE + 2, 3)
        m.gic.route_spi(SPI_BASE + 3, 1)
        moved = m.gic.retarget_spis_away_from(3, fallback=0)
        assert moved == 2
        assert m.gic.spi_route(SPI_BASE + 3) == 1
        assert m.gic.spi_route(SPI_BASE + 1) == 0

    def test_received_counts(self):
        m = make_machine()
        m.gic.cores[0].pend(8)
        m.gic.cores[0].pend(8)
        assert m.gic.cores[0].received_count[8] == 2


class TestTimer:
    def test_timer_fires_vtimer_ppi(self):
        m = make_machine()
        m.timers[0].program(5_000)
        m.sim.run()
        assert m.gic.cores[0].peek_pending() == VTIMER_PPI
        assert m.timers[0].fire_count == 1

    def test_reprogram_cancels_previous(self):
        m = make_machine()
        m.timers[0].program(5_000)
        m.timers[0].program(9_000)
        m.sim.run()
        assert m.timers[0].fire_count == 1
        assert m.sim.now == 9_000

    def test_cancel(self):
        m = make_machine()
        m.timers[0].program(5_000)
        m.timers[0].cancel()
        m.sim.run()
        assert m.timers[0].fire_count == 0

    def test_program_after(self):
        m = make_machine()

        def proc():
            yield Delay(1_000)
            m.timers[0].program_after(2_000)

        m.sim.spawn(proc())
        m.sim.run()
        assert m.sim.now == 3_000
        assert m.timers[0].fire_count == 1


class TestMemoryGpt:
    def test_default_pas_is_normal(self):
        m = make_machine()
        assert m.memory.pas_of(0x5000) is World.NORMAL
        m.memory.check_access(0x5000, World.NORMAL)  # no fault

    def test_realm_granule_blocks_host(self):
        m = make_machine()
        m.memory.set_pas(0x5000, World.REALM)
        with pytest.raises(GptFault):
            m.memory.check_access(0x5000, World.NORMAL)
        m.memory.check_access(0x5000, World.REALM)

    def test_root_sees_everything(self):
        m = make_machine()
        m.memory.set_pas(0x5000, World.REALM)
        m.memory.check_access(0x5000, World.ROOT)

    def test_realm_world_reads_normal_memory(self):
        # shared (non-confidential) buffers are how RPC rings work
        m = make_machine()
        m.memory.write(0x100, 42, World.NORMAL)
        assert m.memory.read(0x100, World.REALM) == 42

    def test_scrub_on_undelegate(self):
        m = make_machine()
        m.memory.set_pas(0x2000, World.REALM)
        m.memory.write(0x2008, 0x5EC, World.REALM)
        m.memory.scrub_granule(0x2008)
        m.memory.set_pas(0x2000, World.NORMAL)
        assert m.memory.read(0x2008, World.NORMAL) == 0

    def test_fault_counted(self):
        m = make_machine()
        m.memory.set_pas(0x0, World.ROOT)
        with pytest.raises(GptFault):
            m.memory.read(0x0, World.NORMAL)
        assert m.memory.gpt_faults == 1

    def test_out_of_range_rejected(self):
        m = make_machine()
        with pytest.raises(ValueError):
            m.memory.pas_of(1 << 62)


class TestMemoryHierarchyAccess:
    def test_latency_improves_with_locality(self):
        m = make_machine()
        core = m.core(0)
        first = core.access_memory(0x1234, REALM)
        second = core.access_memory(0x1234, REALM)
        assert second < first

    def test_llc_shared_across_cores(self):
        m = make_machine()
        m.core(0).access_memory(0x9999, REALM)
        # other core misses L1/L2 but hits shared LLC
        latency = m.core(1).access_memory(0x9999, REALM)
        assert latency == pytest.approx(30.0)


class TestMachine:
    def test_topology_validation(self):
        with pytest.raises(ValueError):
            SocTopology(name="bad", n_cores=0)
        with pytest.raises(ValueError):
            SocTopology(name="smt", n_cores=4, threads_per_core=2)

    def test_with_cores(self):
        topo = SocTopology(name="t", n_cores=8).with_cores(16)
        assert topo.n_cores == 16 and topo.name == "t"

    def test_online_cores(self):
        m = make_machine()
        m.core(2).set_online(False)
        assert len(m.online_cores()) == 3
