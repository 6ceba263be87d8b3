"""The snapshot coverage registry: which attributes of which classes
constitute a :class:`~repro.experiments.system.System`'s live state.

Every hand-written stateful class in the tree is registered here with
an explicit verdict for each of its instance attributes: either the
attribute is part of the captured state (``fields``) or it is excluded
with a stated reason (``exclude``).  Dataclasses need no entry — the
capturer walks their declared fields automatically — but may register
one to pin their coverage (``TenantStats`` does).

The registry is deliberately pure data (strings only, no imports from
the rest of the tree) so the ``snapcov`` lint pass can load it without
importing the simulator.  The SNAP001/SNAP002 rules cross-check each
entry against the class's source: a new ``self.x`` assignment with no
registry verdict is SNAP001; a registered name no longer assigned by
the class is SNAP002.  That pairing is what keeps the snapshot format
from rotting silently as later PRs touch the engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Tuple

__all__ = ["CaptureSpec", "SNAP_FIELDS"]

# Shared exclusion reasons (kept as constants so entries stay terse and
# reviews can grep for each policy).
WIRING = "wiring backref; captured via its own registry entry"
ALIAS = "alias of machine.sim/machine.tracer; captured via Machine"
STATIC = "static configuration/calibration; rebuilt by the recipe"
HOOK = "fault-injection hook; reattached by the builder, not state"
OBSERVER = "wall-clock observer; never part of replayable state"
DERIVED = "derived from another captured field at construction"
GLOBAL = "process-global allocator; normalized out of captures"


@dataclass(frozen=True)
class CaptureSpec:
    """Coverage verdicts for one registered class."""

    fields: Tuple[str, ...]
    exclude: Mapping[str, str] = field(default_factory=dict)

    def covered(self, name: str) -> bool:
        return name in self.fields or name in self.exclude


def _spec(*fields: str, **exclude: str) -> CaptureSpec:
    return CaptureSpec(fields=tuple(fields), exclude=dict(exclude))


#: ``"module:ClassName" -> CaptureSpec`` for every registered class.
SNAP_FIELDS: Dict[str, CaptureSpec] = {
    # -- simulation kernel ---------------------------------------------
    "repro.sim.engine:Simulator": _spec(
        "now",
        "tie_break",
        "_heap",
        "_seq",
        "_live",
        "_stale",
        "_live_processes",
        _fifo=DERIVED,
        _tie_key=DERIVED,
        _profiler=OBSERVER,
        _run_end="set only while run() is on the stack; None at every capture",
    ),
    "repro.sim.engine:Event": _spec(
        "name",
        "fired",
        "value",
        "_waiters",
    ),
    "repro.sim.engine:Process": _spec(
        "name",
        "body",
        "done",
        "result",
        "failed",
        "_finished",
        sim=WIRING,
    ),
    "repro.sim.engine:_Timer": _spec(
        "when",
        "callback",
        "proc",
        "value",
        "anyof",
        "_cancelled",
        "_in_heap",
        cancelled="property alias of _cancelled",
        _sim=WIRING,
    ),
    "repro.sim.engine:Wakeup": _spec("index", "source", "value"),
    "repro.sim.engine:Delay": _spec("ns"),
    "repro.sim.rng:RngFactory": _spec("seed", "_streams"),
    "repro.sim.trace:Tracer": _spec(
        "enabled",
        "records",
        "spans",
        "counters",
        "gauges",
        "tenure_cuts",
        "_open_spans",
        "monitor",
        "_samples",
    ),
    "repro.sim.tenure:TenureMonitor": _spec(
        "_cores",
        "_cuts",
        "sharing",
        "backwards",
    ),
    "repro.sim.tenure:_CoreLog": _spec(
        "first",
        "last",
        "prev",
        "busy",
        "tenures",
        "found",
    ),
    "repro.sim.sync:Notify": _spec(
        "name",
        "_pending",
        "_waiters",
        "signal_count",
        _event_name=DERIVED,
    ),
    "repro.sim.sync:Channel": _spec(
        "name",
        "capacity",
        "_items",
        "_getters",
        "_putters",
        "put_count",
        "get_count",
    ),
    "repro.sim.sync:Mutex": _spec("name", "_locked", "_waiters"),
    "repro.sim.sync:CountingSemaphore": _spec("name", "_count", "_waiters"),
    "repro.sim.timeout:RetryPolicy": _spec(
        "first_timeout_ns",
        "max_retries",
        "max_timeout_ns",
        "jitter",
        rng="stream position captured via RngFactory._streams",
    ),
    # -- hardware ------------------------------------------------------
    "repro.hw.machine:Machine": _spec(
        "topology",
        "sim",
        "tracer",
        "rng",
        "gic",
        "timers",
        "llc",
        "memory",
        "cores",
        "coalesce_compute",
        pollution_costs=STATIC,
        coalesce_inhibit=HOOK,
    ),
    "repro.hw.core:PhysicalCore": _spec(
        "index",
        "online",
        "world",
        "current_domain",
        "busy_ns",
        "uarch",
        "pollution",
        "_active_span",
        machine=WIRING,
        sim=WIRING,
        tracer=WIRING,
        irq="captured via Machine.gic core interfaces",
        timer="captured via Machine.timers",
    ),
    "repro.hw.uarch:CoreUarchState": _spec(
        "core_index",
        "l1d",
        "l1i",
        "l2",
        "tlb",
        "branch",
        "store_buffer",
        "flush_count",
    ),
    "repro.hw.uarch:StoreBuffer": _spec("capacity", "_entries"),
    "repro.hw.uarch:PollutionModel": _spec(
        "_pending",
        "_last_domain",
        "total_penalty_paid",
        costs=STATIC,
    ),
    # _sets is sparse: only the sets accessed since the last flush
    "repro.hw.cache:SetAssociativeCache": _spec(
        "geometry", "_sets", "_tick", "hits", "misses"
    ),
    "repro.hw.tlb:Tlb": _spec(
        "name", "capacity", "_entries", "_tick", "hits", "misses"
    ),
    "repro.hw.branch:BranchPredictor": _spec(
        "btb_size",
        "history_bits",
        "history",
        "_btb",
        "_history_domain",
        "mispredicts",
        "train_count",
    ),
    "repro.hw.gic:Gic": _spec(
        "wire_delay_ns",
        "cores",
        "_spi_routes",
        "_next_flow",
        "sgi_sent",
        "spi_raised",
        sim=WIRING,
        tracer=WIRING,
        sgi_fault_hook=HOOK,
    ),
    "repro.hw.gic:CoreInterruptInterface": _spec(
        "core_index",
        "doorbell",
        "list_registers",
        "_pending",
        "received_count",
    ),
    "repro.hw.timer:CoreTimer": _spec(
        "core_index",
        "deadline",
        "fire_count",
        "_armed_timer",
        gic=WIRING,
        sim=WIRING,
    ),
    "repro.hw.memory:PhysicalMemory": _spec(
        "size_bytes",
        "n_granules",
        "_gpt",
        "_content",
        "gpt_checks",
        "gpt_faults",
    ),
    # -- monitor -------------------------------------------------------
    "repro.rmm.monitor:Rmm": _spec(
        "_next_realm_id",
        "_next_vmid",
        "delegated_intids",
        "granules",
        "realms",
        "rmi_counts",
        "image",
        "root_of_trust",
        machine=WIRING,
        costs=STATIC,
    ),
    "repro.rmm.granule:GranuleTracker": _spec(
        "_granules",
        "delegate_count",
        "undelegate_count",
        memory="enforcement mechanism; captured via Machine.memory",
    ),
    "repro.rmm.realm:Realm": _spec(
        "realm_id",
        "vmid",
        "rd_granule",
        "state",
        "rtt",
        "recs",
        "domain",
        "measurement",
        granules="shared GranuleTracker; captured via Rmm.granules",
    ),
    "repro.rmm.rtt:RealmTranslationTable": _spec(
        "realm_id",
        "map_count",
        "unmap_count",
        "_tables",
        "_leaves",
        granules="shared GranuleTracker; captured via Rmm.granules",
    ),
    "repro.rmm.interrupts:VirtualGic": _spec(
        "delegated",
        "lrs",
        "injected_by_rmm",
        "injected_by_host",
        "overflow_drops",
    ),
    "repro.rmm.core_gap:DedicatedCore": _spec(
        "guest_domain",
        "bound_rec",
        "inbox",
        "runs_handled",
        "rmi_handled",
        "failed",
        "released",
        "fail_after_runs",
        core="captured via Machine.cores",
        engine=WIRING,
        rmm=WIRING,
        sim=WIRING,
        tracer=WIRING,
        costs=STATIC,
    ),
    "repro.rmm.core_gap:CoreGapEngine": _spec(
        "dedicated",
        machine=WIRING,
        rmm=WIRING,
        tracer=WIRING,
        costs=STATIC,
        policy=STATIC,
    ),
    "repro.rmm.attestation:PlatformRootOfTrust": _spec(
        "platform_id", "_key"
    ),
    # -- host ----------------------------------------------------------
    "repro.host.kernel:HostKernel": _spec(
        "threads",
        "current",
        "work",
        "_fair",
        "_fifo",
        "_parked",
        "_started",
        "_dispatched_at",
        "irq_handlers",
        "fault_hooks",
        machine=WIRING,
        sim=WIRING,
        tracer=WIRING,
        costs=STATIC,
    ),
    "repro.host.threads:HostThread": _spec(
        "name",
        "body",
        "sched_class",
        "affinity",
        "state",
        "last_core",
        "cpu_ns",
        "per_cpu",
        "pending_action",
        "send_value",
        "result",
        "done_event",
        tid=GLOBAL,
    ),
    "repro.host.kvm:KvmVm": _spec(
        "vm",
        "mode",
        "realm_id",
        "busywait",
        "host_cores",
        "planned_cores",
        "threads",
        "ports",
        "done_event",
        "finished_vcpus",
        "torn_down",
        "run_errors",
        "run_retries",
        "run_self_claims",
        "run_wait_retry",
        "_injections",
        "_mmio_data",
        "_pause_requests",
        "_wfi_events",
        kernel=WIRING,
        machine=WIRING,
        sim=WIRING,
        tracer=WIRING,
        engine=WIRING,
        policy=STATIC,
        notifier=WIRING,
        costs=STATIC,
    ),
    "repro.host.planner:CorePlanner": _spec(
        "host_cores",
        "allocations",
        "parked",
        "hotplug",
        "sync_port",
        "sync_timeout_ns",
        "_next_granule",
        kernel=WIRING,
        engine=WIRING,
        machine=WIRING,
        notifier=WIRING,
        costs=STATIC,
    ),
    "repro.host.hotplug:HotplugController": _spec(
        "log",
        kernel=WIRING,
        costs=STATIC,
    ),
    "repro.host.wakeup:ExitNotifier": _spec(
        "target_core",
        "ports",
        "thread",
        "_doorbell",
        "activations",
        "ipis_received",
        "wakeups_performed",
        "watchdog_ns",
        "watchdog_polls",
        "watchdog_recoveries",
        kernel=WIRING,
        machine=WIRING,
        costs=STATIC,
        stall_hook=HOOK,
    ),
    "repro.host.virtio:VirtioBackend": _spec(
        "name",
        "device_kind",
        "intid",
        "echo_peer",
        "peer_latency_ns",
        "rx_queues",
        "requests_served",
        "thread",
        "_doorbell",
        "_jobs",
        kernel=WIRING,
        sim=WIRING,
        vm=WIRING,
        costs=STATIC,
        injector="bound KvmVm method; reattached by the builder",
        completion_fault_hook=HOOK,
    ),
    "repro.host.sriov:SriovNic": _spec(
        "name",
        "intid",
        "echo_peer",
        "peer_latency_ns",
        "rx_queues",
        "doorbells",
        "interrupts_raised",
        "_pending",
        kernel=WIRING,
        machine=WIRING,
        sim=WIRING,
        vm=WIRING,
        costs=STATIC,
        injector="bound KvmVm method; reattached by the builder",
    ),
    # -- RPC transport -------------------------------------------------
    "repro.rpc.ports:SyncRpcPort": _spec(
        "name",
        "call_count",
        sim=WIRING,
        tracer=WIRING,
    ),
    "repro.rpc.ports:AsyncRpcPort": _spec(
        "name",
        "slot",
        "submit_count",
        "complete_count",
        "_notify_exit",
        sim=WIRING,
        tracer=WIRING,
        completion_fault=HOOK,
    ),
    # -- guest ---------------------------------------------------------
    "repro.guest.vm:GuestVm": _spec(
        "name",
        "realm_id",
        "memory_gib",
        "domain",
        "devices",
        "vcpus",
        costs=STATIC,
    ),
    "repro.guest.vcpu:GuestVcpu": _spec(
        "index",
        "finished",
        "compute_ns_done",
        "io_events",
        "ipis_handled",
        "ticks_handled",
        "virqs_delivered",
        "pending_virqs",
        "enable_tick",
        "_io_consumed",
        "_workload",
        vm=WIRING,
        costs=STATIC,
        coalesce_allowed=HOOK,
    ),
    # -- composition roots ---------------------------------------------
    "repro.experiments.system:System": _spec(
        "config",
        "machine",
        "kernel",
        "rmm",
        "engine",
        "notifier",
        "planner",
        "host_cores",
        "kvms",
        "_next_spi",
        "_next_vm_serial",
        sim=ALIAS,
        tracer=ALIAS,
        costs=STATIC,
        policy=STATIC,
        metrics="typed view over Tracer counters/gauges; not state",
        _profiler=OBSERVER,
    ),
    "repro.fleet.traffic:TenantStats": _spec(
        "issued",
        "completed",
        "latencies_ns",
        "completed_at_ns",
        "slo_late",
        "started_at",
        "stopped_at",
        "finished_at",
    ),
    "repro.fleet.traffic:OpenLoopClient": _spec(
        "stats",
        "rng",
        "_slo_ns",
        "_mean_gap_ns",
        "_deadline",
        "_open",
        system=WIRING,
        tenant=STATIC,
        traffic=STATIC,
        device=WIRING,
        costs=STATIC,
        sim=WIRING,
    ),
    "repro.faults.injector:FaultInjector": _spec(
        "injected",
        "_counts",
        "_streams",
        plan=STATIC,
        sim=WIRING,
        tracer=WIRING,
        _gic=WIRING,
        _attached="attach-point bookkeeping for detach_all; not state",
    ),
}
