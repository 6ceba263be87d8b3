"""Redis-like server workload + external redis-benchmark client (Table 5).

The guest runs a request/response server: receive a request from the
SR-IOV NIC, execute the command, send the reply.  An external load
generator (modelled as a pure simulation process on the "client" host)
keeps 50 connections in closed loop and records per-request latency, as
redis-benchmark does.

Command costs model Redis v7 on a 3 GHz Arm core with 512-byte objects:
SET/GET are O(1) hashtable operations; LRANGE 100 walks 100 list nodes
and serialises a large reply (the memory-intensive long-running query
that behaves differently in Table 5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional

from ...analysis.stats import percentile
from ...costs import CostModel, DEFAULT_COSTS
from ...sim.engine import Simulator
from ..actions import Compute, DeviceDoorbell, IoRequest, WaitIo
from ..vm import GuestVm

__all__ = ["RedisOp", "RedisStats", "RedisClientSim", "redis_server_factory"]


@dataclass(frozen=True)
class RedisOp:
    """One benchmarked command type."""

    name: str
    #: server-side execution cost (ns)
    server_ns: int
    #: request / reply sizes on the wire (bytes)
    request_bytes: int
    reply_bytes: int


#: 512-byte objects, 50 clients -- the Table 5 configuration.
#: Server costs calibrated to Redis v7 single-instance throughput on a
#: 3 GHz core (SET ~52 krps shared-core, LRANGE-100 ~8x slower).
OP_SET = RedisOp("SET", 16_400, 600, 60)
OP_GET = RedisOp("GET", 17_200, 80, 600)
OP_LRANGE_100 = RedisOp("LRANGE_100", 72_000, 90, 100 * 512 + 400)


@dataclass
class RedisStats:
    """Client-side samples per op (latency in ns)."""

    latencies: Dict[str, List[int]] = field(default_factory=dict)
    completed: Dict[str, int] = field(default_factory=dict)
    started_at: int = 0
    finished_at: int = 0

    def note(self, op: str, latency_ns: int, now: int) -> None:
        self.latencies.setdefault(op, []).append(latency_ns)
        self.completed[op] = self.completed.get(op, 0) + 1
        self.finished_at = now

    def throughput_krps(self, op: str) -> float:
        n = self.completed.get(op, 0)
        elapsed = self.finished_at - self.started_at
        if elapsed <= 0:
            return 0.0
        return n / (elapsed / 1e9) / 1e3

    def percentile_ms(self, op: str, pct: float) -> float:
        return percentile(self.latencies.get(op, []), pct) / 1e6

    def mean_ms(self, op: str) -> float:
        samples = self.latencies.get(op, [])
        if not samples:
            return 0.0
        return sum(samples) / len(samples) / 1e6


def redis_server_factory(
    device: str, costs: CostModel = DEFAULT_COSTS
):
    """Redis is single-threaded: one server instance runs on vCPU 0,
    the remaining vCPUs model the rest of the guest (light load)."""

    def factory(vm: GuestVm, index: int) -> Generator:
        if index == 0:
            return _server_vcpu(vm, index, device, costs)
        return _background_vcpu()

    return factory


def _background_vcpu() -> Generator:
    while True:
        yield Compute(1_000_000)


def _server_vcpu(
    vm: GuestVm, index: int, device_name: str, costs: CostModel
) -> Generator:

    while True:
        yield WaitIo(device_name, "rx", 1)
        device = vm.device(device_name)
        request = device.rx_pop(index)
        if request is None or request.get("op") is None:
            continue
        op: RedisOp = request["op"]
        # network stack receive + command execution
        yield Compute(costs.guest_netstack_ns // 2)
        yield Compute(op.server_ns)
        reply = dict(request)
        yield DeviceDoorbell(
            device_name,
            IoRequest(
                "net_tx",
                op.reply_bytes,
                {"deliver_fn": request["reply_fn"], "payload": reply},
            ),
        )


class RedisClientSim:
    """redis-benchmark: 50 closed-loop clients on a separate machine."""

    def __init__(
        self,
        sim: Simulator,
        device,
        n_vcpus: int,
        op: RedisOp,
        n_requests: int,
        n_clients: int = 50,
        costs: CostModel = DEFAULT_COSTS,
    ):
        self.sim = sim
        self.device = device
        self.n_vcpus = n_vcpus
        self.op = op
        self.n_requests = n_requests
        self.n_clients = n_clients
        self.costs = costs
        self.stats = RedisStats()
        self._issued = 0
        self._rr = 0

    def start(self) -> None:
        self.stats.started_at = self.sim.now
        for _ in range(min(self.n_clients, self.n_requests)):
            self._issue()

    @property
    def done(self) -> bool:
        return sum(self.stats.completed.values()) >= self.n_requests

    def _issue(self) -> None:
        if self._issued >= self.n_requests:
            return
        self._issued += 1
        vcpu = 0  # the single Redis instance listens on vCPU 0

        sent_at = self.sim.now
        request = {
            "op": self.op,
            "sent_at": sent_at,
            "reply_fn": self._on_reply,
        }
        # client -> server wire latency, then NIC rx path in the guest
        self.sim.schedule(
            self.costs.net_wire_ns,
            lambda: self.device.deliver_rx(
                vcpu, request, self.op.request_bytes
            ),
        )

    def _on_reply(self, reply: dict) -> None:
        latency = self.sim.now - reply["sent_at"]
        self.stats.note(self.op.name, latency, self.sim.now)
        self._issue()
