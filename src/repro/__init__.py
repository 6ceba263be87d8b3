"""repro: a full-system simulation reproduction of "Sharing is leaking:
blocking transient-execution attacks with core-gapped confidential VMs"
(Castes & Baumann, ASPLOS 2024).

Subpackages
-----------
``repro.sim``          discrete-event kernel
``repro.hw``           simulated SoC (cores, caches, GIC, timers, memory)
                       + isolation-policy strategies (``repro.hw.policy``)
``repro.isa``          worlds, security domains, SMC cost model
``repro.costs``        calibrated primitive-cost model
``repro.rmm``          the security monitor, incl. core gapping
``repro.rpc``          shared-memory RPC transports
``repro.host``         Linux/KVM-like host: scheduler, hotplug, VMM, planner
``repro.guest``        guest vCPU runtime and workloads
``repro.security``     side channels, attacks, vulnerability catalog,
                       auditor, per-policy leakage probe
``repro.analysis``     statistics and report rendering
``repro.experiments``  one harness per paper table/figure (+ the
                       ``defenses`` policy-comparison sweep)
``repro.fleet``        declarative multi-server scenarios, open-loop
                       serving, per-server sweep cells (``repro.fleet.sweep``),
                       elastic lifecycle: churn, autoscaling, rebalancing
                       (``repro.fleet.elastic``)
``repro.snap``         checkpoint/restore by deterministic re-execution
``repro.faults``       fault injection and chaos harnesses
``repro.obs``          traces, metrics, profiling, run reports
``repro.lint``         static invariant passes + runtime sanitizer
"""

__version__ = "1.0.0"

from .costs import CostModel, DEFAULT_COSTS

__all__ = ["CostModel", "DEFAULT_COSTS", "__version__"]
