"""Canonical capture: deterministic, read-only, drift-detecting.

The capture layer is the witness half of the snapshot design -- these
tests pin its canonicalization rules (the JSON tree two equal states
produce must be byte-equal), that capturing never perturbs the run,
and that the format round-trips through JSON with version checking.
"""

import random

import pytest

from repro.experiments.config import SystemConfig
from repro.experiments.system import System
from repro.guest.vm import GuestVm
from repro.guest.workloads import CoremarkStats, coremark_workload_factory
from repro.sim.clock import ms
from repro.snap import (
    SNAP_FIELDS,
    Snapshot,
    SnapshotError,
    canon,
    capture_digest,
    capture_system,
    diff_captures,
    snapshot,
)


def small_system(seed: int = 7) -> System:
    config = SystemConfig(
        mode="gapped", n_cores=4, seed=seed, trace_schedules=True
    )
    system = System(config)
    stats = CoremarkStats()
    vm = GuestVm("coremark0", 2, coremark_workload_factory(stats))
    kvm = system.launch(vm)
    system.start(kvm)
    return system


class TestCanon:
    def test_scalars_pass_through(self):
        assert canon(None) is None
        assert canon(True) is True
        assert canon(42) == 42
        assert canon("x") == "x"

    def test_floats_via_repr(self):
        assert canon(0.1) == f"f:{0.1!r}"

    def test_dicts_sorted_sets_canonical(self):
        assert canon({"b": 1, "a": 2}) == {"a": 2, "b": 1}
        assert canon({3, 1, 2}) == [1, 2, 3]

    def test_rng_state_position_sensitive(self):
        a, b = random.Random(1), random.Random(1)
        assert canon(a) == canon(b)
        b.random()
        assert canon(a) != canon(b)

    def test_generator_descriptor_tracks_suspension(self):
        def gen():
            yield 1
            yield 2

        g = gen()
        before = canon(g)
        next(g)
        after = canon(g)
        assert before.startswith("gen:") and before != after

    def test_cycles_become_refs(self):
        # System.machine.cores[i].machine is a cycle; capture must be a tree
        system = small_system()
        capture = capture_system(system)
        assert capture["system"]["__class__"] == "System"


class TestCaptureDeterminism:
    def test_same_seed_same_digest(self):
        a, b = small_system(), small_system()
        a.run_for(ms(2))
        b.run_for(ms(2))
        assert a.state_digest() == b.state_digest()

    def test_different_seed_different_digest(self):
        a, b = small_system(seed=7), small_system(seed=8)
        a.run_for(ms(2))
        b.run_for(ms(2))
        assert a.state_digest() != b.state_digest()

    def test_capture_is_read_only(self):
        """A run that captures at every step stays digest-identical to
        one that never captures."""
        a, b = small_system(), small_system()
        for _ in range(4):
            a.run_for(ms(1))
            capture_system(a)  # witness only; must not perturb
        b.run_for(ms(4))
        assert a.state_digest() == b.state_digest()

    def test_state_digest_moves_with_time(self):
        system = small_system()
        before = system.state_digest()
        system.run_for(ms(1))
        assert system.state_digest() != before


class TestDiffAndDrift:
    def test_diff_names_diverging_fields(self):
        a, b = small_system(), small_system()
        a.run_for(ms(1))
        b.run_for(ms(2))
        diffs = diff_captures(capture_system(a), capture_system(b))
        assert diffs
        assert any("now" in d for d in diffs)

    def test_diff_empty_for_equal_states(self):
        a, b = small_system(), small_system()
        a.run_for(ms(1))
        b.run_for(ms(1))
        assert diff_captures(capture_system(a), capture_system(b)) == []


class TestSnapshotFormat:
    def test_json_roundtrip(self):
        system = small_system()
        system.run_for(ms(1))
        snap = snapshot(system, label="t1")
        back = Snapshot.from_json(snap.to_json())
        assert back.digest == snap.digest
        assert back.taken_at_ns == snap.taken_at_ns
        assert back.capture == snap.capture
        assert back.recipe is None

    def test_version_mismatch_refused(self):
        payload = '{"version": 999, "label": "x", "taken_at_ns": 0, "digest": "d", "capture": {}}'
        with pytest.raises(SnapshotError):
            Snapshot.from_json(payload)

    def test_garbage_payload_refused(self):
        with pytest.raises(SnapshotError):
            Snapshot.from_json("{not json")

    def test_restore_without_recipe_refused(self):
        from repro.snap import restore

        system = small_system()
        snap = snapshot(system)
        with pytest.raises(SnapshotError):
            restore(snap)


class TestRegistry:
    def test_core_classes_registered(self):
        for key in (
            "repro.sim.engine:Simulator",
            "repro.hw.machine:Machine",
            "repro.rmm.monitor:Rmm",
            "repro.host.kernel:HostKernel",
            "repro.rmm.core_gap:CoreGapEngine",
            "repro.experiments.system:System",
            "repro.fleet.traffic:OpenLoopClient",
            "repro.faults.injector:FaultInjector",
        ):
            assert key in SNAP_FIELDS, key

    def test_digest_covers_capture_content(self):
        system = small_system()
        capture = capture_system(system)
        digest = capture_digest(capture)
        capture["system"]["_next_spi"] = -1
        assert capture_digest(capture) != digest
