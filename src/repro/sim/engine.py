"""Discrete-event simulation kernel.

The whole reproduction runs on this engine: physical cores, host threads,
RMM dispatch loops and guest vCPUs are all simulation *processes*
(Python generators) advanced by a single event loop over an integer
nanosecond clock.

A process yields one of:

* :class:`Delay` -- resume after a fixed number of nanoseconds.
* :class:`Event` -- resume when the event fires; the ``yield`` evaluates
  to the value passed to :meth:`Event.fire`.
* :class:`AnyOf` -- resume when the *first* of several delays/events
  fires; the ``yield`` evaluates to a :class:`Wakeup` naming the winner.
* :class:`Process` -- wait for a child process; evaluates to its result.

Sub-behaviours compose with plain ``yield from``.  The loop is strictly
deterministic: simultaneous events run in spawn/schedule order.

Hot-path notes (every experiment is bounded by this loop):

* The queue is one binary heap of ``(when, key, seq, timer)`` tuples,
  so ordering comparisons run in C and dispatch follows that total
  order: time, then the tie-break key, then schedule order.
* Dispatch rebinds ``self.now`` only when the clock actually moves.
  ``now + 0`` is a fresh int object, and every span or record stamped
  after a same-instant hop would otherwise keep its own copy alive;
  guarded, they all share the one object the clock already holds.
* An ``AnyOf`` whose sources are all delays is *elided*: the winner is
  computed arithmetically at arm time and a single timer is queued in
  its place, carrying a pre-built :class:`Wakeup`.  Sequence numbers
  are still reserved for every source, the winner keeps its own
  ``(when, key, seq)`` slot, and its dispatch re-queues the resume
  with a fresh sequence number exactly as the unelided settle hop
  does -- so the dispatch stream (and therefore every digest) is
  identical to arming N timers and cancelling the losers, without the
  loser churn or the compaction pressure.
* An ``AnyOf`` that races events is armed without closures and settles
  without leaving a reference cycle.  Its delay sources are queued as
  the same hop timers (``value`` points back at the race object), so a
  winning delay goes through the elided-race hop, which first
  unsubscribes the losers.  The dominant shape, ``[Delay, Event]``
  (every interruptible core segment), is one timer plus one
  :class:`_EventRace` waiter; other shapes get a :class:`_Race`.
  Settling breaks every link back to the race, so reference counting
  frees it at once.  This matters beyond allocation cost: a race per
  segment left as a cycle is tens of thousands of cycles per run, and
  each full (gen-2) collection they trigger walks every live object --
  every stored execution span included -- so collector time would grow
  with the run's length.
* The common resume path (``Delay``/spawn) carries the process on the
  timer itself; no per-event closure is allocated.  Timer allocation
  and queue inserts are inlined at the few scheduling sites rather
  than factored through helpers: this file trades repetition for the
  ~40% of dispatch cost that call frames were costing.
* Inside :meth:`run`, :meth:`Simulator.quiet_until` bounds the next
  dispatch from below, so a process can retire work that provably
  overlaps nothing as one wait (the host's idle slot scan does);
  :meth:`Simulator.reserve_seq` then consumes the sequence numbers the
  per-step expansion would have used, keeping every later tie key.
* ``pending_events`` is an O(1) counter kept by :meth:`_Timer.cancel`;
  cancelled timers (event-racing ``AnyOf`` losers, disarmed deadlines)
  are skipped lazily and compacted out of the heap when they pile up.
* The default ``"fifo"`` tie-break skips the tie-key indirection
  entirely; the permuting keys exist only for the schedule-race
  sanitizer and pay the call when selected.
"""

from __future__ import annotations

from functools import partial
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Generator, Iterable, List, Optional, Tuple

__all__ = [
    "Delay",
    "Event",
    "AnyOf",
    "Wakeup",
    "Process",
    "Simulator",
    "SimulationError",
]


class SimulationError(Exception):
    """Raised for illegal uses of the simulation API."""


class Delay:
    """Yieldable request to sleep for ``ns`` simulated nanoseconds."""

    __slots__ = ("ns",)

    def __init__(self, ns: int):
        if ns < 0:
            raise SimulationError(f"negative delay: {ns}")
        self.ns = int(ns)

    def __repr__(self) -> str:
        return f"Delay({self.ns})"


class Event:
    """A one-shot event that processes can wait on.

    Waiting on an already-fired event resumes immediately with the fired
    value, so there is no race between firing and waiting.
    """

    __slots__ = ("name", "fired", "value", "_waiters")

    def __init__(self, name: str = ""):
        self.name = name
        self.fired = False
        self.value: Any = None
        self._waiters: List[Callable[[Any], None]] = []

    def fire(self, value: Any = None) -> None:
        """Fire the event, waking every current and future waiter."""
        if self.fired:
            raise SimulationError(f"event {self.name!r} fired twice")
        self.fired = True
        self.value = value
        waiters, self._waiters = self._waiters, []
        for waiter in waiters:
            waiter(value)

    def add_waiter(self, callback: Callable[[Any], None]) -> None:
        if self.fired:
            callback(self.value)
        else:
            self._waiters.append(callback)

    def remove_waiter(self, callback: Callable[[Any], None]) -> None:
        try:
            self._waiters.remove(callback)
        except ValueError:
            pass

    def __repr__(self) -> str:
        state = "fired" if self.fired else "pending"
        return f"Event({self.name!r}, {state})"


class Wakeup:
    """Result of an :class:`AnyOf` wait: which source won, and its value."""

    __slots__ = ("index", "source", "value")

    def __init__(self, index: int, source: Any, value: Any):
        self.index = index
        self.source = source
        self.value = value

    def __repr__(self) -> str:
        return f"Wakeup(index={self.index}, source={self.source!r})"


class AnyOf:
    """Yieldable wait on several delays and/or events; first one wins.

    Losing delays are cancelled and losing event subscriptions removed,
    so an ``AnyOf`` leaves no residue once it resumes.
    """

    __slots__ = ("sources",)

    def __init__(self, sources: Iterable[Any]):
        self.sources = list(sources)
        if not self.sources:
            raise SimulationError("AnyOf requires at least one source")
        for src in self.sources:
            if not isinstance(src, (Delay, Event, Process)):
                raise SimulationError(f"AnyOf cannot wait on {src!r}")


ProcessBody = Generator[Any, Any, Any]


class Process:
    """A running simulation process wrapping a generator body."""

    __slots__ = ("sim", "body", "name", "done", "result", "failed", "_finished")

    def __init__(self, sim: "Simulator", body: ProcessBody, name: str):
        self.sim = sim
        self.body = body
        self.name = name
        self.done = Event(f"done:{name}")
        self.result: Any = None
        self.failed: Optional[BaseException] = None
        self._finished = False

    @property
    def finished(self) -> bool:
        return self._finished

    def __repr__(self) -> str:
        state = "finished" if self._finished else "running"
        return f"Process({self.name!r}, {state})"


class _Timer:
    """A cancellable entry in the event heap.

    Ordering lives in the heap tuple ``(when, key, seq, timer)``, not
    here.  ``proc`` is the closure-free fast path: when set, the loop
    resumes that process directly (sending ``value``) instead of
    calling ``callback``.  ``anyof`` marks an :class:`AnyOf` delay source
    queued as a hop timer: it holds the pre-built :class:`Wakeup`, and
    dispatch re-queues the resume (a fresh sequence number at the fire
    time) exactly as a settle callback's resume would.  On such a timer
    ``value`` is the event race it belongs to (``None`` for an
    all-delay race) until the hop runs.
    """

    __slots__ = (
        "when", "callback", "proc", "value", "anyof",
        "_cancelled", "_in_heap", "_sim",
    )

    def __init__(
        self,
        when: int,
        callback: Optional[Callable[[], None]],
        proc: Optional[Process],
        sim: "Simulator",
        value: Any = None,
    ):
        self.when = when
        self.callback = callback
        self.proc = proc
        self.value = value
        self.anyof: Optional[Wakeup] = None
        self._cancelled = False
        self._in_heap = True
        self._sim = sim

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    @cancelled.setter
    def cancelled(self, value: bool) -> None:
        value = bool(value)
        if value == self._cancelled:
            return
        self._cancelled = value
        # keep the simulator's O(1) live/stale accounting in sync, but
        # only while the entry is actually still queued: cancelling a
        # timer that already fired (an AnyOf winner cancelling its own
        # batch, a disarmed deadline) must not corrupt the counters
        if not self._in_heap:
            return
        sim = self._sim
        if value:
            sim._live -= 1
            sim._stale += 1
            if sim._stale > sim._COMPACT_MIN and sim._stale > sim._live:
                sim._compact()
        else:
            sim._live += 1
            sim._stale -= 1

    def cancel(self) -> None:
        self.cancelled = True

    def __repr__(self) -> str:
        state = "cancelled" if self._cancelled else "armed"
        return f"_Timer(when={self.when}, {state})"


#: a run's dispatch limit, and :meth:`Simulator.quiet_until`'s cap, when
#: ``run()`` has no ``until``
_END_OF_TIME = 1 << 63

#: queue entry type: (when, tie_key, seq, timer)
_HeapEntry = Tuple[int, int, int, _Timer]

#: allocation fast path: ``_new_timer(_Timer)`` + eight slot stores is
#: measurably cheaper than a Python ``__init__`` frame on the paths
#: that allocate one timer per event
_new_timer = _Timer.__new__
_new_wakeup = Wakeup.__new__


class _EventRace:
    """An armed ``AnyOf([Delay, Event])``, subscribed as the event's waiter.

    The delay side is one elided-race timer (``anyof`` = the pre-built
    ``Wakeup(0, delay)``, ``value`` = this race).  If the event fires
    first, calling the race cancels that timer and resumes the process
    with ``Wakeup(1, event, value)``; if the timer fires first, the
    elided-race hop calls :meth:`drop` to unsubscribe.  Either way the
    timer -> race link is the only one back, and settling breaks it, so
    a settled race is freed by reference counting alone.
    """

    __slots__ = ("sim", "proc", "event", "timer")

    def __call__(self, value: Any) -> None:
        timer = self.timer
        timer.value = None
        timer.cancel()
        self.sim._schedule_resume(self.proc, Wakeup(1, self.event, value))

    def drop(self, timer: _Timer) -> None:
        self.event._waiters.remove(self)


_new_event_race = _EventRace.__new__


class _Race:
    """An armed event-racing :class:`AnyOf` of any other shape.

    Delay sources are elided-race timers pointing back here (``value``);
    event and process sources subscribe ``partial(race.settle, index,
    source)``.  The first source to fire settles the race: losing timers
    are cancelled, losing subscriptions removed, and the race drops its
    ``timers``/``subscriptions`` lists -- the references that made it a
    cycle -- before the process resumes.
    """

    __slots__ = ("sim", "proc", "timers", "subscriptions")

    def __init__(self, sim: "Simulator", proc: Process):
        self.sim = sim
        self.proc: Optional[Process] = proc
        self.timers: Optional[List[_Timer]] = []
        self.subscriptions: Optional[List[Tuple[Event, Callable]]] = []

    def settle(self, index: int, source: Any, value: Any = None) -> None:
        """An event or process source won (a no-op once settled: the
        same event may be listed twice)."""
        proc = self.proc
        if proc is None:
            return
        self.drop(None)
        # resume via the event loop rather than synchronously: a
        # process looping on already-fired sources must not recurse
        self.sim._schedule_resume(proc, Wakeup(index, source, value))

    def drop(self, winner: Optional[_Timer]) -> None:
        """Disarm every source but ``winner`` (the delay timer being
        dispatched by the elided-race hop, which reuses it)."""
        self.proc = None
        for timer in self.timers:
            if timer is not winner:
                timer.cancel()
        for event, callback in self.subscriptions:
            event.remove_waiter(callback)
        self.timers = self.subscriptions = None


class Simulator:
    """The deterministic event loop.

    Typical use::

        sim = Simulator()
        proc = sim.spawn(my_generator(), name="worker")
        sim.run(until=1_000_000)   # or sim.run() to drain all events
    """

    #: multiplier for the "seeded" tie-break hash (splitmix64 constant);
    #: pure integer math so permutations replay identically everywhere
    _TIE_MIX = 0x9E3779B97F4A7C15

    #: cancelled entries tolerated in the heap before a compaction pass
    #: (also requires stale > live, so compaction work stays amortized)
    _COMPACT_MIN = 64

    def __init__(self, tie_break: str = "fifo") -> None:
        self.now: int = 0
        self._heap: List[_HeapEntry] = []
        self._seq: int = 0
        self._live: int = 0
        self._stale: int = 0
        self._live_processes: int = 0
        self.tie_break = tie_break
        self._fifo = tie_break == "fifo"
        self._tie_key = self._make_tie_key(tie_break)
        #: one past the last time the running :meth:`run` may dispatch
        #: (its ``until`` + 1); ``None`` outside :meth:`run`, where
        #: :meth:`quiet_until` offers no window
        self._run_end: Optional[int] = None
        #: optional dispatch profiler (see repro.obs.profile); None keeps
        #: run() on the uninstrumented fast path — zero cost when off
        self._profiler: Optional[Any] = None

    @classmethod
    def _make_tie_key(cls, tie_break: str) -> Callable[[int], int]:
        """Key function ordering same-timestamp timers.

        The default ``"fifo"`` preserves schedule order — the engine's
        documented semantics.  The alternatives exist for the schedule-
        race sanitizer (:mod:`repro.lint.sanitizer`): they permute the
        order of *causally unrelated* same-timestamp events (a timer
        can only run after it was created, so causal chains survive any
        key).  Results that change under a permuted key were riding on
        arbitrary tie order.

        * ``"fifo"``   -- schedule order (default semantics)
        * ``"lifo"``   -- reverse schedule order
        * ``"seeded:N"`` -- deterministic pseudo-random order from salt N
        """
        if tie_break == "fifo":
            return lambda seq: 0
        if tie_break == "lifo":
            return lambda seq: -seq
        if tie_break.startswith("seeded:"):
            salt = int(tie_break.split(":", 1)[1])
            mask = (1 << 64) - 1
            mix = cls._TIE_MIX

            def seeded(seq: int) -> int:
                value = (seq + salt) & mask
                value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & mask
                value = ((value ^ (value >> 27)) * mix) & mask
                return value ^ (value >> 31)

            return seeded
        raise SimulationError(f"unknown tie_break: {tie_break!r}")

    # ------------------------------------------------------------------
    # scheduling primitives
    # ------------------------------------------------------------------

    def schedule(self, delay_ns: int, callback: Callable[[], None]) -> _Timer:
        """Run ``callback`` after ``delay_ns``; returns a cancellable timer."""
        if delay_ns < 0:
            raise SimulationError(f"negative delay: {delay_ns}")
        seq = self._seq + 1
        self._seq = seq
        timer = _Timer(self.now + int(delay_ns), callback, None, self)
        self._live += 1
        heappush(
            self._heap,
            (timer.when, 0 if self._fifo else self._tie_key(seq), seq, timer),
        )
        return timer

    def _schedule_step(self, delay_ns: int, proc: Process) -> _Timer:
        """Closure-free fast path: resume ``proc`` after ``delay_ns``.

        Equivalent to ``schedule(delay_ns, lambda: self._step(proc))``
        without allocating the lambda; ``delay_ns`` is already
        validated by the caller (``Delay.__init__`` / ``spawn``).
        """
        seq = self._seq + 1
        self._seq = seq
        when = self.now + delay_ns
        timer = _new_timer(_Timer)
        timer.when = when
        timer.callback = None
        timer.proc = proc
        timer.value = None
        timer.anyof = None
        timer._cancelled = False
        timer._in_heap = True
        timer._sim = self
        self._live += 1
        heappush(
            self._heap, (when, 0 if self._fifo else self._tie_key(seq), seq, timer)
        )
        return timer

    def _schedule_resume(self, proc: Process, value: Any) -> _Timer:
        """Resume ``proc`` with ``value`` at the current time, through the
        event loop (AnyOf settle path; closure-free)."""
        seq = self._seq + 1
        self._seq = seq
        timer = _new_timer(_Timer)
        timer.when = self.now
        timer.callback = None
        timer.proc = proc
        timer.value = value
        timer.anyof = None
        timer._cancelled = False
        timer._in_heap = True
        timer._sim = self
        self._live += 1
        heappush(
            self._heap,
            (timer.when, 0 if self._fifo else self._tie_key(seq), seq, timer),
        )
        return timer

    def call_soon(self, callback: Callable[[], None]) -> _Timer:
        return self.schedule(0, callback)

    def reserve_seq(self, n: int) -> None:
        """Consume ``n`` sequence numbers without queueing anything.

        A process that retires several steps as one wait (see
        :meth:`quiet_until`) reserves the numbers the steps would have
        used, so ``_seq`` -- and with it every later tie key -- matches
        the step-by-step run.
        """
        if n < 0:
            raise SimulationError(f"negative reservation: {n}")
        self._seq += n

    def quiet_until(self) -> int:
        """Lower bound on the next dispatch: nothing else can run in
        ``[now, quiet_until())``.

        A process being dispatched that queues nothing but one wait
        ending before the bound therefore runs alone until that wait
        fires: no interrupt, signal or state change can reach it.  The
        bound is ``now`` while anything is queued at ``now`` and
        outside :meth:`run` (``run_one`` and ``run_until_done`` stop
        after every event, so they offer no window).  Within a run it
        is capped at ``until`` + 1.  Cancelled entries still count: a
        conservative bound only coalesces less.
        """
        end = self._run_end
        if end is None:
            return self.now
        heap = self._heap
        if heap:
            when = heap[0][0]
            return when if when < end else end
        return end

    def spawn(self, body: ProcessBody, name: str = "proc") -> Process:
        """Create a process from a generator and start it at the current time."""
        proc = Process(self, body, name)
        self._live_processes += 1
        self._schedule_step(0, proc)
        return proc

    # ------------------------------------------------------------------
    # process stepping
    # ------------------------------------------------------------------

    def _step(
        self,
        proc: Process,
        send_value: Any = None,
        throw_exc: Optional[BaseException] = None,
    ) -> None:
        try:
            if throw_exc is not None:
                yielded = proc.body.throw(throw_exc)
            else:
                yielded = proc.body.send(send_value)
        except StopIteration as stop:
            self._finish(proc, getattr(stop, "value", None), None)
            return
        except BaseException as exc:  # noqa: BLE001 - propagate via run()
            self._finish(proc, None, exc)
            return
        # hot-kind dispatch inlined here (one call frame per event saved);
        # _arm keeps the full chain for the cold kinds and subclasses
        kind = type(yielded)
        if kind is Delay:
            seq = self._seq + 1
            self._seq = seq
            delay_ns = yielded.ns
            when = self.now + delay_ns
            timer = _new_timer(_Timer)
            timer.when = when
            timer.callback = None
            timer.proc = proc
            timer.value = None
            timer.anyof = None
            timer._cancelled = False
            timer._in_heap = True
            timer._sim = self
            self._live += 1
            heappush(
                self._heap,
                (when, 0 if self._fifo else self._tie_key(seq), seq, timer),
            )
        elif kind is AnyOf:
            self._arm_any_of(proc, yielded.sources)
        else:
            self._arm(proc, yielded)

    def _finish(
        self, proc: Process, result: Any, exc: Optional[BaseException]
    ) -> None:
        proc.result = result
        proc.failed = exc
        proc._finished = True
        self._live_processes -= 1
        if exc is not None and not proc.done._waiters:
            raise exc
        proc.done.fire(result if exc is None else exc)

    def _arm(self, proc: Process, yielded: Any) -> None:
        """Arm the wakeup condition a process yielded.

        ``type() is`` checks dodge ``isinstance`` for the exact engine
        types (the only ones the stack yields); the ``isinstance``
        chain at the end keeps subclasses working at the old speed.
        """
        kind = type(yielded)
        if kind is Delay:
            self._schedule_step(yielded.ns, proc)
        elif kind is AnyOf:
            self._arm_any_of(proc, yielded.sources)
        elif kind is Event:
            yielded.add_waiter(partial(self._step, proc))
        elif kind is Process:
            yielded.done.add_waiter(
                partial(self._resume_from_child, proc, yielded)
            )
        elif isinstance(yielded, Delay):
            self._schedule_step(yielded.ns, proc)
        elif isinstance(yielded, AnyOf):
            self._arm_any_of(proc, yielded.sources)
        elif isinstance(yielded, Event):
            yielded.add_waiter(partial(self._step, proc))
        elif isinstance(yielded, Process):
            yielded.done.add_waiter(
                partial(self._resume_from_child, proc, yielded)
            )
        else:
            self._step(
                proc,
                None,
                SimulationError(f"process {proc.name!r} yielded {yielded!r}"),
            )

    def _resume_from_child(
        self, proc: Process, child: Process, _value: Any = None
    ) -> None:
        if child.failed is not None:
            self._step(proc, None, child.failed)
        else:
            self._step(proc, child.result, None)

    def _arm_any_of(self, proc: Process, sources: List[Any]) -> None:
        """Arm an :class:`AnyOf` by shape: all delays are elided
        (:meth:`_arm_delay_race`), ``[Delay, pending Event]`` -- every
        core segment's work-vs-doorbell race -- gets one
        :class:`_EventRace`, and anything else a :class:`_Race`."""
        if len(sources) == 2:
            delay, event = sources
            if type(delay) is Delay and type(event) is Event and not event.fired:
                race = _new_event_race(_EventRace)
                race.sim = self
                race.proc = proc
                race.event = event
                timer = self._arm_delay_race(proc, sources[:1])
                timer.value = race
                race.timer = timer
                event._waiters.append(race)
                return
        for source in sources:
            if type(source) is not Delay:
                break
        else:
            self._arm_delay_race(proc, sources)
            return
        race = _Race(self, proc)
        timers = race.timers
        subscriptions = race.subscriptions
        for index, source in enumerate(sources):
            if race.proc is None:
                # an already-fired source settled the race mid-arm
                break
            if isinstance(source, Delay):
                # a one-delay elided race is exactly this source's timer
                timer = self._arm_delay_race(proc, [source])
                timer.anyof.index = index
                timer.value = race
                timers.append(timer)
                continue
            callback = partial(race.settle, index, source)
            if isinstance(source, Process):
                source = source.done
            subscriptions.append((source, callback))
            source.add_waiter(callback)

    def _arm_delay_race(self, proc: Process, sources: List[Delay]) -> _Timer:
        """Elide an all-delay :class:`AnyOf`: only a race between fixed
        delays has a winner that is a pure function of the arm time, so
        the losers never need to be queued at all.

        Sequence numbers are reserved for every source (one bump per
        delay, in source order, exactly as arming N timers would) and
        the winner is the minimum ``(when, key, seq)`` over them -- the
        same entry the heap would pop first.  Dispatching it re-queues
        the process resume with a fresh sequence number at the fire
        time, matching the unelided settle hop, so the global dispatch
        stream is unchanged while the losers -- and the cancel/compact
        churn they caused -- vanish.
        """
        seq0 = self._seq
        n = len(sources)
        self._seq = seq0 + n
        now = self.now
        if self._fifo:
            if n == 2:
                # the dominant shape (compute-vs-doorbell, work-vs-deadline)
                if sources[1].ns < sources[0].ns:
                    best_index = 1
                    best_when = now + sources[1].ns
                else:
                    best_index = 0
                    best_when = now + sources[0].ns
            else:
                best_index = 0
                best_when = now + sources[0].ns
                for index in range(1, n):
                    when = now + sources[index].ns
                    if when < best_when:
                        best_when = when
                        best_index = index
            best_key = 0
            best_seq = seq0 + 1 + best_index
        else:
            tie_key = self._tie_key
            best_index = 0
            best = (now + sources[0].ns, tie_key(seq0 + 1), seq0 + 1)
            for index in range(1, n):
                seq = seq0 + 1 + index
                candidate = (now + sources[index].ns, tie_key(seq), seq)
                if candidate < best:
                    best = candidate
                    best_index = index
            best_when, best_key, best_seq = best
        wakeup = _new_wakeup(Wakeup)
        wakeup.index = best_index
        wakeup.source = sources[best_index]
        wakeup.value = None
        timer = _new_timer(_Timer)
        timer.when = best_when
        timer.callback = None
        timer.proc = proc
        timer.value = None
        timer.anyof = wakeup
        timer._cancelled = False
        timer._in_heap = True
        timer._sim = self
        self._live += 1
        heappush(self._heap, (best_when, best_key, best_seq, timer))
        return timer

    def _fire_elided(self, timer: _Timer) -> None:
        """Dispatch a winning race delay: disarm the race's other
        sources, then re-queue the resume at the fire time, reusing the
        timer object (a settle callback allocates a fresh one; object
        identity is not observable).  Matches :meth:`_schedule_resume`
        including the sequence bump.
        """
        wakeup = timer.anyof
        race = timer.value
        if race is not None:
            race.drop(timer)
        timer.anyof = None
        timer.value = wakeup
        timer.when = self.now
        timer._in_heap = True
        seq = self._seq + 1
        self._seq = seq
        self._live += 1
        heappush(
            self._heap,
            (timer.when, 0 if self._fifo else self._tie_key(seq), seq, timer),
        )

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------

    def _compact(self) -> None:
        """Drop cancelled entries and rebuild the heap (amortized by the
        trigger threshold; keeps cancellation storms from growing the
        heap without bound).  Rebuilt in place: :meth:`run` holds the
        heap in a local, and a fresh list would strand its loop on the
        old one."""
        heap = self._heap
        live: List[_HeapEntry] = []
        for entry in heap:
            timer = entry[3]
            if timer._cancelled:
                timer._in_heap = False
            else:
                live.append(entry)
        heapify(live)
        heap[:] = live
        self._stale = 0

    def _pop_next(self, until: Optional[int] = None) -> Optional[_Timer]:
        """Pop the next live timer and move the clock to it, discarding
        cancelled entries on the way.

        Shared by :meth:`run_one` and the profiled loop; :meth:`run`
        inlines the same loop.  Returns ``None`` when the heap drains
        or the next live timer lies beyond ``until`` (which is then left
        queued).
        """
        heap = self._heap
        limit = _END_OF_TIME if until is None else until
        while heap:
            entry = heappop(heap)
            timer = entry[3]
            if timer._cancelled:
                timer._in_heap = False
                self._stale -= 1
                continue
            when = entry[0]
            if when > limit:
                heappush(heap, entry)
                return None
            timer._in_heap = False
            self._live -= 1
            if when != self.now:
                if when < self.now:
                    raise SimulationError("time went backwards")
                self.now = when
            return timer
        return None

    def attach_profiler(self, profiler: Any) -> None:
        """Route :meth:`run` through the profiled loop.

        ``profiler`` is duck-typed (see :class:`repro.obs.profile.
        EngineProfiler`): it needs ``clock()`` returning monotonic
        integer nanoseconds and ``note(timer, elapsed_ns, queue_len)``.
        The engine itself never reads a wall clock — the profiler owns
        the (nondeterministic) time source, which is why profiling is
        excluded from digested runs rather than special-cased in them.
        """
        self._profiler = profiler

    def detach_profiler(self) -> None:
        self._profiler = None

    def run(self, until: Optional[int] = None) -> int:
        """Process events until the heap drains or the clock passes
        ``until``.  Returns the simulated time at which the run stopped.
        While it runs, :meth:`quiet_until` offers windows ending by
        ``until``.
        """
        outer = self._run_end
        self._run_end = _END_OF_TIME if until is None else until + 1
        try:
            if self._profiler is not None:
                return self._run_profiled(until)
            return self._run_loop(until)
        finally:
            self._run_end = outer

    def _run_loop(self, until: Optional[int]) -> int:
        """The body of :meth:`run`: :meth:`_pop_next` and the dispatch
        inlined into one loop, with the elided-race hop inlined too."""
        step = self._step
        heap = self._heap
        limit = _END_OF_TIME if until is None else until
        while heap:
            entry = heappop(heap)
            timer = entry[3]
            if timer._cancelled:
                timer._in_heap = False
                self._stale -= 1
                continue
            when = entry[0]
            if when > limit:
                heappush(heap, entry)
                break
            timer._in_heap = False
            self._live -= 1
            if when != self.now:
                if when < self.now:
                    raise SimulationError("time went backwards")
                self.now = when
            proc = timer.proc
            if proc is not None:
                wakeup = timer.anyof
                if wakeup is None:
                    step(proc, timer.value, None)
                    continue
                # _fire_elided, inlined: re-queue the resume at the fire
                # time with a fresh sequence number
                race = timer.value
                if race is not None:
                    race.drop(timer)
                timer.anyof = None
                timer.value = wakeup
                timer._in_heap = True
                seq = self._seq + 1
                self._seq = seq
                self._live += 1
                heappush(
                    heap, (when, 0 if self._fifo else self._tie_key(seq), seq, timer)
                )
            else:
                timer.callback()
        if until is not None and until > self.now:
            self.now = until
        return self.now

    def _run_profiled(self, until: Optional[int] = None) -> int:
        """The :meth:`run` loop with per-dispatch wall-time attribution.

        A separate copy so the common path stays branch-free inside the
        loop; simulated behaviour is identical (same pops, same order).
        """
        profiler = self._profiler
        clock = profiler.clock
        note = profiler.note
        step = self._step
        pop_next = self._pop_next
        while True:
            timer = pop_next(until)
            if timer is None:
                break
            proc = timer.proc
            start = clock()
            if proc is not None:
                if timer.anyof is None:
                    step(proc, timer.value, None)
                else:
                    self._fire_elided(timer)
            else:
                timer.callback()
            note(timer, clock() - start, self._live + self._stale)
        if until is not None and until > self.now:
            self.now = until
        return self.now

    def run_until_done(self, proc: Process, limit: Optional[int] = None) -> Any:
        """Run until ``proc`` finishes; returns its result, raising its error."""
        while not proc.finished:
            if self._live == 0:
                raise SimulationError(
                    f"deadlock: {proc.name!r} pending with no events queued"
                )
            if limit is not None and self.now > limit:
                raise SimulationError(
                    f"process {proc.name!r} still running at t={self.now}"
                )
            self.run_one()
        if proc.failed is not None:
            raise proc.failed
        return proc.result

    def run_one(self) -> None:
        """Process exactly one (non-cancelled) event."""
        timer = self._pop_next()
        if timer is None:
            return
        profiler = self._profiler
        if profiler is not None:
            start = profiler.clock()
        proc = timer.proc
        if proc is not None:
            if timer.anyof is None:
                self._step(proc, timer.value, None)
            else:
                self._fire_elided(timer)
        else:
            timer.callback()
        if profiler is not None:
            profiler.note(
                timer, profiler.clock() - start, self._live + self._stale
            )

    @property
    def pending_events(self) -> int:
        """Live (non-cancelled) timers still queued — O(1)."""
        return self._live
