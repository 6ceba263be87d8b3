"""Synchronization primitives built on the simulation kernel.

These model the shared-memory constructs the real system uses: doorbell
notifications (IPIs ring these), bounded FIFO channels (virtqueues, RPC
rings) and mutexes (host kernel locks).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Generator, List, Optional

from .engine import Event, SimulationError

__all__ = ["Notify", "Channel", "Mutex", "CountingSemaphore"]


class Notify:
    """A re-armable notification ("doorbell").

    Unlike :class:`Event`, a ``Notify`` can fire many times.  Each call to
    :meth:`wait` returns a fresh one-shot event for the *next* signal.  A
    signal with no waiter is remembered (level-triggered), matching how an
    IPI pends in the interrupt controller until acknowledged.
    """

    def __init__(self, name: str = ""):
        self.name = name
        #: every waiter event's name, formatted once (wait() is per segment)
        self._event_name = f"notify:{name}"
        self._pending = 0
        self._waiters: List[Event] = []
        self.signal_count = 0

    def signal(self, value: Any = None) -> None:
        """Wake one waiter, or remember the signal if nobody waits."""
        self.signal_count += 1
        if self._waiters:
            self._waiters.pop(0).fire(value)
        else:
            self._pending += 1

    def wait(self) -> Event:
        """Return an event that fires on the next (or a pending) signal."""
        event = Event(self._event_name)
        if self._pending:
            self._pending -= 1
            event.fire(None)
        else:
            self._waiters.append(event)
        return event

    def cancel_wait(self, event: Event) -> None:
        """Withdraw a waiter obtained from :meth:`wait`.

        If the event already fired, the consumed signal is returned to
        the pending pool so no notification is lost; otherwise the
        waiter is simply removed.
        """
        if event.fired:
            self._pending += 1
        else:
            try:
                self._waiters.remove(event)
            except ValueError:
                pass

    def clear(self) -> None:
        """Drop any remembered (unconsumed) signals."""
        self._pending = 0

    @property
    def pending(self) -> bool:
        return self._pending > 0


class Channel:
    """A bounded FIFO channel with blocking get (and optionally put).

    Models shared-memory rings: RPC request/response rings, virtqueues.
    """

    def __init__(self, name: str = "", capacity: Optional[int] = None):
        self.name = name
        self.capacity = capacity
        self._items: Deque[Any] = deque()
        self._getters: List[Event] = []
        self._putters: List[Event] = []
        self.put_count = 0
        self.get_count = 0

    def __len__(self) -> int:
        return len(self._items)

    @property
    def full(self) -> bool:
        return self.capacity is not None and len(self._items) >= self.capacity

    def try_put(self, item: Any) -> bool:
        """Non-blocking put; returns False when the channel is full."""
        if self.full:
            return False
        self.put_count += 1
        if self._getters:
            self._getters.pop(0).fire(item)
        else:
            self._items.append(item)
        return True

    def put(self, item: Any) -> Generator:
        """Blocking put (a generator to ``yield from``)."""
        while not self.try_put(item):
            event = Event(f"chan-put:{self.name}")
            self._putters.append(event)
            yield event
        return None

    def try_get(self) -> tuple:
        """Non-blocking get; returns ``(ok, item)``."""
        if not self._items:
            return False, None
        item = self._items.popleft()
        self.get_count += 1
        if self._putters:
            self._putters.pop(0).fire(None)
        return True, item

    def get(self) -> Generator:
        """Blocking get (a generator to ``yield from``); returns the item."""
        ok, item = self.try_get()
        if ok:
            return item
        event = Event(f"chan-get:{self.name}")
        self._getters.append(event)
        item = yield event
        self.get_count += 1
        return item

    def peek(self) -> Any:
        if not self._items:
            raise SimulationError(f"peek on empty channel {self.name!r}")
        return self._items[0]


class Mutex:
    """A FIFO mutex."""

    def __init__(self, name: str = ""):
        self.name = name
        self._locked = False
        self._waiters: List[Event] = []

    @property
    def locked(self) -> bool:
        return self._locked

    def acquire(self) -> Generator:
        if not self._locked:
            self._locked = True
            return
            yield  # pragma: no cover - makes this a generator
        event = Event(f"mutex:{self.name}")
        self._waiters.append(event)
        yield event

    def release(self) -> None:
        if not self._locked:
            raise SimulationError(f"release of unlocked mutex {self.name!r}")
        if self._waiters:
            self._waiters.pop(0).fire(None)
        else:
            self._locked = False


class CountingSemaphore:
    """A counting semaphore with FIFO wakeup order."""

    def __init__(self, initial: int, name: str = ""):
        if initial < 0:
            raise SimulationError("semaphore count must be non-negative")
        self.name = name
        self._count = initial
        self._waiters: List[Event] = []

    @property
    def count(self) -> int:
        return self._count

    def acquire(self) -> Generator:
        if self._count > 0:
            self._count -= 1
            return
            yield  # pragma: no cover - makes this a generator
        event = Event(f"sem:{self.name}")
        self._waiters.append(event)
        yield event

    def release(self) -> None:
        if self._waiters:
            self._waiters.pop(0).fire(None)
        else:
            self._count += 1
