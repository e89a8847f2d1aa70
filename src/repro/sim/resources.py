"""Shared-resource primitives built on the event engine.

These follow SimPy's request/release model but are intentionally small:
only what the hardware and protocol models need.

* :class:`Resource` — a counted semaphore (disk arms, CPU slots, server
  worker threads).
* :class:`Store` — an unbounded-or-bounded FIFO of objects (request
  queues, NIC rings, the background-copy FIFO between retriever and
  writer threads).
* :class:`PriorityStore` — a store that yields the lowest-priority item
  first.
"""

from __future__ import annotations

import heapq
from itertools import count

from repro.sim.events import Event, Notifier


class Request(Event):
    """Pending acquisition of a :class:`Resource` slot.

    Usable as a context manager so that ``with resource.request() as req:``
    always releases.
    """

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource", queue: bool = True):
        super().__init__(resource.env)
        self.resource = resource
        if queue:
            resource._do_request(self)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        self.resource.release(self)
        return False


class Resource:
    """A resource with ``capacity`` identical slots."""

    def __init__(self, env, capacity: int = 1):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.env = env
        self.capacity = capacity
        self.users: list[Request] = []
        self.queue: list[Request] = []
        self._contended: Notifier | None = None

    @property
    def contended(self) -> Notifier:
        """Notified whenever a request has to queue.

        How a holder that planned a long hold learns it must give the
        slot up early.  Created on first use, so a resource nobody
        watches pays nothing.
        """
        notifier = self._contended
        if notifier is None:
            notifier = self._contended = Notifier(self.env)
        return notifier

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self.users)

    def request(self) -> Request:
        """Request a slot; the returned event fires once granted."""
        return Request(self)

    def take(self, request: Request | None = None) -> Request | None:
        """A slot granted in place when one is free, or None.

        Unlike :meth:`request` no grant event is scheduled: the holder
        carries on in the same step.  ``request`` (made with
        ``queue=False``) is recorded as the holder; a plain
        :class:`Request` by default.  Release it as any other grant.
        """
        if len(self.users) >= self.capacity:
            return None
        if request is None:
            request = Request(self, queue=False)
        self.users.append(request)
        return request

    def acquire(self, request: Request) -> bool:
        """Take or ask for a slot with ``request`` (made with
        ``queue=False``).

        True when it is granted in place, with no grant event: a slot is
        free and nothing else is due at this instant
        (``Environment.settled``), so that event would have been the
        next one anyway.  Otherwise False, and ``request`` fires once
        granted, as one from :meth:`request` does.
        """
        if self.env.settled and self.take(request) is not None:
            return True
        self._do_request(request)
        return False

    def release(self, request: Request) -> None:
        """Release a previously granted slot (no-op if not held)."""
        if request in self.users:
            self.users.remove(request)
            self._grant_waiters()
        elif request in self.queue and not request.triggered:
            # Cancelled before being granted.
            self.queue.remove(request)

    def _do_request(self, request: Request) -> None:
        if len(self.users) < self.capacity:
            self.users.append(request)
            request.succeed()
        else:
            self.queue.append(request)
            if self._contended is not None:
                self._contended.notify()

    def _grant_waiters(self) -> None:
        while self.queue and len(self.users) < self.capacity:
            waiter = self.queue.pop(0)
            self.users.append(waiter)
            waiter.succeed()


class StorePut(Event):
    __slots__ = ("item",)

    def __init__(self, store: "Store", item):
        super().__init__(store.env)
        self.item = item
        store._do_put(self)


class StoreGet(Event):
    __slots__ = ()

    def __init__(self, store: "Store"):
        super().__init__(store.env)
        store._do_get(self)


class Store:
    """FIFO store of items with optional capacity bound.

    ``put(item)`` returns an event that fires once the item is accepted
    (immediately unless the store is full).  ``get()`` returns an event
    that fires with the oldest item once one is available.
    """

    def __init__(self, env, capacity: float = float("inf")):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.env = env
        self.capacity = capacity
        self.items: list = []
        self._putters: list[StorePut] = []
        self._getters: list[StoreGet] = []

    def __len__(self) -> int:
        return len(self.items)

    @property
    def is_empty(self) -> bool:
        return not self.items

    @property
    def is_full(self) -> bool:
        return len(self.items) >= self.capacity

    def put(self, item) -> StorePut:
        return StorePut(self, item)

    def get(self) -> StoreGet:
        return StoreGet(self)

    def try_put(self, item) -> bool:
        """Non-blocking put: True once ``item`` is accepted in place, with
        no put event; False, and nothing done, when the store is full.
        FIFO stores only: a :class:`PriorityStore` takes items through
        :meth:`PriorityStore.put_with_priority`."""
        if self.is_full:
            return False
        self.items.append(item)
        self._serve_getters()
        return True

    def try_get(self):
        """Non-blocking pop: the oldest item or ``None`` if empty."""
        if self.items:
            item = self.items.pop(0)
            self._admit_putters()
            return item
        return None

    def peek(self):
        """The oldest item without removing it, or ``None``."""
        return self.items[0] if self.items else None

    def _do_put(self, event: StorePut) -> None:
        if len(self.items) < self.capacity:
            self.items.append(event.item)
            event.succeed()
            self._serve_getters()
        else:
            self._putters.append(event)

    def _do_get(self, event: StoreGet) -> None:
        if self.items:
            event.succeed(self.items.pop(0))
            self._admit_putters()
        else:
            self._getters.append(event)

    def _serve_getters(self) -> None:
        while self._getters and self.items:
            getter = self._getters.pop(0)
            getter.succeed(self.items.pop(0))
        self._admit_putters()

    def _admit_putters(self) -> None:
        while self._putters and len(self.items) < self.capacity:
            putter = self._putters.pop(0)
            self.items.append(putter.item)
            putter.succeed()
            # A newly admitted item may satisfy a waiting getter.
            while self._getters and self.items:
                getter = self._getters.pop(0)
                getter.succeed(self.items.pop(0))


class PriorityStore(Store):
    """A store yielding items in priority order (lowest first).

    Items are compared by the ``(priority, insertion index)`` pair, so
    equal priorities remain FIFO and items never need to be comparable.
    """

    def __init__(self, env, capacity: float = float("inf")):
        super().__init__(env, capacity)
        self._counter = count()
        self._heap: list = []

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def is_empty(self) -> bool:
        return not self._heap

    @property
    def is_full(self) -> bool:
        return len(self._heap) >= self.capacity

    def put_with_priority(self, priority, item) -> StorePut:
        event = StorePut.__new__(StorePut)
        Event.__init__(event, self.env)
        event.item = (priority, item)
        self._do_put(event)
        return event

    def put(self, item) -> StorePut:
        """Put with default priority 0."""
        return self.put_with_priority(0, item)

    def try_get(self):
        if self._heap:
            _, _, item = heapq.heappop(self._heap)
            self._admit_putters()
            return item
        return None

    def peek(self):
        return self._heap[0][2] if self._heap else None

    def _do_put(self, event: StorePut) -> None:
        priority, item = event.item
        if len(self._heap) < self.capacity:
            heapq.heappush(self._heap, (priority, next(self._counter), item))
            event.succeed()
            self._serve_getters()
        else:
            self._putters.append(event)

    def _do_get(self, event: StoreGet) -> None:
        if self._heap:
            _, _, item = heapq.heappop(self._heap)
            event.succeed(item)
            self._admit_putters()
        else:
            self._getters.append(event)

    def _serve_getters(self) -> None:
        while self._getters and self._heap:
            getter = self._getters.pop(0)
            _, _, item = heapq.heappop(self._heap)
            getter.succeed(item)
        self._admit_putters()

    def _admit_putters(self) -> None:
        while self._putters and len(self._heap) < self.capacity:
            putter = self._putters.pop(0)
            priority, item = putter.item
            heapq.heappush(self._heap, (priority, next(self._counter), item))
            putter.succeed()
            while self._getters and self._heap:
                getter = self._getters.pop(0)
                _, _, item = heapq.heappop(self._heap)
                getter.succeed(item)
