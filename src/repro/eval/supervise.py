"""Worker supervision for the parallel campaign executor.

The pre-resilience executor handed chunks to a ``multiprocessing.Pool``
and waited: one SIGKILLed worker, wedged experiment, or poisoned build
threw away the whole campaign.  :class:`WorkerSupervisor` replaces the
pool with individually supervised worker processes:

* **per-item dispatch** — each worker holds at most one experiment tuple,
  so the parent always knows exactly which item a dead or stuck worker
  was running;
* **site affinity** — a free worker takes the next tuple of the site it
  last ran, else the first tuple of a site no other worker holds, else
  any eligible tuple (so the tail still balances).  A site's tuples share
  one faulty module and its generated code, so keeping them on one worker
  builds each once instead of once per worker;
* **crash detection** — a worker that dies (killed, segfaulted, OOMed)
  while holding an item is detected by liveness polling and end-of-file
  on its result pipe, respawned (a fresh fork inherits the warm build
  caches), and the item is retried;
* **per-experiment wall-clock budget** — an item still outstanding past
  ``exp_timeout_s`` gets its worker killed and is retried on a fresh one;
* **bounded retry with exponential backoff** — an item is retried at most
  ``retries`` times, each attempt delayed ``backoff_s * 2**(attempt-1)``
  seconds (failures are infrastructure-level and often transient);
* **quarantine** — when an item exhausts its retries, its *fault site* is
  quarantined: remaining experiments for that site are dropped, the
  campaign continues, and the decision is reported to the caller (the
  executor records it in the run manifest — degradation is never silent).

``run(items, inline=fn)`` is the same loop with one worker inside the
calling process: the same site queues, affinity, retry-to-front with
backoff, quarantine, ``on_result`` and ``cancel``, but no pipes, no fork
and no preemption, so the wall-clock budget is not enforced.

Transport is a pair of unidirectional pipes **per worker** — never a
shared ``multiprocessing.Queue``.  A shared queue serializes writers
through a cross-process semaphore, and a worker SIGKILLed while its
feeder thread holds that lock leaves it acquired forever, deadlocking
every surviving writer (the reason ``ProcessPoolExecutor`` declares the
whole pool broken on any abrupt worker death).  With one writer and one
reader per pipe there are no locks to orphan; when a worker dies the
parent drains the complete messages it managed to publish, discards the
torn tail, and gives the respawned worker **fresh pipes** so no state of
the dead incarnation can wedge the new one.

The supervisor is deliberately agnostic of what an item *is* beyond two
facts: items are hashable, and ``site_of(item)`` groups them into the
unit of quarantine.  A result message is ``(worker_id, item, ok,
payload)`` where ``payload`` is the computed value or a failure
description.  Duplicate results (a worker killed just after reporting,
its item already requeued) are tolerated and deduplicated — by the
executor's determinism guarantee both copies are identical.
"""

from __future__ import annotations

import logging
import os
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, Hashable, List, Optional, Sequence, Tuple

logger = logging.getLogger("repro.eval.supervise")

#: Liveness-poll heartbeat when no deadline is nearer (seconds).
HEARTBEAT_S = 0.1

#: Grace period for worker shutdown before escalating to SIGKILL.
SHUTDOWN_GRACE_S = 1.0


@dataclass
class SupervisionStats:
    """What the supervisor had to do to finish the campaign."""

    retries: int = 0
    worker_restarts: int = 0
    exp_timeouts: int = 0
    #: site key → (attempts, reason) for every quarantined site.
    quarantined: Dict[Hashable, Tuple[int, str]] = field(default_factory=dict)


class _Slot:
    """One supervised worker: process, its pipe ends, current item, and the
    site it last ran (kept across respawns)."""

    __slots__ = ("wid", "proc", "task_w", "result_r", "item", "deadline", "site")

    def __init__(self, wid: int):
        self.wid = wid
        self.proc = None
        self.task_w = None
        self.result_r = None
        self.item = None
        self.deadline: Optional[float] = None
        self.site = None


def serve(fn: Callable[[Hashable], object], wid: int, task_conn, result_conn) -> None:
    """Worker entry point: reply ``fn(item)`` to each item until told to stop.

    Receives one item at a time over its private task pipe (per-item
    dispatch is what lets the supervisor attribute a crash or hang to a
    specific item) and reports ``(wid, item, ok, payload)`` on its private
    result pipe; an exception is reported as a failure message rather than
    killing the worker, so the supervisor can decide between retry and
    quarantine.  ``None`` or EOF on the task pipe means shut down.
    """
    while True:
        try:
            item = task_conn.recv()
        except (EOFError, OSError):
            return
        if item is None:
            return
        try:
            payload = fn(item)
        except BaseException as exc:  # noqa: BLE001 — reported, not hidden
            try:
                result_conn.send((wid, item, False, _failure(exc)))
            except Exception:
                os._exit(1)
            continue
        result_conn.send((wid, item, True, payload))


def _failure(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


class WorkerSupervisor:
    """Runs items on supervised workers; survives crashes and hangs.

    ``worker_entry`` is a function ``(worker_id, task_conn, result_conn)
    -> None`` looping over ``task_conn.recv()`` until it receives ``None``
    (or EOF); it must ``result_conn.send((worker_id, item, ok, payload))``
    for every item — ``functools.partial(serve, fn)`` is one.  Workers are
    started from ``ctx`` (the ``fork`` method) so they inherit the caller's
    prepared (copy-on-write) build state; the in-process mode uses neither.
    """

    def __init__(
        self,
        ctx,
        worker_entry: Callable,
        n_workers: int,
        retries: int = 2,
        exp_timeout_s: float = 0.0,
        backoff_s: float = 0.05,
        site_of: Callable[[Hashable], Hashable] = lambda item: item,
        on_result: Optional[Callable[[Hashable, object], None]] = None,
        cancel=None,
    ):
        self.ctx = ctx
        self.worker_entry = worker_entry
        self.n_workers = max(1, n_workers)
        self.retries = max(0, retries)
        self.exp_timeout_s = max(0.0, exp_timeout_s)
        self.backoff_s = max(0.0, backoff_s)
        self.site_of = site_of
        self.on_result = on_result
        #: optional ``threading.Event``-alike; once set, no further items are
        #: dispatched and :meth:`run` returns the results finished so far
        #: (workers are shut down normally).  The campaign service sets it
        #: for prompt daemon shutdown with a batch in flight.
        self.cancel = cancel
        self.stats = SupervisionStats()

    # -- lifecycle ------------------------------------------------------

    def _start(self, slot: _Slot) -> None:
        """Give ``slot`` a fresh process and fresh pipes.

        The parent closes its copies of the child-side ends so that a
        dead worker reads as EOF on ``result_r`` instead of hanging.
        """
        task_r, task_w = self.ctx.Pipe(duplex=False)
        result_r, result_w = self.ctx.Pipe(duplex=False)
        proc = self.ctx.Process(
            target=self.worker_entry,
            args=(slot.wid, task_r, result_w),
            daemon=True,
        )
        proc.start()
        task_r.close()
        result_w.close()
        slot.proc = proc
        slot.task_w = task_w
        slot.result_r = result_r
        slot.item = None
        slot.deadline = None

    def _spawn(self, wid: int) -> _Slot:
        slot = _Slot(wid)
        self._start(slot)
        return slot

    def _close_slot_conns(self, slot: _Slot) -> None:
        for conn in (slot.task_w, slot.result_r):
            if conn is not None:
                try:
                    conn.close()
                except OSError:
                    pass

    # -- the supervision loop ------------------------------------------

    def run(
        self,
        items: Sequence[Hashable],
        inline: Optional[Callable[[Hashable], object]] = None,
    ) -> Dict[Hashable, object]:
        """Execute ``items``; returns ``{item: payload}`` for survivors.

        Items whose site was quarantined are absent from the result (some
        may still be present if they completed before the quarantine
        decision; the caller filters by ``stats.quarantined``).  With
        ``inline``, each item's payload is ``inline(item)``, computed in
        the calling thread (see :meth:`_run_inline`).
        """
        #: site → its pending items in dispatch order (sites in order of
        #: first appearance; a site leaves when its queue empties).
        #: Retries go to the front of their site's queue.
        self._queues: Dict[Hashable, Deque[Hashable]] = {}
        for item in items:
            self._queues.setdefault(self.site_of(item), deque()).append(item)
        #: queued retries → when their backoff ends.
        self._retry_at: Dict[Hashable, float] = {}
        self._attempts: Dict[Hashable, int] = {}
        self._results: Dict[Hashable, object] = {}
        if inline is not None:
            return self._run_inline(inline)
        from multiprocessing.connection import wait  # the forked loop only

        self._slots: List[_Slot] = [
            self._spawn(wid) for wid in range(self.n_workers)
        ]
        try:
            while self._queues or any(s.item is not None for s in self._slots):
                if self._cancelled():
                    break
                self._dispatch()
                ready = wait(
                    [s.result_r for s in self._slots],
                    timeout=self._next_wait(),
                )
                for conn in ready:
                    slot = next(
                        (s for s in self._slots if s.result_r is conn), None
                    )
                    if slot is None:
                        continue  # conn replaced while iterating
                    try:
                        msg = conn.recv()
                    except (EOFError, OSError):
                        self._worker_died(slot, "worker died")
                        continue
                    self._handle(msg)
                if not ready:
                    self._check_workers()
            return self._results
        finally:
            self._shutdown()

    def _run_inline(self, fn: Callable[[Hashable], object]) -> Dict[Hashable, object]:
        """One worker in the calling thread, one item at a time.

        Nothing can preempt an item without a process boundary, so
        ``exp_timeout_s`` is not enforced.  Only ``Exception`` counts as an
        item failure: ``KeyboardInterrupt`` still stops the campaign.  While
        every pending item waits out its backoff the loop sleeps at most
        :data:`HEARTBEAT_S` at a time, so ``cancel`` is still polled.
        """
        slot = _Slot(0)
        self._slots = [slot]
        while self._queues and not self._cancelled():
            item = self._take(slot, time.monotonic())
            if item is None:
                time.sleep(self._next_wait())
                continue
            slot.item = item
            try:
                msg = (slot.wid, item, True, fn(item))
            except Exception as exc:
                msg = (slot.wid, item, False, _failure(exc))
            self._handle(msg)
        return self._results

    def _cancelled(self) -> bool:
        return self.cancel is not None and self.cancel.is_set()

    def _handle(self, msg) -> None:
        wid, item, ok, payload = msg
        slot = self._slots[wid] if wid < len(self._slots) else None
        current = slot is not None and slot.item == item
        if current:
            slot.item = None
            slot.deadline = None
        if ok:
            if item not in self._results:
                self._results[item] = payload
                if self.on_result is not None:
                    self.on_result(item, payload)
            # the item may have been requeued by a premature
            # timeout/death verdict; drop the stale retry.
            self._drop_pending(item)
        elif current or not self._is_tracked(item):
            # count the failure unless it is a stale duplicate of an
            # item already completed or already scheduled for retry.
            self._failed(item, str(payload))

    def _worker_died(self, slot: _Slot, reason: str) -> None:
        """A worker is gone: salvage its published results, respawn it on
        fresh pipes, and retry whatever it was holding."""
        code = slot.proc.exitcode
        self.stats.worker_restarts += 1
        for msg in self._drain(slot.result_r):
            self._handle(msg)
        failed_item = slot.item  # None if its result was in the drain
        self._close_slot_conns(slot)
        if slot.proc.is_alive():
            slot.proc.kill()
        slot.proc.join(SHUTDOWN_GRACE_S)
        self._start(slot)
        if failed_item is not None:
            self._failed(failed_item, f"{reason} (exitcode {code})")

    @staticmethod
    def _drain(conn) -> List:
        """Complete messages a dead worker managed to publish; a torn
        trailing message (killed mid-send) is discarded."""
        msgs = []
        while True:
            try:
                if not conn.poll(0):
                    return msgs
                msgs.append(conn.recv())
            except (EOFError, OSError):
                return msgs

    def _dispatch(self) -> None:
        if self._cancelled():
            return
        now = time.monotonic()
        for slot in self._slots:
            if slot.item is not None or not self._queues:
                continue
            if not slot.proc.is_alive():
                # died idle (e.g. killed between items): salvage + respawn.
                self._worker_died(slot, "worker died idle")
                if slot.item is not None or not self._queues:
                    continue
            item = self._take(slot, now)
            if item is None:
                continue
            slot.item = item
            slot.deadline = (
                now + self.exp_timeout_s if self.exp_timeout_s > 0 else None
            )
            try:
                slot.task_w.send(item)
            except (BrokenPipeError, OSError):
                self._worker_died(slot, "worker died before receiving work")

    def _take(self, slot: _Slot, now: float) -> Optional[Hashable]:
        """Dequeue the item ``slot`` runs next (None: nothing is eligible).

        In order: the next tuple of the site the slot last ran; else the
        first tuple of a site no other worker holds; else the first
        eligible tuple of any site.  Only sites whose items are all in
        retry backoff and the ≤ ``n_workers - 1`` sites other workers hold
        are passed over, so the cost does not grow with the pending count.
        """
        site, index = slot.site, None
        if site in self._queues:
            index = self._first_ready(self._queues[site], now)
        if index is None:
            held = {s.site for s in self._slots if s is not slot}
            site = None
            for candidate, queue in self._queues.items():
                i = self._first_ready(queue, now)
                if i is None:
                    continue
                if candidate not in held:
                    site, index = candidate, i
                    break
                if site is None:  # the fallback, unless an unheld site follows
                    site, index = candidate, i
            if site is None:
                return None
        queue = self._queues[site]
        item = queue[index]
        del queue[index]
        if not queue:
            del self._queues[site]
        self._retry_at.pop(item, None)
        slot.site = site
        return item

    def _first_ready(self, queue: Deque[Hashable], now: float) -> Optional[int]:
        """Index of the first item past its backoff.  Retries sit at the
        front of a queue, so this looks at most one item past them."""
        for i, item in enumerate(queue):
            if self._retry_at.get(item, 0.0) <= now:
                return i
        return None

    def _next_wait(self) -> float:
        now = time.monotonic()
        wait = HEARTBEAT_S
        for slot in self._slots:
            if slot.deadline is not None:
                wait = min(wait, max(slot.deadline - now, 0.005))
        for not_before in self._retry_at.values():
            if not_before > now:
                wait = min(wait, max(not_before - now, 0.005))
        return wait

    def _check_workers(self) -> None:
        now = time.monotonic()
        for slot in self._slots:
            if not slot.proc.is_alive():
                self._worker_died(slot, "worker died")
            elif (
                slot.item is not None
                and slot.deadline is not None
                and now > slot.deadline
            ):
                self.stats.exp_timeouts += 1
                slot.proc.kill()
                slot.proc.join(SHUTDOWN_GRACE_S)
                self._worker_died(
                    slot,
                    f"experiment exceeded {self.exp_timeout_s:g}s wall budget",
                )

    def _failed(self, item: Hashable, reason: str) -> None:
        site = self.site_of(item)
        if site in self.stats.quarantined:
            return  # a sibling already condemned this site
        n = self._attempts[item] = self._attempts.get(item, 0) + 1
        if n > self.retries:
            logger.warning(
                "quarantining site %r after %d failed attempt(s): %s",
                site,
                n,
                reason,
            )
            self.stats.quarantined[site] = (n, reason)
            for queued in self._queues.pop(site, ()):
                self._retry_at.pop(queued, None)
            return
        self.stats.retries += 1
        delay = self.backoff_s * (2 ** (n - 1))
        logger.warning(
            "retrying %r (attempt %d/%d) in %.2fs: %s",
            item,
            n + 1,
            self.retries + 1,
            delay,
            reason,
        )
        self._retry_at[item] = time.monotonic() + delay
        self._queues.setdefault(site, deque()).appendleft(item)

    def _is_tracked(self, item: Hashable) -> bool:
        # an item can only be queued again as a retry.
        return item in self._results or item in self._retry_at

    def _drop_pending(self, item: Hashable) -> None:
        if self._retry_at.pop(item, None) is None:
            return
        site = self.site_of(item)
        queue = self._queues[site]
        queue.remove(item)
        if not queue:
            del self._queues[site]

    def _shutdown(self) -> None:
        for slot in self._slots:
            try:
                slot.task_w.send(None)
            except (BrokenPipeError, OSError, ValueError):
                pass
        deadline = time.monotonic() + SHUTDOWN_GRACE_S
        for slot in self._slots:
            slot.proc.join(max(deadline - time.monotonic(), 0.05))
            if slot.proc.is_alive():
                slot.proc.kill()
                slot.proc.join(SHUTDOWN_GRACE_S)
            self._close_slot_conns(slot)
