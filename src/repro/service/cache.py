"""Two-tier result cache keyed by request fingerprint.

Tier 1 is an in-memory LRU of :class:`RiskAssessment` objects; tier 2 is
an optional on-disk store of one JSON file per fingerprint, written with
the :mod:`repro.io` round-trip so cached decisions double as auditable
artifacts.  Disk entries carry :data:`repro.io.SCHEMA_VERSION`; a file
written by an older (or newer) format is discarded on read instead of
being deserialized into the wrong shape.

Durability and concurrency guarantees (see ``docs/service.md``,
"Failure semantics"):

* **Atomic disk writes** — entries are written to a same-directory temp
  file and moved into place with ``os.replace``; a reader (or a process
  restarted after a crash) can never observe a truncated artifact.
  Orphan ``*.tmp`` files left by a crash are swept — and counted as
  ``invalidated`` — the next time a cache opens the directory.
* **Single-flight lookups** — :meth:`get_or_compute` is the one
  lookup-and-compute path.  Without a budget it deduplicates concurrent
  requests for the same fingerprint: one thread computes (or reads
  disk), the rest wait on the in-flight result instead of racing
  through the memory-miss / disk-read gap.  A call with a
  :class:`~repro.budget.ComputeBudget` skips that flight (it must not
  inherit another request's deadline) and stores its answer only when
  :func:`_cacheable` holds.  :meth:`get` is a plain probe that never
  joins a flight.
* **Transient-read tolerance** — an ``OSError`` while reading the disk
  tier is a miss (counted in ``read_errors``), not a reason to delete
  the artifact; only structurally invalid entries are invalidated.
* **Cross-process single-flight** — with ``shared=True`` several replica
  processes can mount one directory: a cold fingerprint is computed by
  exactly one of them (whoever wins the ``<fingerprint>.lease`` file,
  see :mod:`repro.service.lease`), the rest poll the artifact path with
  backoff bounded by their own request deadline and count the artifact
  as ``coalesced`` when it lands.  A replica that dies mid-compute
  leaves a lease whose heartbeat goes quiet; waiters take it over once
  it is stale.
* **Commit log** — in shared mode every durably written artifact also
  appends one line (``<fingerprint> <pid>``) to ``commits.log`` in the
  cache directory, strictly *after* the atomic rename.  The chaos
  verifier proves "exactly one cold compute per fingerprint" from this
  log: a duplicate fingerprint is always a real single-flight violation,
  while a kill between rename and append merely leaves an artifact
  without a log line (benign).
"""

from __future__ import annotations

import os
import threading
import time
from collections import OrderedDict
from pathlib import Path
from typing import Callable, Union

from repro.budget import ComputeBudget
from repro.errors import FormatError, ReproError
from repro.io import (
    SCHEMA_VERSION,
    assessment_from_json,
    assessment_to_json,
    load_json,
    save_json_atomic,
)
from repro.recipe.assess import RiskAssessment
from repro.service.faults import fault_point
from repro.service.lease import (
    DEFAULT_STALE_AFTER,
    Lease,
    LeaseState,
    acquire_lease,
    lease_state,
    sweep_stale_leases,
    take_over,
)

__all__ = ["AssessmentCache", "COMMIT_LOG_NAME"]

PathLike = Union[str, Path]

#: Name of the shared tier's append-only compute commit log.
COMMIT_LOG_NAME = "commits.log"

def _cacheable(assessment: RiskAssessment, budget: ComputeBudget | None) -> bool:
    """Whether a computed answer may enter the cache.

    A budget-free answer always does.  A partial answer never does; nor
    does one whose budget ran out: the exact and attack stages drop
    their result on exhaustion and the recipe still answers, without an
    enrichment a budget-free run reports.
    """
    if budget is None:
        return True
    return not (assessment.partial or budget.expired() or budget.cancelled())


class _Flight:
    """One in-flight lookup/computation other threads can wait on."""

    __slots__ = ("event", "value", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.value: RiskAssessment | None = None
        self.error: BaseException | None = None


class AssessmentCache:
    """LRU memory cache with optional JSON disk persistence.

    Parameters
    ----------
    capacity:
        Maximum number of assessments held in memory; the least recently
        used entry is evicted first.
    directory:
        When given, every ``put`` also writes ``<fingerprint>.json``
        under it, and a memory miss falls through to disk — so a fresh
        process warm-starts from earlier runs.
    shared:
        Treat *directory* as a shared tier mounted by several replica
        processes: cold computations are single-flighted **across
        processes** through ``<fingerprint>.lease`` files (requires
        *directory*).
    lease_stale_seconds:
        How long a lease may go without a heartbeat before waiters
        consider its owner dead and take over (shared mode only).
    """

    def __init__(
        self,
        capacity: int = 256,
        directory: PathLike | None = None,
        shared: bool = False,
        lease_stale_seconds: float = DEFAULT_STALE_AFTER,
    ) -> None:
        if capacity < 1:
            raise ReproError(f"cache capacity must be >= 1, got {capacity}")
        if shared and directory is None:
            raise ReproError("a shared cache tier needs a directory to share")
        if lease_stale_seconds <= 0:
            raise ReproError(
                f"lease_stale_seconds must be > 0, got {lease_stale_seconds}"
            )
        self.capacity = int(capacity)
        self.directory = None if directory is None else Path(directory)
        self.shared = bool(shared)
        self.lease_stale_seconds = float(lease_stale_seconds)
        self._lock = threading.Lock()
        # Serializes disk mutations (atomic writes vs. clear's unlinks),
        # separate from _lock so slow I/O never blocks memory lookups.
        self._disk_lock = threading.Lock()
        self._flights: dict[str, _Flight] = {}
        self._memory: OrderedDict[str, RiskAssessment] = OrderedDict()
        self._stats = {
            "hits": 0,
            "misses": 0,
            "memory_hits": 0,
            "disk_hits": 0,
            "coalesced": 0,
            "evictions": 0,
            "invalidated": 0,
            "read_errors": 0,
            "write_errors": 0,
            "lease_acquired": 0,
            "lease_coalesced": 0,
            "lease_takeovers": 0,
            "lease_timeouts": 0,
            "stale_leases_swept": 0,
            "disk_commits": 0,
        }
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
            self.recover_orphans()

    # -- lookup -----------------------------------------------------------

    def get(self, fingerprint: str) -> RiskAssessment | None:
        """The cached assessment for *fingerprint*, or ``None`` on a miss.

        A plain memory-then-disk probe: it never waits on or joins a
        compute another thread has in flight.
        """
        with self._lock:
            assessment = self._memory_hit(fingerprint)
        if assessment is None:
            assessment = self._disk_hit(fingerprint)
        if assessment is None:
            with self._lock:
                self._stats["misses"] += 1
        return assessment

    def get_or_compute(
        self,
        fingerprint: str,
        compute: Callable[[], RiskAssessment],
        budget: ComputeBudget | None = None,
    ) -> tuple[RiskAssessment, str]:
        """Return the cached value or compute-and-insert it.

        Without a *budget* the lookup is single-flight: exactly one
        thread reads disk or runs *compute* per in-flight fingerprint,
        and concurrent callers block and share the leader's result (or
        its exception — the request is deterministic, so theirs would
        have failed identically).

        With a *budget* — any budget, deadline or not — the in-process
        flight is skipped (sharing another request's computation would
        mean inheriting someone else's deadline), the wait for another
        replica's lease is bounded by ``budget.remaining_seconds()``,
        and a computed answer is stored only when :func:`_cacheable`
        holds.

        With ``shared=True`` cold computes are single-flighted across
        replica processes through the lease protocol.  Returns
        ``(assessment, origin)`` with *origin* one of ``"memory"``,
        ``"disk"``, ``"coalesced"`` or ``"computed"``.
        """
        leading: _Flight | None = None
        following: _Flight | None = None
        with self._lock:
            cached = self._memory_hit(fingerprint)
            if cached is not None:
                return cached, "memory"
            if budget is None:
                following = self._flights.get(fingerprint)
                if following is None:
                    leading = self._flights[fingerprint] = _Flight()
        if following is not None:
            following.event.wait()
            if following.error is not None:
                raise following.error
            assert following.value is not None  # a leader that returned set it
            with self._lock:
                self._stats["hits"] += 1
                self._stats["coalesced"] += 1
            return following.value, "coalesced"
        if leading is None:
            return self._fill(fingerprint, compute, budget)
        try:
            assessment, origin = self._fill(fingerprint, compute, None)
            leading.value = assessment
            return assessment, origin
        except BaseException as exc:
            leading.error = exc
            raise
        finally:
            with self._lock:
                self._flights.pop(fingerprint, None)
            leading.event.set()

    def put(self, fingerprint: str, assessment: RiskAssessment) -> None:
        """Insert (or refresh) an assessment under *fingerprint*.

        The disk write is atomic (temp file + ``os.replace``); an
        ``OSError`` there is tolerated — the entry stays served from
        memory and ``write_errors`` is incremented.
        """
        with self._lock:
            self._store_memory(fingerprint, assessment)
        self._write_disk(fingerprint, assessment)

    def __contains__(self, fingerprint: str) -> bool:
        """True when either tier holds *fingerprint*.

        Consults the disk tier too (a plain existence probe — a corrupt
        entry may report ``True`` until a ``get`` invalidates it), so
        callers never re-run an assessment that is already persisted.
        """
        with self._lock:
            if fingerprint in self._memory:
                return True
        if self.directory is None:
            return False
        return self._path(fingerprint).exists()

    def __len__(self) -> int:
        with self._lock:
            return len(self._memory)

    # -- management -------------------------------------------------------

    def stats(self) -> dict[str, object]:
        """Hit/miss/eviction counters plus current size and capacity."""
        with self._lock:
            return dict(
                self._stats,
                size=len(self._memory),
                in_flight=len(self._flights),
                capacity=self.capacity,
                persistent=self.directory is not None,
            )

    def clear(self, disk: bool = False) -> None:
        """Empty the memory tier (and, with ``disk=True``, the disk tier).

        Also resets the hit/miss counters, so ``/metrics`` ratios after a
        clear describe the cleared cache rather than its previous life.
        Disk unlinks hold the same lock as writers, so a concurrent
        ``put`` either completes before the sweep (and is removed) or
        lands intact after it — never a torn state or an orphan temp
        file.
        """
        with self._lock:
            self._memory.clear()
            for key in self._stats:
                self._stats[key] = 0
        if disk and self.directory is not None:
            with self._disk_lock:
                for pattern in ("*.json", "*.tmp", "*.lease"):
                    for path in self.directory.glob(pattern):
                        path.unlink(missing_ok=True)
                self._commit_log_path().unlink(missing_ok=True)

    def recover_orphans(self) -> int:
        """Sweep crash leftovers in the directory; returns the count.

        Runs automatically when a cache opens its directory.  Two kinds
        of debris are removed: ``*.tmp`` files (writes that never
        committed — counted as ``invalidated``) and stale ``*.lease``
        files (crashed replicas — counted as ``stale_leases_swept``), so
        the first cold miss of a fresh process never waits out a dead
        owner's staleness window.
        """
        if self.directory is None:
            return 0
        removed = 0
        with self._disk_lock:
            for path in self.directory.glob("*.tmp"):
                path.unlink(missing_ok=True)
                removed += 1
            swept = sweep_stale_leases(self.directory, self.lease_stale_seconds)
        with self._lock:
            if removed:
                self._stats["invalidated"] += removed
            if swept:
                self._stats["stale_leases_swept"] += swept
        return removed + swept

    # -- internals --------------------------------------------------------

    def _memory_hit(self, fingerprint: str) -> RiskAssessment | None:
        """Memory-tier probe, counted as a hit when found; caller holds ``_lock``."""
        cached = self._memory.get(fingerprint)
        if cached is not None:
            self._memory.move_to_end(fingerprint)
            self._stats["hits"] += 1
            self._stats["memory_hits"] += 1
        return cached

    def _disk_hit(self, fingerprint: str) -> RiskAssessment | None:
        """Disk-tier probe, promoted to memory and counted when found."""
        assessment = self._read_disk(fingerprint)
        if assessment is not None:
            with self._lock:
                self._stats["hits"] += 1
                self._stats["disk_hits"] += 1
                self._store_memory(fingerprint, assessment)
        return assessment

    def _fill(
        self,
        fingerprint: str,
        compute: Callable[[], RiskAssessment],
        budget: ComputeBudget | None,
    ) -> tuple[RiskAssessment, str]:
        """Answer a memory miss from disk, another replica, or *compute*."""
        assessment = self._disk_hit(fingerprint)
        if assessment is not None:
            return assessment, "disk"
        if self.shared:
            return self._shared_compute(fingerprint, compute, budget)
        return self._compute_and_store(fingerprint, compute, budget), "computed"

    def _compute_and_store(
        self,
        fingerprint: str,
        compute: Callable[[], RiskAssessment],
        budget: ComputeBudget | None,
    ) -> RiskAssessment:
        """Count one miss, run *compute*, and store what may be cached."""
        with self._lock:
            self._stats["misses"] += 1
        assessment = compute()
        if _cacheable(assessment, budget):
            with self._lock:
                self._store_memory(fingerprint, assessment)
            self._write_disk(fingerprint, assessment)
        return assessment

    def _store_memory(self, fingerprint: str, assessment: RiskAssessment) -> None:
        self._memory[fingerprint] = assessment
        self._memory.move_to_end(fingerprint)
        while len(self._memory) > self.capacity:
            self._memory.popitem(last=False)
            self._stats["evictions"] += 1

    # -- cross-process single-flight (shared tier) ------------------------

    def _shared_compute(
        self,
        fingerprint: str,
        compute: Callable[[], RiskAssessment],
        budget: ComputeBudget | None,
    ) -> tuple[RiskAssessment, str]:
        """Lease-coordinated cold-path compute against the shared tier.

        Loop: poll the artifact (another replica may have finished),
        race for the lease, classify a held lease (live waiters back
        off; stale leases are taken over).  *budget*'s remaining time
        bounds how long a waiter backs off; past it the request computes
        locally, because answering late is worse than occasionally
        answering twice.  A withheld (uncacheable) answer simply lets
        the next waiter take the lease and try with its own budget.
        """
        lease_path = self._lease_path(fingerprint)
        delay = 0.004
        first = True
        while True:
            if not first:
                assessment = self._coalesce_from_disk(fingerprint)
                if assessment is not None:
                    return assessment, "coalesced"
            first = False
            lease = acquire_lease(lease_path)
            if lease is None:
                state = lease_state(lease_path, self.lease_stale_seconds)
                if state.kind == LeaseState.STALE:
                    lease = take_over(lease_path, self.lease_stale_seconds)
                    if lease is not None:
                        with self._lock:
                            self._stats["lease_takeovers"] += 1
                elif state.kind == LeaseState.HELD:
                    remaining = None if budget is None else budget.remaining_seconds()
                    if remaining is not None and remaining <= 0:
                        with self._lock:
                            self._stats["lease_timeouts"] += 1
                        assessment = self._compute_and_store(fingerprint, compute, budget)
                        return assessment, "computed"
                    time.sleep(delay if remaining is None else min(delay, remaining))
                    delay = min(delay * 2, 0.05)
                    continue
                # MISSING (owner released between our acquire attempt and
                # the stat) — loop around: the artifact is probably there.
            if lease is not None:
                # Another replica may have committed and released between
                # our last disk read and this lease: check once more
                # before computing, or the fleet computes it twice.
                assessment = self._coalesce_from_disk(fingerprint)
                if assessment is not None:
                    lease.release()
                    return assessment, "coalesced"
                with self._lock:
                    self._stats["lease_acquired"] += 1
                return self._compute_with_lease(fingerprint, compute, lease, budget)

    def _coalesce_from_disk(self, fingerprint: str) -> RiskAssessment | None:
        """Serve another replica's committed artifact, if it is there."""
        assessment = self._read_disk(fingerprint)
        if assessment is not None:
            with self._lock:
                self._stats["hits"] += 1
                self._stats["coalesced"] += 1
                self._stats["lease_coalesced"] += 1
                self._store_memory(fingerprint, assessment)
        return assessment

    def _compute_with_lease(
        self,
        fingerprint: str,
        compute: Callable[[], RiskAssessment],
        lease: Lease,
        budget: ComputeBudget | None,
    ) -> tuple[RiskAssessment, str]:
        """Compute and store while heartbeating the held *lease*.

        The artifact is durably written **before** the lease is
        released, so a waiter that observes a missing lease finds the
        artifact on its next poll.  An ordinary exception releases the
        lease (the computation is deterministic — a waiter retrying it
        will fail identically, but it must be free to try); an injected
        crash or any other ``BaseException`` leaves the lease behind,
        heartbeat silenced, exactly like a killed process, and recovery
        happens through stale takeover.
        """
        lease.start_heartbeat(max(0.05, self.lease_stale_seconds / 4.0))
        try:
            assessment = self._compute_and_store(fingerprint, compute, budget)
        except BaseException as exc:
            lease.stop_heartbeat()
            if isinstance(exc, Exception):
                lease.release()
            raise
        lease.release()
        return assessment, "computed"

    def _lease_path(self, fingerprint: str) -> Path:
        assert self.directory is not None  # shared mode requires a directory
        return self.directory / f"{fingerprint}.lease"

    def _path(self, fingerprint: str) -> Path:
        return self.directory / f"{fingerprint}.json"

    def _write_disk(self, fingerprint: str, assessment: RiskAssessment) -> bool:
        if self.directory is None:
            return False
        payload = {
            "type": "cached_assessment",
            "schema_version": SCHEMA_VERSION,
            "fingerprint": fingerprint,
            "assessment": assessment_to_json(assessment),
        }
        try:
            with self._disk_lock:
                save_json_atomic(
                    payload,
                    self._path(fingerprint),
                    fault_point=lambda stage, tmp: fault_point(
                        f"cache.write.{stage}", path=tmp
                    ),
                )
        except OSError:
            # The memory tier still serves this entry; a flaky disk must
            # not take the request down.
            with self._lock:
                self._stats["write_errors"] += 1
            return False
        if self.shared:
            self._log_commit(fingerprint)
        return True

    def _commit_log_path(self) -> Path:
        assert self.directory is not None  # shared mode requires a directory
        return self.directory / COMMIT_LOG_NAME

    def _log_commit(self, fingerprint: str) -> None:
        """Durably record that this process committed *fingerprint*.

        One ``O_APPEND`` line (``<fingerprint> <pid>``, well under
        ``PIPE_BUF`` so the append is atomic) written only **after**
        :func:`save_json_atomic` returned.  The ordering is the whole
        point: a log entry implies the artifact was already on disk, so
        any later cold path would have found it — a fingerprint
        appearing twice therefore means two processes both computed and
        both committed, a genuine single-flight violation.  The converse
        crash window (artifact written, process killed before the
        append) leaves an artifact without a log line, which is benign.
        The chaos verifier (:mod:`repro.service.verify`) reads this log
        post-mortem.
        """
        line = f"{fingerprint} {os.getpid()}\n".encode("ascii")
        try:
            fd = os.open(
                self._commit_log_path(),
                os.O_WRONLY | os.O_CREAT | os.O_APPEND,
                0o644,
            )
            try:
                os.write(fd, line)
            finally:
                os.close(fd)
        except OSError:
            with self._lock:
                self._stats["write_errors"] += 1
            return
        with self._lock:
            self._stats["disk_commits"] += 1

    def _read_disk(self, fingerprint: str) -> RiskAssessment | None:
        if self.directory is None:
            return None
        path = self._path(fingerprint)
        try:
            fault_point("cache.read")
            payload = load_json(path)
        except FileNotFoundError:
            return None
        except OSError:
            # Transient I/O failure: a miss, but never grounds to delete
            # a (possibly fine) persisted decision.
            with self._lock:
                self._stats["read_errors"] += 1
            return None
        except FormatError:
            return self._invalidate(path)
        try:
            if payload.get("type") != "cached_assessment":
                raise FormatError("not a cached assessment")
            version = payload.get("schema_version")
            if version != SCHEMA_VERSION:
                raise FormatError(f"schema version {version} != {SCHEMA_VERSION}")
            if payload.get("fingerprint") != fingerprint:
                raise FormatError("fingerprint mismatch")
            return assessment_from_json(payload["assessment"])
        except (ReproError, KeyError, TypeError, ValueError):
            # A stale or corrupt artifact: invalidate rather than serve it.
            return self._invalidate(path)

    def _invalidate(self, path: Path) -> None:
        with self._lock:
            self._stats["invalidated"] += 1
        with self._disk_lock:
            path.unlink(missing_ok=True)
        return None
