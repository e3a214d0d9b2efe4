"""Memoization for the verification engine: verdict caches keyed by program.

The guided SC-membership search (:func:`repro.core.contract.is_sc_result`)
is the expensive half of every contract sweep, and the same (program,
result) pair recurs constantly: across nondeterminism seeds, across
policies run on the same program, and across workers of a parallel sweep.
The caches here make each judgment happen exactly once.

Keys are *content* keys, not identity keys: :func:`program_fingerprint`
hashes the program's instruction streams, labels, and initial memory (the
name is deliberately excluded -- two structurally identical programs share
verdicts), and :class:`~repro.core.execution.Result` is already canonical
(per-processor read tuples plus sorted final memory).  Content keys are
what make verdicts portable across worker processes.

Every stored entry carries a checksum: the interpreter's hash of the
tuple (key, verdict).  For a fixed key, flipping the verdict always
changes that hash, so an entry whose verdict is corrupted in place -- a
worker writing through memory it should not own, a bad merge -- is
caught at lookup time (:class:`CacheIntegrityError`) rather than
silently turning a non-SC result into "appears SC".  The hash is salted
per interpreter, so the checksum never leaves the process:
:meth:`SCVerdictCache.entries` exports (key, verdict) pairs without it,
forked workers inherit the parent's salt, and the persistent store
checks its own lines (:mod:`repro.verify.store`).
:meth:`SCVerdictCache.audit` goes further and re-derives every cached
verdict from the oracle, catching entries that were poisoned
*consistently* (checksum rewritten to match a wrong verdict).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.contract import is_sc_result
from repro.core.execution import Result
from repro.machine.program import Program


class CacheIntegrityError(RuntimeError):
    """A cached verdict's checksum no longer matches its key and value."""


def program_fingerprint(program: Program) -> str:
    """Deterministic content hash of a program's semantics.

    Covers the instruction tuples, branch labels, and initial memory;
    excludes the display name so renamed-but-identical programs share
    cache entries.  Stable across processes (unlike ``hash()``, which is
    salted per interpreter).

    Memoized per instance: a sweep looks the same program up once per
    (seed, policy) pair, and :class:`Program` is frozen, so the hash is
    computed once and parked on the instance (``object.__setattr__``
    bypasses the frozen-dataclass guard; fork-inherited copies carry the
    memo with them).
    """
    cached = program.__dict__.get("_content_fingerprint")
    if cached is not None:
        return cached
    h = hashlib.sha256()
    for code in program.threads:
        h.update(repr(code.instructions).encode())
        h.update(repr(sorted(code.labels.items())).encode())
        h.update(b"\x00")
    h.update(repr(sorted(program.initial_memory.items())).encode())
    fingerprint = h.hexdigest()
    object.__setattr__(program, "_content_fingerprint", fingerprint)
    return fingerprint


def _checksum(key: object, verdict: bool) -> int:
    return hash((key, verdict))


@dataclass
class CacheStats:
    """Hit/miss counters, for reporting and for asserting reuse in tests.

    ``quarantined`` counts entries that failed their integrity check and
    were evicted by a quarantining lookup (the hardened engine path) so
    the verdict was recomputed instead of served or fatally raised.
    """

    hits: int = 0
    misses: int = 0
    quarantined: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    def add(self, hits: int = 0, misses: int = 0, quarantined: int = 0) -> None:
        """Fold in counters observed elsewhere (worker-process memos
        report their per-task deltas back to the parent through this)."""
        self.hits += hits
        self.misses += misses
        self.quarantined += quarantined


class SCVerdictCache:
    """Memo of guided SC-membership verdicts, keyed by (program, result)."""

    def __init__(self) -> None:
        self._entries: Dict[Tuple[str, Result], Tuple[bool, int]] = {}
        self._programs: Dict[str, Program] = {}
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def key(self, program: Program, result: Result) -> Tuple[str, Result]:
        """The content key a verdict is filed under."""
        return (program_fingerprint(program), result)

    def lookup(self, program: Program, result: Result) -> Optional[bool]:
        """Cached verdict for (program, result), or None when unjudged.

        Raises :class:`CacheIntegrityError` if the stored entry fails its
        checksum -- a poisoned entry must never be served as a verdict.
        """
        key = self.key(program, result)
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        verdict, checksum = entry
        if checksum != _checksum(key, verdict):
            raise CacheIntegrityError(
                f"SC verdict cache entry for {key[0][:12]}.../{result} failed "
                "its integrity check"
            )
        self.stats.hits += 1
        return verdict

    def lookup_or_quarantine(
        self, program: Program, result: Result
    ) -> Optional[bool]:
        """Like :meth:`lookup`, but a corrupted entry is evicted (counted
        in ``stats.quarantined``) and reported as a miss instead of
        raising -- the hardened engine recomputes the verdict and the
        sweep keeps its exact output."""
        try:
            return self.lookup(program, result)
        except CacheIntegrityError:
            self._entries.pop(self.key(program, result), None)
            self.stats.quarantined += 1
            self.stats.misses += 1
            return None

    def store(self, program: Program, result: Result, verdict: bool) -> None:
        """File a verdict (idempotent; later stores overwrite)."""
        key = self.key(program, result)
        self._entries[key] = (bool(verdict), _checksum(key, bool(verdict)))
        self._programs.setdefault(key[0], program)

    def store_by_fingerprint(
        self,
        fingerprint: str,
        result: Result,
        verdict: bool,
        program: Optional[Program] = None,
    ) -> None:
        """File a verdict under an already-computed content key.

        This is how verdicts computed *elsewhere* -- a worker process, a
        persistent store segment -- enter the cache without the original
        :class:`Program` object in hand.  ``program``, when available,
        is registered so :meth:`audit` can re-derive the entry.
        """
        key = (fingerprint, result)
        self._entries[key] = (bool(verdict), _checksum(key, bool(verdict)))
        if program is not None:
            self._programs.setdefault(fingerprint, program)

    def entries(self) -> List[Tuple[str, Result, bool]]:
        """Every (fingerprint, result, verdict) currently cached, in
        insertion order (used to warm worker memos and flush to disk)."""
        return [
            (fingerprint, result, verdict)
            for (fingerprint, result), (verdict, _) in self._entries.items()
        ]

    def judge(self, program: Program, result: Result) -> bool:
        """Cached :func:`is_sc_result`: judge once, remember forever.

        A corrupted entry is evicted and re-judged
        (:meth:`lookup_or_quarantine`), never served.
        """
        verdict = self.lookup_or_quarantine(program, result)
        if verdict is None:
            verdict = is_sc_result(program, result)
            self.store(program, result, verdict)
        return verdict

    def audit(
        self,
        oracle: Callable[[Program, Result], bool] = is_sc_result,
    ) -> List[Tuple[str, Result]]:
        """Re-derive every cached verdict from the oracle.

        Returns the keys whose stored verdict disagrees with a fresh
        oracle run (or whose checksum is broken).  Empty list == cache
        sound.  This catches poisonings the lookup-time checksum cannot:
        an entry rewritten wholesale with a consistent checksum.  An
        entry filed without its program (a stored verdict whose program
        record is missing) cannot be re-derived and is skipped, as
        :meth:`VerdictStore.audit <repro.verify.store.VerdictStore.audit>`
        counts it unauditable.
        """
        bad: List[Tuple[str, Result]] = []
        for (fingerprint, result), (verdict, checksum) in self._entries.items():
            key = (fingerprint, result)
            if checksum != _checksum(key, verdict):
                bad.append(key)
                continue
            program = self._programs.get(fingerprint)
            if program is not None and oracle(program, result) != verdict:
                bad.append(key)
        return bad


class DRF0VerdictCache:
    """Memo of Definition-3 program verdicts.

    Keyed by (program fingerprint, mode): the exhaustive verdict is a pure
    function of the program, the sampled verdict also of the seed set, so
    the sampled key includes the seeds it was derived from.
    """

    def __init__(self) -> None:
        self._entries: Dict[Tuple[str, object], Tuple[bool, int]] = {}
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    @staticmethod
    def _key(program: Program, exhaustive: bool, seeds: Tuple[int, ...]) -> Tuple[str, object]:
        mode: object = "exhaustive" if exhaustive else ("sampled", seeds)
        return (program_fingerprint(program), mode)

    def lookup(
        self, program: Program, exhaustive: bool, seeds: Tuple[int, ...] = ()
    ) -> Optional[bool]:
        key = self._key(program, exhaustive, seeds)
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        verdict, checksum = entry
        if checksum != _checksum(key, verdict):
            raise CacheIntegrityError(
                f"DRF0 verdict cache entry for {key[0][:12]}... failed its "
                "integrity check"
            )
        self.stats.hits += 1
        return verdict

    def lookup_or_quarantine(
        self, program: Program, exhaustive: bool, seeds: Tuple[int, ...] = ()
    ) -> Optional[bool]:
        """Quarantining :meth:`lookup`: evict-and-miss on corruption."""
        try:
            return self.lookup(program, exhaustive, seeds)
        except CacheIntegrityError:
            self._entries.pop(self._key(program, exhaustive, seeds), None)
            self.stats.quarantined += 1
            self.stats.misses += 1
            return None

    def store(
        self,
        program: Program,
        exhaustive: bool,
        seeds: Tuple[int, ...],
        verdict: bool,
    ) -> None:
        key = self._key(program, exhaustive, seeds)
        self._entries[key] = (bool(verdict), _checksum(key, bool(verdict)))

    def store_by_key(
        self, fingerprint: str, mode: object, verdict: bool
    ) -> None:
        """File a verdict computed elsewhere (worker / persistent store).

        ``mode`` is the cache's own mode token: ``"exhaustive"`` or
        ``("sampled", seeds_tuple)``.
        """
        key = (fingerprint, mode)
        self._entries[key] = (bool(verdict), _checksum(key, bool(verdict)))

    def entries(self) -> List[Tuple[str, object, bool]]:
        """Every (fingerprint, mode, verdict) currently cached."""
        return [
            (fingerprint, mode, verdict)
            for (fingerprint, mode), (verdict, _) in self._entries.items()
        ]
