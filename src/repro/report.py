"""Human-readable reports: access tables and ASCII timelines for runs.

:func:`access_table` lists every access with its generate / commit /
globally-performed timestamps; :func:`timeline` draws the same data as
per-processor lanes, which makes the paper's Figure-3 asymmetry literally
visible: under Definition 1 the releasing processor's lane has a gap
(gate stall) before its Unset, under the Section-5.3 implementation it
does not.

Legend for timeline bars::

    .  waiting at a generation gate (policy stall)
    -  generated, not yet committed (in the memory system)
    =  committed, not yet globally performed
    G  globally performed (single mark)
"""

from __future__ import annotations

from typing import Optional

from repro.core.types import OpKind
from repro.sim.system import MachineRun

_KIND_TAG = {
    OpKind.DATA_READ: "R ",
    OpKind.DATA_WRITE: "W ",
    OpKind.SYNC_READ: "Sr",
    OpKind.SYNC_WRITE: "Sw",
    OpKind.SYNC_RMW: "S*",
}


def access_table(run: MachineRun) -> str:
    """All accesses of a run as a fixed-width table."""
    lines = [
        f"{'proc':<6}{'#':<4}{'op':<4}{'loc':<8}{'read':<6}{'write':<7}"
        f"{'gen':<7}{'commit':<8}{'gp':<6}"
    ]
    lines.append("-" * len(lines[0]))
    for proc, accesses in enumerate(run.raw_accesses):
        for access in accesses:
            lines.append(
                f"P{proc:<5}{access.uid:<4}"
                f"{_KIND_TAG[access.kind]:<4}"
                f"{access.location:<8}"
                f"{_fmt(access.value_read):<6}"
                f"{_fmt(access.write_value if access.has_write else None):<7}"
                f"{_fmt(access.generate_time):<7}"
                f"{_fmt(access.commit_time):<8}"
                f"{_fmt(access.gp_time):<6}"
            )
    return "\n".join(lines)


def _fmt(value: Optional[int]) -> str:
    return "-" if value is None else str(value)


def timeline(run: MachineRun, width: int = 72) -> str:
    """ASCII per-access lanes, scaled to ``width`` columns."""
    total = max(run.cycles, 1)
    scale = width / total

    def col(time: Optional[int]) -> Optional[int]:
        if time is None:
            return None
        return min(width - 1, int(time * scale))

    lines = [
        f"timeline: {run.program.name} on {run.policy_name} "
        f"({run.cycles} cycles, 1 col ~ {total / width:.1f} cy)"
    ]
    for proc, accesses in enumerate(run.raw_accesses):
        lines.append(f"P{proc}:")
        for access in accesses:
            lane = [" "] * width
            gen, commit, gp = (
                col(access.generate_time),
                col(access.commit_time),
                col(access.gp_time),
            )
            if gen is not None and commit is not None:
                for i in range(gen, commit):
                    lane[i] = "-"
            if commit is not None:
                end = gp if gp is not None else commit
                for i in range(commit, end):
                    lane[i] = "="
            if gp is not None:
                lane[gp] = "G"
            elif commit is not None:
                lane[commit] = "="
            label = f"  {_KIND_TAG[access.kind]}{access.location:<7}"
            lines.append(label + "|" + "".join(lane) + "|")
    return "\n".join(lines)


def summarize(run: MachineRun) -> str:
    """One-paragraph run summary with stall and traffic statistics."""
    lines = [
        f"program {run.program.name!r} on {run.policy_name}: "
        f"{run.cycles} cycles, {run.messages_sent} messages",
    ]
    for proc, stats in enumerate(run.proc_stats):
        cache = (
            run.cache_stats[proc]
            if proc < len(run.cache_stats) and run.cache_stats
            else None
        )
        cache_part = (
            f", hits={cache['hits']} misses={cache['misses']}"
            f" evictions={cache['evictions']}"
            if cache
            else ""
        )
        lines.append(
            f"  P{proc}: {stats.accesses_generated} accesses, "
            f"gate-stall={stats.gate_stall_cycles}cy "
            f"block-stall={stats.block_stall_cycles}cy, "
            f"halt@{stats.halt_time}{cache_part}"
        )
    if run.directory_stats:
        lines.append(
            f"  directory: {run.directory_stats['requests']} requests, "
            f"{run.directory_stats['invalidations']} invalidations"
        )
    return "\n".join(lines)
