"""Text pipetrace rendering (one row per instruction, one column per cycle).

The classic simulator debugging view::

    seq   op        |F   D    R  I C   T
    seq+1 op        | F   D    R   I C x

Stage letters: F fetch, D decode, R rename/dispatch, I issue, C complete,
T commit, x squash.  Wrong-path instructions render their letters in
lower case so a misprediction's shadow is visible at a glance.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, Iterable, List, Sequence

from repro.tracing.tracer import InstructionTrace


def render_pipetrace(
    traces: Sequence[InstructionTrace],
    max_width: int = 120,
) -> str:
    """Render traces as an aligned text pipeline diagram."""
    rows = [t for t in traces if t.fetch_cycle >= 0]
    if not rows:
        return "(no traces)"
    origin = min(t.fetch_cycle for t in rows)
    span = max(t.retire_cycle for t in rows) - origin + 1
    span = min(span, max_width)

    lines = []
    header = f"{'seq':>6s} {'op':10s} |cycles {origin}..{origin + span - 1}"
    lines.append(header)
    for trace in rows:
        cells = [" "] * span
        for cycle, letter in trace.stage_events():
            offset = cycle - origin
            if 0 <= offset < span:
                cells[offset] = letter.lower() if trace.on_wrong_path else letter
        label = trace.opcode.value[:10]
        lines.append(f"{trace.seq:>6d} {label:10s} |{''.join(cells)}")
    return "\n".join(lines)


def stage_occupancy_histogram(
    traces: Iterable[InstructionTrace],
    bucket: int = 4,
    max_rows: int = 16,
) -> str:
    """Histogram of instruction lifetimes (fetch-to-retire cycles)."""
    counts: Dict[int, int] = {}
    for trace in traces:
        key = trace.lifetime // bucket
        counts[key] = counts.get(key, 0) + 1
    if not counts:
        return "(no traces)"
    total = sum(counts.values())
    peak = max(counts.values())
    lines = [f"lifetime histogram ({total} instructions, bucket={bucket} cycles)"]
    for key in sorted(counts)[:max_rows]:
        count = counts[key]
        bar = "#" * max(1, round(36 * count / peak))
        lines.append(
            f"{key * bucket:>5d}-{(key + 1) * bucket - 1:<5d} {bar} {count}"
        )
    overflow = len(counts) - max_rows
    if overflow > 0:
        lines.append(f"  ... {overflow} longer buckets elided")
    return "\n".join(lines)


def wrong_path_shadow_report(traces: Sequence[InstructionTrace]) -> str:
    """Summarise the wrong-path work behind each mispredicted branch.

    A branch's wrong path is squashed — and so recorded — before the
    branch commits, sometimes in parts by nested recoveries, so the shadow
    is matched by sequence number, not by trace position: the wrong-path
    records whose ``seq`` lies between the branch and the next committed
    instruction (all later ones when none committed in the window).
    """
    committed = sorted(t.seq for t in traces if not t.squashed)
    wrong_path = sorted(
        (t.seq, t.issue_cycle >= 0) for t in traces if t.on_wrong_path
    )
    wrong_seqs = [seq for seq, _ in wrong_path]
    shadows: List[tuple] = []
    for trace in traces:
        if not trace.mispredicted or trace.on_wrong_path or trace.squashed:
            continue
        seq = trace.seq
        first = bisect_right(wrong_seqs, seq)
        after = bisect_right(committed, seq)
        if after < len(committed):
            end = bisect_left(wrong_seqs, committed[after], first)
        else:
            end = len(wrong_seqs)
        issued = 0
        for _, was_issued in wrong_path[first:end]:
            if was_issued:
                issued += 1
        shadows.append((seq, end - first, issued))
    if not shadows:
        return "(no mispredicted branches in the trace window)"
    lines = [f"{'branch seq':>10s} {'wp fetched':>11s} {'wp issued':>10s}"]
    for seq, fetched, issued in shadows[:20]:
        lines.append(f"{seq:>10d} {fetched:>11d} {issued:>10d}")
    average_fetched = sum(s[1] for s in shadows) / len(shadows)
    average_issued = sum(s[2] for s in shadows) / len(shadows)
    lines.append(
        f"{'average':>10s} {average_fetched:>11.1f} {average_issued:>10.1f}"
    )
    return "\n".join(lines)
