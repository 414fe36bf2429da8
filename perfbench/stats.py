"""The benchmark's arithmetic: percentiles, spreads, open-loop timing and
pipeline glue. Kept free of I/O so `tests/test_stats.py` can check it."""

import math
import statistics

# A tail percentile is reported only when at least this many samples lie
# beyond it; fewer make it a reading of one or two outliers.
MIN_BEYOND = 10


def percentile(values, q):
    """The q-quantile (0 <= q <= 1) by linear interpolation between the
    closest ranks."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def samples_beyond(n, q):
    """How many of n samples lie strictly beyond the q-quantile."""
    return n - math.ceil(n * q - 1e-9)


def tail(values, q):
    """The q-quantile, or None when fewer than MIN_BEYOND samples lie
    beyond it."""
    if samples_beyond(len(values), q) < MIN_BEYOND:
        return None
    return percentile(values, q)


def quartiles(values):
    """(q1, median, q3) by `statistics.quantiles(values, n=4)`."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def open_loop(due_us, sent_us, done_us):
    """Latency of each open-loop request, timed from when it was due (so a
    stall also charges the requests queued behind it), and how late the
    generator sent each one. Both in milliseconds."""
    latency = [(done - due) / 1e3 for due, done in zip(due_us, done_us)]
    late = [max(0.0, sent - due) / 1e3 for due, sent in zip(due_us, sent_us)]
    return latency, late


STAGES = ("load", "discretize", "identify", "remedy", "train", "audit")


def stage_times(manifest):
    """Stage wall_ms summed over branches, the engine glue (total_ms minus
    every stage) and the glue's share of total_ms."""
    sums = {stage: 0.0 for stage in STAGES}
    for record in manifest["stages"]:
        sums[record["stage"]] = sums.get(record["stage"], 0.0) + record["wall_ms"]
    total = manifest["total_ms"]
    glue = total - sum(sums.values())
    return sums, glue, glue / total
