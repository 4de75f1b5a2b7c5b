"""Network cost model and traffic accounting for the simulated cluster.

The paper's testbed is 42 machines on 40 Gbps Ethernet.  Here, transfers
take ``latency + bytes / bandwidth`` virtual seconds; transfers between
workers on the same machine are discounted (and systems like STRADS that
exchange data by pointer swapping can set the intra-machine factor to 0).
A :class:`TrafficLog` records every transfer with its virtual time span so
bandwidth-over-time figures (paper Fig. 12) can be regenerated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

__all__ = ["NetworkModel", "TrafficEvent", "TrafficLog"]


@dataclass
class NetworkModel:
    """Point-to-point transfer costs.

    Attributes:
        bandwidth_bytes_per_s: per-link bandwidth (default 40 Gbps).
        latency_s: per-message fixed cost, covering round trip and
            marshalling setup.
        intra_machine_factor: multiplier on transfer time for worker pairs
            on the same machine (0 models pointer swapping, 1 models going
            through the full network stack regardless).
    """

    bandwidth_bytes_per_s: float = 40e9 / 8
    latency_s: float = 1e-4
    intra_machine_factor: float = 0.25

    def transfer_time(self, nbytes: float, intra_machine: bool = False) -> float:
        """Virtual seconds to move ``nbytes`` over one link."""
        base = self.latency_s + float(nbytes) / self.bandwidth_bytes_per_s
        if intra_machine:
            return base * self.intra_machine_factor
        return base

    def random_access_time(self, num_accesses: int, nbytes: float) -> float:
        """Virtual seconds for ``num_accesses`` individual remote requests.

        Each request pays the full latency — this is exactly the cost bulk
        prefetching eliminates (paper Sec. 6.3: 7682 s/pass without it).
        """
        return num_accesses * self.latency_s + float(nbytes) / self.bandwidth_bytes_per_s


@dataclass(frozen=True)
class TrafficEvent:
    """One recorded transfer: virtual time span, size and category."""

    t_start: float
    t_end: float
    nbytes: float
    kind: str


@dataclass
class TrafficLog:
    """Accumulates transfers for bandwidth accounting and Fig. 12."""

    events: List[TrafficEvent] = field(default_factory=list)

    def record(self, t_start: float, t_end: float, nbytes: float, kind: str) -> None:
        """Record one transfer spanning ``[t_start, t_end]`` virtual seconds."""
        if t_end < t_start:
            t_end = t_start
        self.events.append(TrafficEvent(t_start, t_end, float(nbytes), kind))

    @property
    def total_bytes(self) -> float:
        """Sum of all recorded transfer sizes."""
        return sum(event.nbytes for event in self.events)

    def bytes_by_kind(self) -> dict:
        """Total bytes per category (rotation / flush / prefetch / ...)."""
        out: dict = {}
        for event in self.events:
            out[event.kind] = out.get(event.kind, 0.0) + event.nbytes
        return out

    def bandwidth_series(
        self, bucket_s: float, horizon_s: float = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Aggregate transfers into a (times, Mbps) series.

        Each event's bytes are spread uniformly over its time span and
        binned into ``bucket_s``-second buckets — an event that crosses a
        bin boundary contributes to each bin proportionally to the overlap.
        Instantaneous events (``t_end == t_start``) deposit all their bytes
        into their containing bin rather than losing them to a zero-length
        overlap.  The returned rate is in megabits per second, matching the
        paper's Fig. 12 axis.
        """
        if not self.events:
            return np.zeros(0), np.zeros(0)
        end = horizon_s if horizon_s is not None else max(
            event.t_end for event in self.events
        )
        num_buckets = max(1, int(np.ceil(end / bucket_s)))
        series = np.zeros(num_buckets)
        for event in self.events:
            first = int(event.t_start / bucket_s)
            if first >= num_buckets:
                continue  # starts beyond the horizon
            span = event.t_end - event.t_start
            if span <= 0.0:
                series[first] += event.nbytes
                continue
            last = min(int(event.t_end / bucket_s), num_buckets - 1)
            for bucket in range(first, last + 1):
                lo = max(event.t_start, bucket * bucket_s)
                hi = min(event.t_end, (bucket + 1) * bucket_s)
                if hi > lo:
                    series[bucket] += event.nbytes * (hi - lo) / span
        times = (np.arange(num_buckets) + 0.5) * bucket_s
        mbps = series * 8.0 / 1e6 / bucket_s
        return times, mbps

    # ---- JSON round-trip (machine-readable run histories) ------------- #

    def to_json(self) -> List[dict]:
        """Events as a JSON-safe list of dicts."""
        return [
            {
                "t_start": event.t_start,
                "t_end": event.t_end,
                "nbytes": event.nbytes,
                "kind": event.kind,
            }
            for event in self.events
        ]

    @classmethod
    def from_json(cls, data: List[dict]) -> "TrafficLog":
        """Rebuild a log from :meth:`to_json` output."""
        log = cls()
        for item in data:
            log.events.append(
                TrafficEvent(
                    float(item["t_start"]),
                    float(item["t_end"]),
                    float(item["nbytes"]),
                    str(item["kind"]),
                )
            )
        return log
