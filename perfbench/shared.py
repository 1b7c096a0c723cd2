"""What the client and the report share: output file paths, the spans on
the path ``cmd_process`` takes, and the steal clock."""

from __future__ import annotations

import os
from pathlib import Path

OUTPUT_SUFFIXES = ("record", "validation", "metrics", "summary")

# The other layer spans (the single validation layers, schema.parse and each
# metric function) re-run work that validate_all and compute_metrics already
# do, to break it down.
PATH_SPANS = (
    "ingest.load",
    "chunker.chunk",
    "extraction.run",
    "merge.merge",
    "merge.xref",
    "schema.serialize",
    "validation.all",
    "metrics.compute",
)


def output_paths(directory: Path, index: int) -> dict[str, Path]:
    return {s: directory / f"doc-{index:05d}.{s}.json" for s in OUTPUT_SUFFIXES}


def steal_seconds() -> float:
    """CPU time the hypervisor gave to other guests, summed over this
    machine's CPUs: the ``steal`` column of /proc/stat."""
    with open("/proc/stat") as fh:
        return int(fh.readline().split()[8]) / os.sysconf("SC_CLK_TCK")


def effective_seconds(wall: float, cpu: float, steal: float) -> float:
    """Wall time less the steal that fell inside it, but never less than the
    process's own CPU time. On a shared virtual machine other guests' load
    moves wall time by a quarter or more between runs; this removes most of
    that and leaves waiting on I/O or on a model in."""
    return max(wall - steal, cpu)
