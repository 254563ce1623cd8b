"""Which optional layers may be switched on together.

Each optional layer is switched on by one constructor keyword of
:class:`~repro.core.client.DBTreeCluster` (and, below the engine, of
:class:`~repro.sim.simulator.Kernel`).  :data:`LAYER_CONFLICTS`
declares every pair of layers that cannot run together, with the
reason; :func:`check_layer_conflicts` is the one place that enforces
it, at construction.  A pair absent from the table composes: the
layer-composition test runs every such pair to a clean audit.
"""

from __future__ import annotations

from typing import Any

#: (keyword, keyword) -> why the two layers cannot be combined.
LAYER_CONFLICTS: dict[tuple[str, str], str] = {
    ("crash_plan", "relay_batch_window"): (
        "relays parked in the batcher would survive the crash of the "
        "processor that owes them"
    ),
    ("permute_plan", "fault_plan"): (
        "a fault verdict would confound which swaps caused a divergence"
    ),
    ("permute_plan", "crash_plan"): (
        "dead-letter verdicts make permuted schedules incomparable"
    ),
    ("permute_plan", "reliability"): (
        "in enforced mode the reliable transport owns ordering"
    ),
    ("permute_plan", "relay_batch_window"): (
        "the batcher already reorders relays at the sender"
    ),
    ("permute_plan", "partition_plan"): (
        "a blocked link would confound which swaps caused a divergence"
    ),
    ("permute_plan", "detector_plan"): (
        "detector_plan implies a crash-capable cluster and permuted "
        "schedules are incomparable under crashes"
    ),
}


def check_layer_conflicts(**layers: Any) -> None:
    """Reject the first pair of switched-on layers the table forbids.

    Each keyword argument is a layer keyword and its value; a layer is
    on unless its value is ``None`` (or ``"assumed"``, the default of
    ``reliability``).  Raises :class:`ValueError` naming both keywords
    and the reason.
    """
    on = {name for name, value in layers.items() if value not in (None, "assumed")}
    for (first, second), reason in LAYER_CONFLICTS.items():
        if first in on and second in on:
            raise ValueError(f"{first} is incompatible with {second}: {reason}")
