"""Keyed selection of carrier groups (paper §2.2, step 1).

"A secret key is used to select a number of data elements or structure
units to embed watermark bits."  Selection follows the Agrawal–Kiernan
recipe the paper cites: a group is selected when
``HMAC(key, identity) mod gamma == 0`` — on average 1 in ``gamma``
groups — and the selected group's watermark bit index is
``HMAC(key, identity) mod nbits``.

Both decisions depend only on (key, identity), so the decoder makes the
identical decisions at detection time without any shared state beyond
the stored query set Q.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.crypto import KeyedPRF
from repro.core.identity import CarrierGroup
from repro.perf import profiled


@dataclass
class EmbeddingSlot:
    """A selected carrier group with its assigned watermark bit index."""

    group: CarrierGroup
    bit_index: int


@dataclass(frozen=True)
class SelectionStats:
    """Bookkeeping for the capacity analysis (experiment E3)."""

    candidates: int
    selected: int
    gamma: int

    @property
    def utilisation(self) -> float:
        """Selected fraction; expectation is 1/gamma."""
        if self.candidates == 0:
            return 0.0
        return self.selected / self.candidates


@profiled("selection.select")
def select_groups(
    groups: Sequence[CarrierGroup],
    prf: KeyedPRF,
    gamma: int,
    nbits: int,
) -> tuple[list[EmbeddingSlot], SelectionStats]:
    """Apply the keyed 1-in-gamma selection to ``groups``.

    Selection and bit assignment run through the PRF's batch APIs
    (:meth:`~repro.core.crypto.KeyedPRF.selects_many` /
    :meth:`~repro.core.crypto.KeyedPRF.bit_indices`), amortising the
    per-call overhead across all candidate groups.
    """
    selected_flags = prf.selects_many(
        (group.identity for group in groups), gamma)
    selected_groups = [
        group for group, chosen in zip(groups, selected_flags) if chosen
    ]
    indices = prf.bit_indices(
        (group.identity for group in selected_groups), nbits)
    slots = [
        EmbeddingSlot(group=group, bit_index=bit_index)
        for group, bit_index in zip(selected_groups, indices)
    ]
    stats = SelectionStats(
        candidates=len(groups), selected=len(slots), gamma=gamma)
    return slots, stats
