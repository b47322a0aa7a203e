"""Layout verification: measured areas, sibling gaps, containment.

Areas come from the exact boundary integral of each node's drawn outline,
never from the closed forms the layout itself used, so a report certifies
the geometry rather than echoing it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .layout import Layout
from .measure import path_area

# Zero-data nodes cannot carry a ratio; their area must vanish outright.
ZERO_AREA_TOL = 1e-12

# A node whose sector leaves its frame by more than this counts as a
# containment violation.
CONTAINMENT_TOL = 1e-9


@dataclass(slots=True)
class NodeReport:
    id: str
    area: float
    area_ratio: float | None
    gap_after: float | None
    gap_after_expected: float | None
    containment_excess: float


@dataclass(frozen=True)
class DiagnosticsReport:
    a_std: float
    nodes: list[NodeReport]
    max_area_error: float
    min_area_ratio: float | None
    max_area_ratio: float | None
    min_gap: float | None
    containment_violations: int

    def summary(self) -> dict:
        """The report as one style's entry of ``rit compare``'s diagnostics.json."""
        return {
            "a_std": self.a_std,
            "max_area_error": self.max_area_error,
            "min_gap": self.min_gap,
            "containment_violations": self.containment_violations,
            "area_ratios": {n.id: n.area_ratio for n in self.nodes},
        }


def diagnostics(layout: Layout) -> DiagnosticsReport:
    """Measure every node of ``layout``.

    A node's containment excess is how far its sector reaches past its
    frame: the parent's span between the parent's cut edges, or the
    root's own sector.  The layout contract bounds every angle and radius,
    so every outline closes and every area is finite: nothing is refused.
    Any area on a zero-data node makes ``max_area_error`` infinite.
    """
    by_id = {n.id: n for n in layout.nodes}
    gaps_after: dict[str, tuple[float, float]] = {}
    for group in layout.sibling_groups():
        for left, right in zip(group, group[1:]):
            gap = right.sector.cut_start - left.sector.cut_end
            expected = 0.5 * (left.sector.alpha + right.sector.alpha)
            gaps_after[left.id] = (gap, expected)

    node_reports: list[NodeReport] = []
    max_area_error = 0.0
    for n in layout.nodes:
        area = path_area(n.path)
        target = n.data * layout.a_std
        if target > 0.0:
            ratio = area / target
            max_area_error = max(max_area_error, abs(ratio - 1.0))
        else:
            ratio = None
        if ratio is None and area > ZERO_AREA_TOL * layout.a_std:
            max_area_error = math.inf
        sec = n.sector
        frame = sec if n.parent is None else by_id[n.parent].sector
        frame_lo = frame.cut_start
        frame_hi = frame_lo + (frame.beta - frame.alpha)
        excess = max(frame_lo - sec.theta, (sec.theta + sec.beta) - frame_hi, 0.0)
        gap, gap_expected = gaps_after.get(n.id, (None, None))
        node_reports.append(NodeReport(n.id, area, ratio, gap, gap_expected, excess))

    gaps = [r.gap_after for r in node_reports if r.gap_after is not None]
    ratios = [r.area_ratio for r in node_reports if r.area_ratio is not None]
    return DiagnosticsReport(
        a_std=layout.a_std,
        nodes=node_reports,
        max_area_error=max_area_error,
        min_area_ratio=min(ratios) if ratios else None,
        max_area_ratio=max(ratios) if ratios else None,
        min_gap=min(gaps) if gaps else None,
        containment_violations=sum(1 for r in node_reports if r.containment_excess > CONTAINMENT_TOL),
    )
