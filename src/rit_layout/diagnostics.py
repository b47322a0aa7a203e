"""Layout verification: measured areas, sibling gaps, bound margins.

Areas come from the exact boundary integral of each node's drawn outline,
never from the closed forms the layout itself used, so a report certifies
the geometry rather than echoing it.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .geometry import max_wedge_angle
from .layout import Layout
from .measure import path_area

# Zero-data nodes cannot carry a ratio; their area must vanish outright.
ZERO_AREA_TOL = 1e-12

# A node whose sector leaves its frame by more than this counts as a
# containment violation.
CONTAINMENT_TOL = 1e-9


@dataclass(frozen=True)
class NodeReport:
    id: str
    depth: int
    data: float
    area: float
    area_ratio: float | None
    gap_after: float | None
    gap_after_expected: float | None
    half_beta_margin: float | None
    geometric_margin: float | None
    containment_excess: float


@dataclass(frozen=True)
class DiagnosticsReport:
    style: str
    a_std: float
    visits: int
    nodes: list[NodeReport]
    max_area_error: float
    mean_area_ratio: float | None
    min_area_ratio: float | None
    max_area_ratio: float | None
    min_gap: float | None
    mean_gap: float | None
    min_half_beta_margin: float | None
    min_geometric_margin: float | None
    containment_violations: int
    max_containment_excess: float

    def to_dict(self) -> dict:
        out = asdict(self)
        out["nodes"] = [asdict(n) for n in self.nodes]
        return out


def diagnostics(layout: Layout) -> DiagnosticsReport:
    """Measure every node of ``layout``.

    A node's containment excess is how far its sector reaches past its
    frame: the parent's span between the parent's cut edges, or the
    root's own sector.
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
            if area > ZERO_AREA_TOL * layout.a_std:
                max_area_error = math.inf
        sec = n.sector
        if sec.alpha > 0.0:
            half_beta_margin = 0.5 * sec.beta - sec.alpha
            geometric_margin = max_wedge_angle(sec.r_in, sec.outer_radius) - sec.alpha
        else:
            half_beta_margin = None
            geometric_margin = None
        frame = sec if n.parent is None else by_id[n.parent].sector
        frame_lo = frame.cut_start
        frame_hi = frame_lo + (frame.beta - frame.alpha)
        excess = max(frame_lo - sec.theta, (sec.theta + sec.beta) - frame_hi, 0.0)
        gap, gap_expected = gaps_after.get(n.id, (None, None))
        node_reports.append(
            NodeReport(
                id=n.id,
                depth=n.depth,
                data=n.data,
                area=area,
                area_ratio=ratio,
                gap_after=gap,
                gap_after_expected=gap_expected,
                half_beta_margin=half_beta_margin,
                geometric_margin=geometric_margin,
                containment_excess=excess,
            )
        )

    gaps = [r.gap_after for r in node_reports if r.gap_after is not None]
    ratios = [r.area_ratio for r in node_reports if r.area_ratio is not None]
    half_margins = [r.half_beta_margin for r in node_reports if r.half_beta_margin is not None]
    geo_margins = [r.geometric_margin for r in node_reports if r.geometric_margin is not None]
    excesses = [r.containment_excess for r in node_reports]
    violations = sum(1 for e in excesses if e > CONTAINMENT_TOL)
    return DiagnosticsReport(
        style=layout.style,
        a_std=layout.a_std,
        visits=layout.visits,
        nodes=node_reports,
        max_area_error=max_area_error,
        mean_area_ratio=math.fsum(ratios) / len(ratios) if ratios else None,
        min_area_ratio=min(ratios) if ratios else None,
        max_area_ratio=max(ratios) if ratios else None,
        min_gap=min(gaps) if gaps else None,
        mean_gap=math.fsum(gaps) / len(gaps) if gaps else None,
        min_half_beta_margin=min(half_margins) if half_margins else None,
        min_geometric_margin=min(geo_margins) if geo_margins else None,
        containment_violations=violations,
        max_containment_excess=max(excesses) if excesses else 0.0,
    )
