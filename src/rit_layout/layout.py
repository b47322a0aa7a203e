"""Radial-icicle layout plus sunburst and icicle baselines.

The radial-icicle layout walks the tree one sibling frame at a time, from
an explicit stack, and touches every non-root node exactly three times:
once to place its sector, once to fix its wedge angle, once to add the
top-up and push its frame.  The instrumented visit counter therefore ends
at 3*(N-1) + 1.  With relaxation enabled, each frame re-spaces its runs of
thin children between its second and third pass, and a moved child's
subtree turns with it.  The sunburst and icicle share one proportional
placer.  A node's outline is derived from its geometry on first use.

Two angle modes:

* contained (default): each frame compresses its angle scale by
  k = min(1, available_span / (scale * sum(child data))) so children always
  fit the parent's post-wedge span; ring heights are solved against the
  compressed scale, which keeps every node's area equal to data times the
  standard area.
* literal: child angles are always 2*pi*data and heights come from the
  full-annulus solution; children of full parents overflow their frame by
  exactly the parent's wedge angle, which diagnostics reports rather than
  hides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii

from . import geometry as geo
from .geometry import (
    TAU,
    BandGeometry,
    Path,
    SectorGeometry,
    _clamp_wedge_angle,
    _height_for_scale,
    _topup_height,
    _wedge_cap,
    _wedge_pair_area,
    is_full_turn,
    sector_area,
)
from .tree import NormalizedNode, _require_valid_value

MODES = ("contained", "literal")
STYLES = ("rit", "sunburst", "icicle")
MIN_NORMAL = 2.0 ** -1022  # sys.float_info.min, the smallest normal float


def require_finite(config, names: tuple[str, ...]) -> None:
    """Raise ValueError naming the first field of ``config`` that is not finite.

    An int beyond float range counts as not finite; ``math.isfinite``
    would raise OverflowError for it.
    """
    for name in names:
        value = getattr(config, name)
        try:
            finite = math.isfinite(value)
        except OverflowError:
            finite = False
        if not finite:
            raise ValueError(f"{name} must be finite, got {value}")


_FLOAT_FIELDS = ("theta0", "beta0", "r0", "h0", "ar0", "acr", "relax_threshold")


@dataclass(frozen=True)
class LayoutConfig:
    """Root placement and wedge controls.

    ``ar0`` is the initial wedge-angle ratio alpha/beta for depth-1 nodes;
    ``acr`` multiplies it per generation.  A bad field raises ``ValueError``
    when the config is built.  Numeric fields are stored as ``float``.
    """

    theta0: float = 0.0
    beta0: float = TAU
    r0: float = 8.0
    h0: float = 2.0
    ar0: float = 0.1
    acr: float = 1.0
    mode: str = "contained"
    relax_enabled: bool = False
    relax_threshold: float = 0.01

    def __post_init__(self) -> None:
        require_finite(self, _FLOAT_FIELDS)
        for name in _FLOAT_FIELDS:
            object.__setattr__(self, name, float(getattr(self, name)))
        if not 0.0 < self.beta0 <= TAU + geo.FULL_TURN_TOL:
            raise ValueError(f"beta0 must be in (0, 2*pi], got {self.beta0}")
        if self.r0 < 0.0:
            raise ValueError(f"r0 must be >= 0, got {self.r0}")
        if self.h0 <= 0.0:
            raise ValueError(f"h0 must be > 0, got {self.h0}")
        try:
            a_std = sector_area(self.r0, self.h0, self.beta0)
        except OverflowError:
            a_std = math.inf
        # A subnormal standard area keeps too few significant bits for the
        # height solve to meet the area bound.
        if not MIN_NORMAL <= a_std < math.inf:
            raise ValueError(
                f"r0={self.r0}, h0={self.h0} and beta0={self.beta0} give a standard area "
                f"of {a_std}; it must be a finite number >= {MIN_NORMAL!r}"
            )
        if not 0.0 < self.ar0 < 0.5:
            raise ValueError(f"ar0 must be in (0, 0.5), got {self.ar0}")
        if self.acr <= 0.0:
            raise ValueError(f"acr must be > 0, got {self.acr}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.relax_threshold < 0.0:
            raise ValueError(f"relax threshold must be >= 0, got {self.relax_threshold}")


@dataclass(slots=True)
class PlacedNode:
    """One laid-out node: identity, geometry, and parent.

    A slotted record, not hashable, that the library never changes once
    built.  Change one with ``dataclasses.replace``, never by assigning to a
    field: ``path`` is derived from ``sector`` on first use and kept in
    ``_path``, and a replaced node starts without one, where an assigned
    ``sector`` would keep the stale outline.  ``relaxed`` flags a node that
    relaxation turned, directly or with a moved ancestor.  For the icicle
    style ``sector`` is a ``BandGeometry``: theta is the x offset, beta the
    width, r_in the distance of the row's top from the root's top edge.
    """

    id: str
    label: str
    color: str | None
    data: float
    depth: int
    parent: str | None
    sector: SectorGeometry
    relaxed: bool = False
    _path: Path | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def path(self) -> Path:
        """The drawn outline, built from ``sector`` once and kept."""
        path = self._path
        if path is None:
            path = self._path = self.sector.outline()
        return path


@dataclass(frozen=True)
class Layout:
    style: str
    config: LayoutConfig
    a_std: float
    nodes: tuple[PlacedNode, ...]
    visits: int

    def __post_init__(self) -> None:
        ids = {n.id for n in self.nodes}
        if len(ids) != len(self.nodes):
            raise ValueError("duplicate node ids in layout")
        for n in self.nodes:
            if n.parent not in ids and n.parent is not None:
                raise ValueError(f"node {n.id!r}: parent {n.parent!r} is not a node of the layout")

    def sibling_groups(self) -> list[list[PlacedNode]]:
        """Children grouped by parent, in placement order."""
        groups: dict[str, list[PlacedNode]] = {}
        for n in self.nodes:
            if n.parent is not None:
                groups.setdefault(n.parent, []).append(n)
        return list(groups.values())


def _check_tree(tree: NormalizedNode) -> None:
    for node in tree.walk():
        _require_valid_value(node.id, node.data, ValueError)
    if tree.data != 1.0:
        raise ValueError(f"root data must be exactly 1, got {tree.data}")


def layout_rit(tree: NormalizedNode, cfg: LayoutConfig = LayoutConfig()) -> Layout:
    """Radial icicle layout: separation wedges plus exact area compensation.

    With ``cfg.relax_enabled`` each frame also re-spaces its runs of thin
    children (see ``_relax_thin_runs``); a moved child turns its subtree
    with it, and every node so turned is flagged ``relaxed``.  A ring or
    top-up that floats cannot represent raises ``ValueError`` naming the
    node and the rule.
    """
    _check_tree(tree)
    theta0 = geo.normalize_angle(cfg.theta0)
    a_std = sector_area(cfg.r0, cfg.h0, cfg.beta0)
    relax = cfg.relax_enabled
    # Records are built with positional arguments, in field order: keyword
    # matching adds half or more to a record's __init__.
    nodes: list[PlacedNode] = [
        PlacedNode(
            tree.id, tree.label, tree.color, tree.data, 0, None,
            SectorGeometry(theta0, cfg.beta0, 0.0, cfg.r0, cfg.h0, 0.0),
        )
    ]
    visits = 1

    # Frame stack: (parent model node, frame start, frame width, parent's
    # wedge angle, incoming angle scale, child inner radius, wedge ratio,
    # child depth, parent's rotation).  Frames are placed unrotated; the
    # rotation, None while no ancestor has moved, is added to each sector.
    stack: list[tuple] = [(tree, theta0, cfg.beta0, 0.0, TAU, cfg.r0 + cfg.h0, cfg.ar0, 1, None)]
    while stack:
        parent, f_theta, f_beta, p_alpha, scale_in, r, ar, depth, rot = stack.pop()
        children = parent.children
        if not children:
            continue
        total = math.fsum(c.data for c in children)
        # Children whose angles already fit, even at a sum that underflows
        # to 0, keep the incoming scale.
        if cfg.mode == "contained" and 0.0 < f_beta < scale_in * total:
            scale = scale_in * (f_beta / (scale_in * total))
        else:
            scale = scale_in
        # A scale compressed to 0 would need an infinite ring.
        h = _height_for_scale(r, scale, a_std) if scale > 0.0 else math.inf
        big_r = r + h
        # The one check of the frame: past it 0 <= r < big_r < inf, which
        # every wedge and top-up solve below needs.  Children whose data
        # dwarfs a subnormal parent's leave no finite height; a ring far
        # thinner than its radius, or a solve that overflows, one that
        # r + h loses.
        if not r < big_r < math.inf:
            rule = "non-finite-ring-height" if not math.isfinite(h) else "unrepresentable-ring-height"
            raise ValueError(
                f"node {parent.id!r}: {rule}: children of data sum {total!r} in a frame of "
                f"angle {f_beta!r} give ring height {h!r} at radius {r!r}, outer radius {big_r!r}"
            )

        # Pass 1: place every child sector, packed from the frame start.
        # Each entry is [child, theta, beta, wedge angle, rotation].  A
        # child's rotation is its parent's plus its own offset, 0.0 unless
        # relaxation moves it.
        child_rot = None if rot is None else rot + 0.0
        placed: list[list] = []
        theta_c = f_theta
        for child in children:
            beta_c = scale * child.data
            placed.append([child, theta_c, beta_c, 0.0, child_rot])
            theta_c += beta_c
            visits += 1

        # Pass 2: fix wedge angles (full annuli and zero-width nodes exempt).
        # The geometric cap depends only on the frame's radii.
        cap = _wedge_cap(r, big_r)
        for entry in placed:
            beta_c = entry[2]
            if beta_c > 0.0 and not is_full_turn(beta_c):
                entry[3] = _clamp_wedge_angle(ar, beta_c, cap)
            visits += 1

        if relax:
            _relax_thin_runs(placed, f_theta, f_beta, p_alpha, cfg.relax_threshold, rot)

        # Pass 3: top-ups, node records, and child frames.
        recurse: list[tuple] = []
        for child, theta_child, beta_c, alpha, child_rot in placed:
            h_top = 0.0
            if alpha > 0.0:
                # A wedge pair whose area rounds to 0 or below needs no
                # top-up.  One whose area overflows, which takes a child
                # dwarfing its parent at radii near 1e154, can get none.
                lost = _wedge_pair_area(r, h, alpha)
                if not lost <= 0.0:
                    h_top = _topup_height(big_r, beta_c, alpha, lost)
                if not (-math.inf < lost and h_top < math.inf):
                    raise ValueError(
                        f"node {child.id!r}: non-finite-topup-height: wedges of angle "
                        f"{alpha!r} cut from a ring of radius {r!r} and height {h!r} "
                        f"have area {lost!r} and give top-up height {h_top!r}"
                    )
            theta = theta_child if child_rot is None else theta_child + child_rot
            sector = SectorGeometry(theta, beta_c, alpha, r, h, h_top)
            nodes.append(
                PlacedNode(
                    child.id, child.label, child.color, child.data, depth, parent.id, sector,
                    child_rot is not None,
                )
            )
            visits += 1
            if child.children:
                recurse.append((
                    child, theta_child + 0.5 * alpha, beta_c - alpha, alpha,
                    scale, big_r + h_top, ar * cfg.acr, depth + 1, child_rot,
                ))
        stack.extend(reversed(recurse))

    return Layout(style="rit", config=cfg, a_std=a_std, nodes=tuple(nodes), visits=visits)


def _relax_thin_runs(
    placed: list[list], f_theta: float, f_beta: float, p_alpha: float,
    threshold: float, rot: float | None,
) -> None:
    """Re-space each run of consecutive children with data below ``threshold``.

    A run keeps each shape's angular extent but slides the shapes so the
    gaps between cut edges inside its span come out equal.  The span
    reaches from the cut edge of the nearest non-thin sibling on each side,
    or past the frame edge by the parent's half wedge angle ``p_alpha / 2``
    at a group boundary.  All edges are unrotated; each moved entry's
    rotation becomes its parent's rotation ``rot`` (0 if None) plus its own
    offset.
    """
    i = 0
    n = len(placed)
    while i < n:
        if placed[i][0].data >= threshold:
            i += 1
            continue
        j = i
        while j < n and placed[j][0].data < threshold:
            j += 1
        if i > 0:
            _, theta, beta, alpha, _ = placed[i - 1]
            span_lo = theta + beta - 0.5 * alpha
        else:
            span_lo = f_theta - 0.5 * p_alpha
        if j < n:
            _, theta, _, alpha, _ = placed[j]
            span_hi = theta + 0.5 * alpha
        else:
            span_hi = f_theta + f_beta + 0.5 * p_alpha
        run = placed[i:j]
        starts = [theta + 0.5 * alpha for _, theta, _, alpha, _ in run]
        widths = [
            theta + beta - 0.5 * alpha - start
            for (_, theta, beta, alpha, _), start in zip(run, starts)
        ]
        gap = (span_hi - span_lo - math.fsum(widths)) / (len(run) + 1)
        edge = span_lo + gap
        base = 0.0 if rot is None else rot
        for entry, start, width in zip(run, starts, widths):
            entry[4] = base + (edge - start)
            edge += width + gap
        i = j


def layout_sunburst(tree: NormalizedNode, cfg: LayoutConfig = LayoutConfig()) -> Layout:
    """Classic sunburst: constant ring height, angle proportional to data."""
    _check_tree(tree)
    theta0 = geo.normalize_angle(cfg.theta0)
    return _place_proportional(tree, cfg, "sunburst", SectorGeometry, theta0, cfg.beta0, cfg.r0)


def layout_icicle(tree: NormalizedNode, cfg: LayoutConfig = LayoutConfig()) -> Layout:
    """Cartesian icicle: rows of height h0, width proportional to data, no gaps.

    The root width is a_std / h0, so rectangle areas equal data * a_std and
    all three styles share one area scale.
    """
    _check_tree(tree)
    width0 = sector_area(cfg.r0, cfg.h0, cfg.beta0) / cfg.h0
    return _place_proportional(tree, cfg, "icicle", BandGeometry, 0.0, width0, 0.0)


def _place_proportional(
    tree: NormalizedNode, cfg: LayoutConfig, style: str, geometry: type[SectorGeometry],
    origin: float, scale: float, base: float,
) -> Layout:
    """Gapless proportional placement, one visit per node in preorder.

    A node's extent is ``scale * data``, packed from its parent's start
    (the root's from ``origin``); its row starts at ``base + depth * h0``.
    """
    a_std = sector_area(cfg.r0, cfg.h0, cfg.beta0)
    nodes: list[PlacedNode] = []
    # (node, start, parent id, depth)
    stack: list[tuple[NormalizedNode, float, str | None, int]] = [(tree, origin, None, 0)]
    while stack:
        node, start, parent, depth = stack.pop()
        sector = geometry(start, scale * node.data, 0.0, base + depth * cfg.h0, cfg.h0, 0.0)
        nodes.append(
            PlacedNode(node.id, node.label, node.color, node.data, depth, parent, sector)
        )
        pending = []
        child_start = start
        for child in node.children:
            pending.append((child, child_start, node.id, depth + 1))
            child_start += scale * child.data
        stack.extend(reversed(pending))
    return Layout(style=style, config=cfg, a_std=a_std, nodes=tuple(nodes), visits=len(nodes))


def compute_layout(tree: NormalizedNode, style: str, cfg: LayoutConfig = LayoutConfig()) -> Layout:
    if style == "rit":
        return layout_rit(tree, cfg)
    if style == "sunburst":
        return layout_sunburst(tree, cfg)
    if style == "icicle":
        return layout_icicle(tree, cfg)
    raise ValueError(f"unknown style {style!r}; expected one of {STYLES}")


# The exact type of each field of the geometry document that is not a
# number; ``color`` may also be None.  A number must be a finite exact
# ``float``, which ``repr`` spells as JSON does.
_JSON_TYPES = {"style": str, "id": str, "depth": int, "relaxed": bool, "color": str, "label": str}


def _require_json(where: str, values: dict) -> None:
    """Raise ValueError naming ``where`` and the first of ``values`` that the
    writer cannot spell exactly.  Finite floats whose sum overflows pass."""
    for name, value in values.items():
        wanted = _JSON_TYPES.get(name, float)
        if type(value) is not wanted and not (name == "color" and value is None) or (
                wanted is float and not math.isfinite(value)):
            finite = "a finite " if wanted is float else ""
            raise ValueError(f"{where}: {name} {value!r} is not {finite}{wanted.__name__}")


def _path_json(
    node_id: str, loops: tuple[tuple[geo.Segment, ...], ...],
    r_in: float, r_in_text: str, theta: float, theta_text: str,
) -> str:
    """A node's segments, loop by loop, as the items of its ``"path"`` list (indent 4).

    A segment that is not an exact ``tuple`` of finite exact ``float``s
    raises ``ValueError`` naming the node.  A line's ``x0``/``y0`` equal to
    the last line's end, and an arc's ``radius``/``start`` equal to the
    node's ``r_in``/``theta``, reuse that number's text (see ``_nodes_json``).
    """
    items = []
    # The end of the last line written, and its text.
    x = y = None
    x_text = y_text = ""
    for loop in loops:
        for seg in loop:
            if type(seg) is not tuple:
                raise ValueError(f"node {node_id!r}: path segment {seg!r} is not a tuple")
            if len(seg) == 4:
                x0, y0, x1, y1 = seg
                if not (type(x0) is type(y0) is type(x1) is type(y1) is float
                        and math.isfinite(x0 + y0 + x1 + y1)):
                    _require_json(f"node {node_id!r}: path line", dict(zip(("x0", "y0", "x1", "y1"), seg)))
                x0_text = x_text if x0 == x and x0 else repr(x0)
                y0_text = y_text if y0 == y and y0 else repr(y0)
                x, y, x_text, y_text = x1, y1, repr(x1), repr(y1)
                items.append(
                    '    {\n     "type": "line",\n'
                    f'     "x0": {x0_text},\n     "y0": {y0_text},\n'
                    f'     "x1": {x_text},\n     "y1": {y_text}\n    }}'
                )
            else:
                radius, start, end = seg
                if not (type(radius) is type(start) is type(end) is float
                        and math.isfinite(radius + start + end)):
                    _require_json(f"node {node_id!r}: path arc", dict(zip(("radius", "start", "end"), seg)))
                items.append(
                    '    {\n     "type": "arc",\n'
                    f'     "radius": {r_in_text if radius == r_in and radius else repr(radius)},\n'
                    f'     "start": {theta_text if start == theta and start else repr(start)},\n'
                    f'     "end": {end!r}\n    }}'
                )
    return ",\n".join(items)


def _nodes_json(nodes: tuple[PlacedNode, ...]) -> list[str]:
    """Each node as an item of the ``"nodes"`` list (indent 2).

    A field the writer cannot spell exactly raises ``ValueError`` naming the
    node (see ``_JSON_TYPES``).  Siblings share ``r_in`` and ``height``, and
    outline segments share corners, so a number equal to the one just
    written in its matching slot reuses that text instead of spelling it
    again: two equal finite floats other than zero have the same bits, so
    the same ``repr``.  Zero is spelled each time, because ``0.0 == -0.0``
    but the two spell differently.
    """
    items = []
    # The previous node's r_in and height, and their texts.
    last_r_in = last_height = None
    last_r_in_text = last_height_text = ""
    for n in nodes:
        s = n.sector
        theta, beta, alpha, r_in = s.theta, s.beta, s.alpha, s.r_in
        height, topup = s.height, s.topup_height
        node_id, label, color, depth, relaxed = n.id, n.label, n.color, n.depth, n.relaxed
        if not (
            type(theta) is type(beta) is type(alpha) is type(r_in) is type(height)
            is type(topup) is float
            and math.isfinite(theta + beta + alpha + r_in + height + topup)
            and type(node_id) is type(label) is str
            and (color is None or type(color) is str)
            and type(depth) is int
            and type(relaxed) is bool
        ):
            _require_json(f"node {node_id!r}", {
                "id": node_id, "depth": depth, "theta": theta, "beta": beta, "alpha": alpha,
                "r_in": r_in, "height": height, "topup_height": topup, "relaxed": relaxed,
                "color": color, "label": label})
        theta_text = repr(theta)
        r_in_text = last_r_in_text if r_in == last_r_in and r_in else repr(r_in)
        height_text = last_height_text if height == last_height and height else repr(height)
        body = _path_json(node_id, n.path.loops, r_in, r_in_text, theta, theta_text)
        items.append(
            f'  {{\n   "id": {encode_basestring_ascii(node_id)},\n   "depth": {depth!r},\n'
            f'   "theta": {theta_text},\n   "beta": {beta!r},\n   "alpha": {alpha!r},\n'
            f'   "r_in": {r_in_text},\n   "height": {height_text},\n   "topup_height": {topup!r},\n'
            f'   "relaxed": {"true" if relaxed else "false"},\n'
            f'   "color": {"null" if color is None else encode_basestring_ascii(color)},\n'
            f'   "label": {encode_basestring_ascii(label)},\n'
            f'   "path": [\n{body}\n   ]\n  }}'
        )
        last_r_in, last_r_in_text, last_height, last_height_text = (
            r_in, r_in_text, height, height_text)
    return items


def layout_to_json(layout: Layout) -> str:
    """Geometry export: {a_std, style, nodes: [...]} with full float precision.

    The bytes are those of ``json.dumps(doc, indent=" ")``, a one-space
    indent, for the document ``{"a_std", "style", "nodes": [{"id", "depth",
    "theta", "beta", "alpha", "r_in", "height", "topup_height", "relaxed",
    "color", "label", "path": [segment, ...]}, ...]}``, where an arc
    ``(radius, start, end)`` is ``{"type": "arc", "radius", "start", "end"}``
    and a line ``(x0, y0, x1, y1)`` is ``{"type": "line", "x0", "y0", "x1",
    "y1"}``.  It is written directly, one string per node and per segment,
    because any indent sends ``json.dumps`` to its pure-Python encoder; the
    head rides on the first node's string and the tail on the last.

    Every layout the package builds holds plain floats, as ``LayoutConfig``
    and ``normalize`` store them.  A layout without nodes, or one holding a
    value the writer cannot spell exactly (a non-finite or non-``float``
    number, a bool ``depth``, an int ``relaxed``, a non-``str`` id, label or
    colour, a segment that is not a ``tuple``), raises ``ValueError`` naming
    the node or ``a_std``/``style``, so the text is always strict JSON.
    """
    _require_json("layout", {"a_std": layout.a_std, "style": layout.style})
    if not layout.nodes:
        raise ValueError("layout: no nodes to write")
    items = _nodes_json(layout.nodes)
    items[0] = (
        f'{{\n "a_std": {layout.a_std!r},\n "style": {encode_basestring_ascii(layout.style)},\n'
        f' "nodes": [\n{items[0]}'
    )
    items[-1] += "\n ]\n}"
    return ",\n".join(items)
