"""Command-line interface.

Subcommands: render (SVG), layout (geometry JSON), compare (icicle +
sunburst + rit SVGs with a diagnostics JSON), bench (scalability CSV with
a linear fit), validate (input checks).

Exit codes: 0 ok, 1 usage error or failed write, 2 input error, 3 validation
failure.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import os
import stat
import sys
from pathlib import Path as FsPath

from .bench import (
    DEFAULT_NODE_CAP,
    GeneratorSpec,
    gc_paused,
    records_to_csv,
    run_bench,
)
from .colors import PALETTES, assign_colors
from .diagnostics import diagnostics
from .generate import KINDS
from .layout import MODES, STYLES, Layout, LayoutConfig, compute_layout, layout_to_json
from .svg import RenderStyle, render_svg
from .tree import (
    NormalizationError,
    TreeInputError,
    TreeNode,
    detect_format,
    normalize,
    parse_tree,
    validate,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_VALIDATION = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # noqa: D102 - argparse hook
        raise _UsageError(message)


def _angle(text: str) -> float:
    """Float, optionally scaled by pi: '0.5pi' -> 0.5*pi."""
    s = text.strip().lower()
    if s.endswith("pi"):
        factor = s[:-2].strip() or "1"
        return float(factor) * math.pi
    return float(s)


def _depth_range(text: str) -> list[int]:
    """'1..8' or '2,4,6' -> list of depths."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(p) for p in text.split(",") if p]


def _add_config_args(p: argparse.ArgumentParser) -> None:
    # Each dest names the LayoutConfig field the flag fills (see _from_args).
    c = LayoutConfig
    p.add_argument("--theta0", type=_angle, default=c.theta0, help="root start angle (rad; accepts e.g. 1.25pi)")
    p.add_argument("--beta0", type=_angle, default=c.beta0, help="root arc angle (rad)")
    p.add_argument("--r0", type=float, default=c.r0, help="root inner radius")
    p.add_argument("--h0", type=float, default=c.h0, help="root ring height")
    p.add_argument("--ar", dest="ar0", type=float, default=c.ar0, help="initial wedge angle ratio")
    p.add_argument("--acr", type=float, default=c.acr, help="per-depth wedge ratio multiplier")
    p.add_argument("--mode", choices=MODES, default=c.mode)
    p.add_argument("--relax", dest="relax_enabled", action="store_true", help="re-space runs of thin siblings")
    p.add_argument("--relax-threshold", type=float, default=c.relax_threshold)


def _add_render_style_args(p: argparse.ArgumentParser) -> None:
    # Each dest but --palette's names the RenderStyle field the flag fills.
    p.add_argument("--canvas", type=int, default=RenderStyle.canvas, help="canvas size in pixels")
    p.add_argument("--svg-margin", dest="margin", type=float, default=RenderStyle.margin)
    p.add_argument("--labels", dest="draw_labels", action="store_true", help="draw node labels")
    p.add_argument("--palette", choices=PALETTES, default=PALETTES[0])


def _from_args(cls, args: argparse.Namespace):
    """A ``cls`` built, and so checked, from the parsed flags named after its fields."""
    return cls(**{f.name: getattr(args, f.name) for f in dataclasses.fields(cls)})


def _read_tree(path: str) -> TreeNode:
    try:
        data = FsPath(path).read_bytes()
    except OSError as exc:
        raise TreeInputError(f"cannot read {path}: {exc}") from exc
    return parse_tree(data, detect_format(path))


@contextlib.contextmanager
def _output_file(path: str, mode: str, encoding: str | None = None):
    """``path`` opened for writing before the command reads its input.

    ``-`` is standard output: ``sys.stdout.buffer`` in binary mode,
    ``sys.stdout`` in text mode; it is neither opened nor closed here.
    Any other unwritable path then fails at once, not after a whole layout.
    Opening does not truncate: the command writes from the start and a
    regular file is cut at the end of what it wrote.  If the command
    fails, a file this call created is removed; a file that already
    existed is left as it was unless the failure came while writing.
    """
    if path == "-":
        yield sys.stdout.buffer if "b" in mode else sys.stdout
        return
    fd, created = _open_output(path)
    try:
        with open(fd, mode, encoding=encoding) as out:
            yield out
            if stat.S_ISREG(os.fstat(fd).st_mode):
                out.truncate()
    except BaseException:
        if created is not None:
            with contextlib.suppress(OSError):
                os.unlink(created)
        raise


def _open_output(path: str) -> tuple[int, str | None]:
    """A write-only descriptor for ``path`` and the file it created, if any.

    An existing file is opened without ``O_CREAT``, so only the exclusive
    create can make a file and ``created`` names every file this call made.
    When the plain open finds nothing, ``path`` is a dangling symlink or was
    removed between the two opens; the exclusive create is then retried on
    the path with its links resolved.
    """
    for _ in range(2):
        try:
            return os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), path
        except FileExistsError:
            pass
        try:
            return os.open(path, os.O_WRONLY), None
        except FileNotFoundError:
            path = os.path.realpath(path)
    return os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), path


@functools.cache
def build_parser() -> _Parser:
    """The ``rit`` parser, built once per process and reused by every ``main`` call."""
    parser = _Parser(prog="rit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name, text in (("render", "render one style to an SVG file"),
                       ("layout", "write the geometry JSON for one style")):
        p_one = sub.add_parser(name, help=text)
        p_one.add_argument("--input", required=True)
        p_one.add_argument("--output", required=True, help="output path, or - for stdout")
        p_one.add_argument("--style", choices=STYLES, default="rit")
        _add_config_args(p_one)
        if name == "render":
            _add_render_style_args(p_one)

    p_cmp = sub.add_parser("compare", help="render all three styles plus diagnostics")
    p_cmp.add_argument("--input", required=True)
    p_cmp.add_argument("--outdir", required=True)
    _add_config_args(p_cmp)
    _add_render_style_args(p_cmp)

    p_bench = sub.add_parser("bench", help="time layouts over generated trees")
    p_bench.add_argument("--generator", choices=KINDS, default="fixed")
    p_bench.add_argument("--cmax", type=int, default=2)
    p_bench.add_argument("--depths", type=_depth_range, default=[1, 2, 3, 4, 5, 6, 7, 8],
                         help="e.g. 1..8 or 2,4,6")
    p_bench.add_argument("--repeats", type=int, default=5)
    p_bench.add_argument("--csv", default=None, help="write records to this CSV file, or - for stdout")
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--node-cap", type=int, default=DEFAULT_NODE_CAP)

    p_val = sub.add_parser("validate", help="report value-rule violations")
    p_val.add_argument("--input", required=True)

    return parser


def _layout_of_input(args: argparse.Namespace, cfg: LayoutConfig, palette: str) -> Layout:
    """The ``args.style`` layout of the input tree coloured from ``palette``.

    The tree is freed when this returns, as a layout keeps no reference to
    it; the callers pass the layout on unnamed, so it is freed in turn once
    its document is built.
    """
    tree = assign_colors(normalize(_read_tree(args.input)), palette)
    return compute_layout(tree, args.style, cfg)


def _cmd_render(args: argparse.Namespace) -> int:
    cfg = _from_args(LayoutConfig, args)
    style = _from_args(RenderStyle, args)
    with _output_file(args.output, "wb") as out:
        out.write(render_svg(_layout_of_input(args, cfg, args.palette), style))
    return EXIT_OK


def _cmd_layout(args: argparse.Namespace) -> int:
    cfg = _from_args(LayoutConfig, args)
    with _output_file(args.output, "w", encoding="utf-8") as out:
        text = layout_to_json(_layout_of_input(args, cfg, PALETTES[0]))
        # The text and its newline are written apart, so the document is not copied.
        out.writelines((text, "\n"))
    return EXIT_OK


def _cmd_compare(args: argparse.Namespace) -> int:
    cfg = _from_args(LayoutConfig, args)
    style = _from_args(RenderStyle, args)
    tree = assign_colors(normalize(_read_tree(args.input)), args.palette)
    outdir = FsPath(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    # Every output is built and checked before the first is written, so a
    # refusal writes none.
    svgs: dict = {}
    report: dict = {}
    for name in STYLES:
        layout = compute_layout(tree, name, cfg)
        svgs[name] = render_svg(layout, style)
        report[name] = _require_finite_summary(name, diagnostics(layout).summary())
    for name, svg in svgs.items():
        (outdir / f"{name}.svg").write_bytes(svg)
    (outdir / "diagnostics.json").write_text(json.dumps(report, indent=1), encoding="utf-8")
    return EXIT_OK


def _require_finite_summary(style: str, summary: dict) -> dict:
    """``summary``, once every number in it is finite; else ``ValueError``
    naming ``style`` and the first field JSON has no number for."""
    for name, value in summary.items():
        values = value.items() if name == "area_ratios" else ((None, value),)
        for node, number in values:
            if isinstance(number, float) and not math.isfinite(number):
                where = name if node is None else f"{name} of node {node!r}"
                raise ValueError(f"{style}: {where} is {number!r}, which diagnostics.json cannot hold")
    return summary


def _cmd_bench(args: argparse.Namespace) -> int:
    # A bad spec, repeat count, node cap or depth range fails before the CSV
    # is opened, and an unwritable CSV before any tree is timed.
    specs = [
        GeneratorSpec(args.generator, args.cmax, depth, seed=args.seed + depth)
        for depth in args.depths
    ]
    if args.repeats < 1:
        raise ValueError(f"--repeats must be at least 1, got {args.repeats}")
    # The smallest tree a spec generates, at depth 1, has two nodes.
    if args.node_cap < 2:
        raise ValueError(f"--node-cap must be at least 2, got {args.node_cap}")
    if not specs:
        raise ValueError("--depths must name at least one depth")
    csv_out = _output_file(args.csv, "w", encoding="utf-8") if args.csv else contextlib.nullcontext()
    with csv_out as out:
        result = run_bench(specs, repeats=args.repeats, node_cap=args.node_cap)
        for spec in result.skipped:
            print(
                f"warning: skipped {spec.kind} cmax={spec.c_max} depth={spec.depth}: "
                f"more than {args.node_cap} nodes",
                file=sys.stderr,
            )
        if not result.records:
            raise ValueError(f"nothing was timed: every tree has more than {args.node_cap} nodes")
        if out is not None:
            out.write(records_to_csv(result.records))
    if result.fit.defined:
        print(
            f"fit over {len(result.records)} runs: time = {result.fit.slope:.3e}*N "
            f"+ {result.fit.intercept:.3e}, R^2 = {result.fit.r_squared:.4f}"
        )
    else:
        print("fit undefined: need at least two distinct node counts")
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    violations = validate(_read_tree(args.input))
    print(json.dumps([{"node": v.node_id, "rule": v.rule, "message": v.message}
                      for v in violations], indent=1))
    return EXIT_VALIDATION if violations else EXIT_OK


_COMMANDS = {
    "render": _cmd_render,
    "layout": _cmd_layout,
    "compare": _cmd_compare,
    "bench": _cmd_bench,
    "validate": _cmd_validate,
}


def main(argv: list[str] | None = None) -> int:
    """Run one ``rit`` command and return its exit code.

    The command runs with the cyclic garbage collector paused: its layouts
    build no reference cycles, yet every full collection would walk all of
    their records.  The caller's collector state is restored on every exit.
    """
    with gc_paused():
        try:
            args = build_parser().parse_args(argv)
        except _UsageError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        try:
            return _COMMANDS[args.command](args)
        except (TreeInputError, NormalizationError) as exc:
            print(f"input error: {exc}", file=sys.stderr)
            return EXIT_INPUT
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except OSError as exc:
            # Reads become TreeInputError where they happen, so this is a write.
            print(f"error: cannot write: {exc}", file=sys.stderr)
            return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
