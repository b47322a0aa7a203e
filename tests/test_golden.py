"""Byte-for-byte pins of the geometry JSON, SVG and diagnostics output.

Each case lays out a fixed input and compares the sha256 of
``layout_to_json`` and of ``render_svg`` with a recorded digest; each
tree is also run through ``rit compare`` and the sha256 of the
``diagnostics.json`` it writes is compared.  So a refactor that changes
any output byte fails here.  A change that alters output on purpose
regenerates both tables with

    PYTHONPATH=src python tests/test_golden.py

and says so in the change log.
"""

from __future__ import annotations

import hashlib
import math
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest

from rit_layout import (
    GeneratorSpec,
    LayoutConfig,
    RenderStyle,
    assign_colors,
    compute_layout,
    demo_tree,
    generate_tree,
    layout_to_json,
    normalize,
    render_svg,
    serialize_tree,
)
from rit_layout.cli import main

QUARTER = LayoutConfig(theta0=1.25 * math.pi, beta0=0.5 * math.pi, r0=20.5, h0=2.0)

SPECS = {
    "random": GeneratorSpec("random", 4, 4, seed=7),
    "semi": GeneratorSpec("semi-random", 5, 4, seed=11),
    # 1,024 leaves of data 1/1024: the only tree here thin at 1e-3.
    "wide": GeneratorSpec("fixed", 4, 5, seed=3),
}


def _relaxed(threshold: float, base: LayoutConfig = LayoutConfig()) -> LayoutConfig:
    return replace(base, relax_enabled=True, relax_threshold=threshold)


# name -> (tree source, style, config, render style)
CASES = {
    "demo-rit": ("demo", "rit", LayoutConfig(), RenderStyle()),
    "demo-rit-labels": ("demo", "rit", LayoutConfig(), RenderStyle(draw_labels=True)),
    "demo-quarter": ("demo", "rit", QUARTER, RenderStyle()),
    "demo-relax-0.01": (
        "demo", "rit", LayoutConfig(relax_enabled=True, relax_threshold=0.01), RenderStyle()
    ),
    "demo-relax-0.05": (
        "demo", "rit", LayoutConfig(relax_enabled=True, relax_threshold=0.05), RenderStyle()
    ),
    "demo-sunburst": ("demo", "sunburst", LayoutConfig(), RenderStyle()),
    "demo-icicle": ("demo", "icicle", LayoutConfig(), RenderStyle()),
    **{
        f"{name}-{style}": (name, style, LayoutConfig(), RenderStyle())
        for name in ("random", "semi")
        for style in ("rit", "sunburst", "icicle")
    },
    # random and semi have no node below 1e-3, so at that threshold the
    # JSON bytes are those of the unrelaxed layout.
    **{
        f"{name}-relax-{threshold!r}": (name, "rit", _relaxed(threshold), RenderStyle())
        for name in ("random", "semi")
        for threshold in (0.05, 1e-3)
    },
    "semi-literal-relax-0.05": (
        "semi", "rit", _relaxed(0.05, LayoutConfig(mode="literal")), RenderStyle()
    ),
    "random-quarter-relax-0.05": ("random", "rit", _relaxed(0.05, QUARTER), RenderStyle()),
    "wide-relax-0.001": ("wide", "rit", _relaxed(1e-3), RenderStyle()),
}

GOLDEN = {
    "demo-icicle": (
        "da59b2aea7d899d24f2458fc6662e739f6fd4791b3deb271ec16f076e443e2ab",
        "22c94a3c2bf6aa7c0a3f583ce44ed4e331d1e118bfd26d89e464b7b1f201078d",
    ),
    "demo-quarter": (
        "a676d30e07a938f667e738e92b51f94a970609085341b3d69a6e691cde7ee230",
        "878ede9cfa70b25296e955f44bf884e5d0d421619b8cd31f433ce144e5b6d01a",
    ),
    "demo-relax-0.01": (
        "508b96f6ec0ccd88b3c920d86871cbdc06bd3ff2485078b73ba43ba0766bf189",
        "e930b7601686266c483976cd86d7a83d675ca91153a6c71a51ec6f9350a57c5a",
    ),
    "demo-relax-0.05": (
        "9bd161d1d0d85b9f0a7ca421e2a7cf1e0990bcb51693d04098d9e5436bd45f1c",
        "433b59b331fb6e606a04349d2717b0bf83e286e4032f6a40c490fee850edd483",
    ),
    "demo-rit": (
        "508b96f6ec0ccd88b3c920d86871cbdc06bd3ff2485078b73ba43ba0766bf189",
        "d1122ace22d72678d0caecbdf1ef9662791f1f160465f52cc9dc88a7c1098f8e",
    ),
    "demo-rit-labels": (
        "508b96f6ec0ccd88b3c920d86871cbdc06bd3ff2485078b73ba43ba0766bf189",
        "39c2d53b838f017ea0ded5f797bef763f2c0e0e9c646e9df9c1f9dd40740743a",
    ),
    "demo-sunburst": (
        "ab0d969830ce60bff062d8277f46b5f2a37bb6def27b7fb2c5bd35f21385e29f",
        "52bccc464476c950dc78091bb7a2c4cdeb145a4553bd18e5edbd8fbd831fce6b",
    ),
    "random-icicle": (
        "f4a3158c06a5f159f566a4045f5561bb7f82d193110bc6b2ab57b08bc4ed3ca7",
        "04b29ae3a52cc47eba574c7f4e1d1025d8052123f32216a46131f88d6507a38c",
    ),
    "random-quarter-relax-0.05": (
        "fae2f7d72c6ca740a3846191f903fee9de94496ee7f94edf72f4af80cc397bbc",
        "6a515627e6b626a1fa9cb4c0840ac18800429265fa7037eb72a99c53bfd91072",
    ),
    "random-relax-0.001": (
        "baff649cf96b58b1ddf7f7a287a991495bed2ff724c36e734d64b89bf2e9f863",
        "77c8a6e306bfa50a01884ce769efe9938992344e1337cf9caf309f8c4bfc1726",
    ),
    "random-relax-0.05": (
        "9fb5809adadc152cb5b8d81dfaa5687ecf5cdba3164a55b6792811616fa12a4a",
        "9575f5842ddd30020cd74cc06b4849eef66d9405da72cf95a7941d7174283716",
    ),
    "random-rit": (
        "baff649cf96b58b1ddf7f7a287a991495bed2ff724c36e734d64b89bf2e9f863",
        "dbcf3dcd3b2c12858163c695d56f3209e2dacba5e1facab5ff81cec2d2c5a78a",
    ),
    "random-sunburst": (
        "498dbdc5a19f7ca13e9eaa6b64fa8e29070965e7122d57a26b1ec828064779d7",
        "52251677f102cc0a153f5c7b962642c98326675ee4e2dc513590553cfdc49e9d",
    ),
    "semi-icicle": (
        "c1ab5df1d6069d2f0b1cd9e764ed073f4cafe660b1f831edd6a60ebdedb4a582",
        "6c4b1bf87996ae020cfa424522f06d83cf194429c0986acbfcc9ff21b1b7f875",
    ),
    "semi-literal-relax-0.05": (
        "43cf351282fd7b4908dbf7ef0c3056d7e09f300a4b9824c680c16783a5e648e2",
        "77263e73f1ae1bf9aeff0c3e801ec6776c52279129b2ad655431b2a2a3350e43",
    ),
    "semi-relax-0.001": (
        "57285e66962a068eeec91abb81674b6f966789203d96dd32ef94b6ea38271e0b",
        "4a894b8e706adc2fbd35021e74d42316b3dafc4e2921d50403e279e698fca30d",
    ),
    "semi-relax-0.05": (
        "e5d14035ff74666804189a711eaa7780a0fa92a6daaa920d75ff03ccc88f5a87",
        "aa3b5e9ec03295bff55d859d462e0baffc1bcb21d0c60b213a4de143870403c5",
    ),
    "semi-rit": (
        "57285e66962a068eeec91abb81674b6f966789203d96dd32ef94b6ea38271e0b",
        "7de026e142d79646434d892eddce02cc19d8d9e3393ba7bbc20b9b700741d4a7",
    ),
    "semi-sunburst": (
        "936bed81a3731f348d58024604dae31b7f2d3b489194da77ab4850537d28e3e2",
        "25a7820519a443482ccc3c1e8fa2fae0754b3ef3a315290905c050addc9063bf",
    ),
    "wide-relax-0.001": (
        "329e94e0f386c97eee18845904f999cdb1df2a232ae7f9441b3ed14d66c85cd4",
        "54d7fe5b6a032864a014afac959dba500ef7be565a313745415284042f39fb57",
    ),
}


# tree source -> sha256 of the diagnostics.json that ``rit compare`` writes
# for it at the default config.
DIAGNOSTICS_GOLDEN = {
    "demo": "f4f829d2caa46617b510e7ff4e4bcf9bc9e00a25a1c8a8c7ec4cece6a1229c39",
    "random": "8ab7b80838ff0756d4f703a78c9009573c352c6291a1e06ec32f76884d7842bc",
    "semi": "def0c4a37e24be797b7e83d40ae64f24549ac97a8a4d2a2a6f07bd3c4fe78812",
    "wide": "8efb2517017756dd57a02a66c14c539000ef762b4a8ca6936b95479b0c03397e",
}


def _raw_tree(source: str):
    return demo_tree() if source == "demo" else generate_tree(SPECS[source])


def _digests(case: str) -> tuple[str, str]:
    source, style, cfg, render_style = CASES[case]
    layout = compute_layout(assign_colors(normalize(_raw_tree(source), "strict")), style, cfg)
    return (
        hashlib.sha256(layout_to_json(layout).encode("utf-8")).hexdigest(),
        hashlib.sha256(render_svg(layout, render_style)).hexdigest(),
    )


def _diagnostics_digest(source: str, workdir: Path) -> str:
    tree_file = workdir / f"{source}.json"
    tree_file.write_text(serialize_tree(_raw_tree(source), "json-tree"), encoding="utf-8")
    outdir = workdir / f"{source}-cmp"
    assert main(["compare", "--input", str(tree_file), "--outdir", str(outdir)]) == 0
    return hashlib.sha256((outdir / "diagnostics.json").read_bytes()).hexdigest()


def test_every_case_is_pinned():
    assert set(GOLDEN) == set(CASES)
    assert set(DIAGNOSTICS_GOLDEN) == {"demo", *SPECS}


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_bytes_unchanged(case):
    json_digest, svg_digest = _digests(case)
    assert json_digest == GOLDEN[case][0], "layout JSON bytes changed"
    assert svg_digest == GOLDEN[case][1], "SVG bytes changed"


@pytest.mark.parametrize("source", sorted(DIAGNOSTICS_GOLDEN))
def test_diagnostics_bytes_unchanged(source, tmp_path):
    assert _diagnostics_digest(source, tmp_path) == DIAGNOSTICS_GOLDEN[source], (
        "diagnostics.json bytes changed"
    )


if __name__ == "__main__":
    print("GOLDEN = {")
    for name in sorted(CASES):
        print(f"    {name!r}: {_digests(name)!r},")
    print("}")
    print("DIAGNOSTICS_GOLDEN = {")
    with tempfile.TemporaryDirectory() as workdir:
        for source in ("demo", *sorted(SPECS)):
            print(f"    {source!r}: {_diagnostics_digest(source, Path(workdir))!r},")
    print("}")
