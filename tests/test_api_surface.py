"""Coverage for small public-API helpers not exercised elsewhere."""

import xml.etree.ElementTree as ET

import pytest

from repro.paperdata.categories import FunctionalityCategory
from repro.viz import FUNCTIONALITY_COLORS, GENERATION_COLORS, LEAF_COLORS


class TestVizColorTables:
    def test_functionality_colors_cover_all_categories(self):
        assert set(FUNCTIONALITY_COLORS) == set(FunctionalityCategory)

    def test_leaf_colors_cover_all_categories(self):
        from repro.paperdata.categories import LeafCategory

        assert set(LEAF_COLORS) == set(LeafCategory)

    def test_generation_colors_distinct(self):
        assert len(set(GENERATION_COLORS.values())) == 3

    def test_all_colors_valid_hex(self):
        for table in (FUNCTIONALITY_COLORS, LEAF_COLORS, GENERATION_COLORS):
            for color in table.values():
                assert color.startswith("#") and len(color) == 7
                int(color[1:], 16)


class TestVizFigureFunctions:
    """Each per-figure SVG function produces parseable output with its
    figure's title (render_all covers the batch path; these cover the
    individual entry points)."""

    @pytest.mark.parametrize(
        "function_name,needle",
        [
            ("fig15_svg", "Fig. 15"),
            ("fig19_svg", "Fig. 19"),
            ("fig20_svg", "Fig. 20"),
            ("fig21_svg", "Fig. 21"),
            ("fig22_svg", "Fig. 22"),
        ],
    )
    def test_standalone_figures(self, function_name, needle):
        import repro.viz as viz

        svg = getattr(viz, function_name)()
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        assert needle in svg

    def test_run_backed_figures(self, cache1_run):
        import repro.viz as viz

        runs = {"cache1": cache1_run}
        for function_name in ("fig1_svg", "fig2_svg", "fig9_svg"):
            svg = getattr(viz, function_name)(runs)
            ET.fromstring(svg)

    def test_generation_figures(self, generation_runs):
        import repro.viz as viz

        for function_name in ("fig8_svg", "fig10_svg"):
            svg = getattr(viz, function_name)(generation_runs)
            ET.fromstring(svg)
