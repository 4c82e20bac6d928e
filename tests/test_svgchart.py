import hashlib

import pytest

from punctrl.svgchart import Series, _ticks, emit_linechart


def read(path):
    return path.read_text()


class TestEmitLinechart:
    def test_empty_summary_yields_valid_axes_only_file(self, tmp_path):
        path = tmp_path / "empty.svg"
        emit_linechart([], path, "t")
        text = read(path)
        assert text.startswith('<?xml version="1.0"')
        assert "<svg" in text and text.rstrip().endswith("</svg>")
        assert "<polyline" not in text

    def test_one_polyline_per_series(self, tmp_path):
        series = [
            Series("eg", [1, 2], [1.0, 2.0], lo=[0.5, 1.5], hi=[1.5, 2.5]),
            Series("vb", [1, 2], [2.0, 1.0], lo=[1.5, 0.5], hi=[2.5, 1.5]),
        ]
        path = tmp_path / "two.svg"
        emit_linechart(series, path, "t")
        text = read(path)
        assert text.count("<polyline") == 2

    def test_band_renders_polygon(self, tmp_path):
        series = [Series("me", [1, 2, 3], [1.0, 2.0, 1.5], lo=[0.5, 1.5, 1.0], hi=[1.5, 2.5, 2.0])]
        path = tmp_path / "band.svg"
        emit_linechart(series, path, "t")
        assert read(path).count("<polygon") == 1

    def test_baseline_draws_dashed_line(self, tmp_path):
        path = tmp_path / "base.svg"
        emit_linechart([Series("eg", [0, 1], [0.0, 1.0], lo=[0.0, 0.8], hi=[0.2, 1.0])], path, "t",
                       baseline=0.5)
        text = read(path)
        assert text.count("stroke-dasharray") == 1
        assert "manual" in text

    def test_deterministic_bytes(self, tmp_path):
        mean = [v * 0.37 for v in range(10)]
        series = [Series("eg", list(range(10)), mean, lo=[v - 0.1 for v in mean],
                         hi=[v + 0.2 for v in mean])]
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        emit_linechart(series, a, "rewards", baseline=1.23)
        emit_linechart(series, b, "rewards", baseline=1.23)
        assert a.read_bytes() == b.read_bytes()

    def test_constant_series_does_not_degenerate(self, tmp_path):
        path = tmp_path / "const.svg"
        const = [5.0, 5.0, 5.0]
        emit_linechart([Series("eg", [1, 2, 3], const, lo=const, hi=const)], path, "t")
        # "dominant-baseline" contains the substring "nan"
        text = read(path).replace("dominant-baseline", "")
        assert "nan" not in text and "inf" not in text

    def test_markup_in_title_and_labels_is_escaped(self, tmp_path):
        import xml.etree.ElementTree as ET

        path = tmp_path / "markup.svg"
        emit_linechart([Series("<x>&y", [1, 2], [1.0, 2.0], lo=[0.5, 1.5], hi=[1.5, 2.5])],
                       path, "a & b < c")
        texts = [el.text for el in ET.parse(path).iter("{http://www.w3.org/2000/svg}text")]
        assert texts.count("a & b < c") == 2  # the title and the y-axis label
        assert "<x>&y" in texts

    def test_range_of_one_float_spacing_ends(self, tmp_path, polyline_ys):
        # vb's mean of three 0.1s is 0.10000000000000002, one float spacing
        # above 0.1: the chart ends and draws both means at one height
        series = [Series("eg", [1], [0.1], lo=[0.1], hi=[0.1]),
                  Series("vb", [1], [0.10000000000000002], lo=[0.1], hi=[0.1])]
        path = tmp_path / "narrow.svg"
        emit_linechart(series, path, "t")
        assert len(polyline_ys(read(path))) == 1


def test_ticks_stop_when_the_step_cannot_move_them():
    assert _ticks(0.5, 0.5 + 2**-53) == [0.5]


def _band(label, xs, mean, width):
    return Series(label, list(xs), list(mean), lo=[v - width for v in mean],
                  hi=[v + width for v in mean])


# Inputs that reach every branch of emit_linechart; each case is (series, title, baseline).
PIN_CASES = {
    "empty": ([], "t", None),
    "one_point": ([Series("eg", [3], [1.5], lo=[1.0], hi=[2.0])], "reward", None),
    "six_fallback": (
        [_band(f"s{i}", range(1, 9), [0.3 * i + 0.1 * x for x in range(8)], 0.05 * (i + 1))
         for i in range(6)],
        "mean reward",
        -2.5,
    ),
    "constant": ([Series("vb", [1, 2, 3], [5.0] * 3, lo=[5.0] * 3, hi=[5.0] * 3)], "c", None),
    "markup": (
        [_band("me", [0, 5, 10], [-1.0, 0.5, 2.0], 0.4),
         _band("<x>&y", [0, 5, 10], [0.0, -0.5, 1.0], 0.2)],
        "a & b < c > d",
        0.25,
    ),
}

# sha256 of each case's file, computed before the element writers were merged
PIN_DIGESTS = {
    "empty": "67deeadd19a38fc7e40c3ec707caedd13845e84b24e4ab14b0caf6c280c8517a",
    "one_point": "b9b327d728ca39ea5a17de0989d9f49223f0bd25468d73724296211e5b6991d3",
    "six_fallback": "6acc41ba60e3f610980b88dab3dc5938d18abf1d27662ac3cf30fab5c2677b36",
    "constant": "7f3948f29e755fb7615b784d49efd859278718bed78c9123f235c1cc8e255a47",
    "markup": "fdb4bf16d78c53ebbae2297436e0c685267591973936f5fc7d236176884ad7ad",
}


@pytest.mark.parametrize("case", sorted(PIN_CASES))
def test_chart_bytes_pinned(tmp_path, case, host_numerics):
    series, title, baseline = PIN_CASES[case]
    path = tmp_path / f"{case}.svg"
    emit_linechart(series, path, title, baseline=baseline)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PIN_DIGESTS[case], host_numerics
