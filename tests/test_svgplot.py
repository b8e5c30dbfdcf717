"""The SVG diagnostics' bytes, pinned on fixed inputs."""
import hashlib

import pytest

from pidual import svgplot

NAN = float("nan")

LINE_CHARTS = {
    # NaN gaps in several series, and a trailing one-point run in "c"
    "nan_gaps": (
        "training dynamics", "epoch", "accuracy",
        [
            ("a", [0, 1, 2, 3, 4, 5, 6], [0.1, 0.2, NAN, 0.4, 0.5, 0.55, 0.6]),
            ("b", [0, 1, 2, 3, 4, 5, 6], [0.9, 0.8, 0.7, NAN, NAN, 0.3, 0.25]),
            ("c", [0, 1, 2, 3, 4, 5, 6], [0.3, 0.35, 0.4, 0.45, NAN, NAN, 0.5]),
        ],
        None,
    ),
    "all_nan_with_range": (
        "dynamics", "epoch", "accuracy",
        [("noise net", [0, 1, 2], [NAN, NAN, NAN]), ("pred net", [0, 1, 2], [0.2, 0.6, 0.7])],
        (0.0, 1.0),
    ),
    "escaped_text": (
        'risk <&> "sweep"', "x & y", "<risk>",
        [('ols "fit"', [0.5, 1.0, 2.0], [3.0, 1e-4, 250.0])],
        None,
    ),
    "single_x": (
        "one point", "sigma", "risk",
        [("closed form", [2.0], [0.75]), ("monte carlo", [2.0], [0.8])],
        None,
    ),
}

HISTOGRAMS = {
    "twenty_bins": (
        "gate score distribution (train split)", "gate score", [i / 20 for i in range(21)],
        [0, 0, 3, 7, 12, 30, 41, 0, 5, 2, 0, 0, 1, 9, 15, 22, 0, 4, 0, 0],
        [5, 9, 0, 0, 2, 1, 0, 0, 0, 3, 8, 13, 0, 0, 1, 0, 0, 0, 6, 2],
    ),
    "three_bins": ("conf <&>", "confidence", [0.0, 0.25, 0.5, 1.0], [1, 0, 4], [0, 0, 0]),
}

# sha256 of each chart as written before svgplot drew every chart through one frame
PINNED = {
    "nan_gaps": "e4bbd3b86f08ea0c8313d6824c83ce7e489c5cb95de296aac3c3b2ebb70a5ade",
    "all_nan_with_range": "7f9886bbc88c9c8cf100eeb88637e2619a82ee25095c042e13dd35e35c4d76e2",
    "escaped_text": "1a938005f6e22f042f05a8f34bd5e1b1bc8cea4017f3c4472f7285a5afb1eec6",
    "single_x": "35164b5ef99bd86dadd79aec8d233d443c53c812aaeb0b2da0e0f36cef95f709",
    "twenty_bins": "6004e9cb21bd508ef71b3787e4f280095a8292d2d6da504c9afa185f63f602d4",
    "three_bins": "80417b3bf1ade6fa0475cd3aa09d2c50d94eb2c5578d315652e818c8391cfb56",
}


def _digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(LINE_CHARTS))
def test_line_chart_bytes_are_pinned(tmp_path, name):
    title, x_label, y_label, series, y_range = LINE_CHARTS[name]
    path = tmp_path / "chart.svg"
    svgplot.line_chart(path, title, x_label, y_label, series, y_range=y_range)
    assert _digest(path) == PINNED[name]


@pytest.mark.parametrize("name", sorted(HISTOGRAMS))
def test_paired_histogram_bytes_are_pinned(tmp_path, name):
    path = tmp_path / "hist.svg"
    svgplot.paired_histogram(path, *HISTOGRAMS[name])
    assert _digest(path) == PINNED[name]


def test_a_lone_point_before_a_nan_is_a_dot(tmp_path):
    path = tmp_path / "chart.svg"
    svgplot.line_chart(path, "t", "x", "y", [("a", [0, 1, 2, 3], [0.1, NAN, 0.3, 0.4])])
    svg = path.read_text()
    assert svg.count("<circle") == 1 and svg.count("<polyline") == 1
    assert '<circle cx="70.00" ' in svg
