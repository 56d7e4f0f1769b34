"""Smoke tests: every example script must run end-to-end (reduced sizes)."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def load_example(name: str):
    spec = importlib.util.spec_from_file_location(f"example_{name}", EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # type: ignore[union-attr]
    return module


def run_main(module, argv: list[str], monkeypatch) -> None:
    monkeypatch.setattr(sys, "argv", ["prog", *argv])
    module.main()


class TestExamples:
    def test_quickstart(self, capsys, monkeypatch):
        run_main(load_example("quickstart"), [], monkeypatch)
        out = capsys.readouterr().out
        assert out.count("OK") == 8  # 4 ranks x 2 API layers
        assert "MISMATCH" not in out

    def test_tiff_volume_rendering(self, capsys, monkeypatch, tmp_path):
        run_main(
            load_example("tiff_volume_rendering"),
            ["--size", "24", "16", "12", "--ranks", "8",
             "--out", str(tmp_path / "render")],
            monkeypatch,
        )
        out = capsys.readouterr().out
        assert "renders no_ddr vs rr agree: True" in out
        assert (tmp_path / "render" / "tooth.ppm").exists()
        assert (tmp_path / "render" / "tooth.jpg").exists()

    def test_lbm_in_transit(self, capsys, monkeypatch, tmp_path):
        run_main(
            load_example("lbm_in_transit"),
            ["--grid", "48", "24", "--m", "3", "--n", "2",
             "--steps", "40", "--output-every", "20",
             "--out", str(tmp_path / "frames")],
            monkeypatch,
        )
        out = capsys.readouterr().out
        assert "data reduction" in out
        assert len(list((tmp_path / "frames").glob("*.jpg"))) == 2

    def test_lbm_multivariable(self, capsys, monkeypatch, tmp_path):
        run_main(
            load_example("lbm_in_transit"),
            ["--grid", "48", "24", "--m", "2", "--n", "2",
             "--steps", "20", "--output-every", "20",
             "--variables", "vorticity", "speed",
             "--obstacle", "circle",
             "--out", str(tmp_path / "mv")],
            monkeypatch,
        )
        out = capsys.readouterr().out
        assert "per-variable JPEG bytes" in out

    @pytest.mark.slow
    def test_reproduce_paper_fast(self, capsys, monkeypatch):
        run_main(load_example("reproduce_paper"), ["--fast"], monkeypatch)
        out = capsys.readouterr().out
        assert "Table III" in out
        assert "all artifacts regenerated" in out
