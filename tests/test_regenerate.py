"""``results/regenerate.py``: what the figure pass commits."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

from repro.experiments import run

REGENERATE = Path(__file__).resolve().parents[1] / "results" / "regenerate.py"


def _load_regenerate():
    spec = importlib.util.spec_from_file_location("regenerate", REGENERATE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_saved_figures_drop_host_time_columns(tmp_path, monkeypatch):
    """Host wall-clock columns (Figure 12's ``host ms/scan``) stay in the
    printed table but never reach a committed figure JSON, so
    regenerating unchanged code rewrites the JSONs byte for byte."""
    regenerate = _load_regenerate()
    monkeypatch.setattr(regenerate, "OUT", tmp_path)
    monkeypatch.setattr(regenerate, "SCALE", "smoke")
    monkeypatch.setattr(regenerate, "EXPERIMENTS", ["fig12"])
    regenerate.regenerate_figures()

    rows = json.loads((tmp_path / "fig12.json").read_text())["rows"]
    assert rows
    for row in rows:
        assert not [key for key in row if "host ms" in key]
        assert "ISR modelled ms/scan" in row
    printed = run("fig12", scale="smoke", seed=regenerate.SEED).rows
    assert all("ISR host ms/scan" in row for row in printed)
