"""Span bookkeeping, FFT counting and function wrapping of the tracer."""

import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from lansbench import tracer as tr

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("entry, shape, kwargs, expected", [
    ("fftn", (3, 8, 8, 8), {"axes": (1, 2, 3)}, (3, 512)),
    ("fftn", (8, 8, 8), {}, (1, 512)),
    ("rfftn", (2, 3, 8, 8, 8), {"axes": (-3, -2, -1)}, (6, 512)),
    ("fft2", (5, 8, 8), {}, (5, 64)),
    ("fft", (4, 8), {}, (4, 8)),
])
def test_fft_work_counts_scalar_transforms(entry, shape, kwargs, expected):
    a = np.zeros(shape)
    result = getattr(np.fft, entry)(a, **kwargs)
    assert tr.fft_work(entry, (a,), kwargs, result) == expected


def test_irfftn_counts_the_real_grid():
    spec = np.zeros((3, 8, 8, 5), dtype=complex)
    result = np.fft.irfftn(spec, axes=(1, 2, 3))
    assert tr.fft_work("irfftn", (spec,), {"axes": (1, 2, 3)}, result) == (3, 512)


def test_self_time_subtracts_children():
    t = tr.Tracer()
    t.enabled = True
    inner = t.wrap(lambda: time.sleep(0.02), "inner")
    outer = t.wrap(lambda: (time.sleep(0.01), inner(), inner()), "outer")
    t.span("root", outer)
    spans = {s[2]: s for s in t.spans}
    assert spans["outer"][1] == spans["root"][0]
    assert t.calls == {"root": 1, "outer": 1, "inner": 2}
    total = spans["root"][4] - spans["root"][3]
    assert sum(t.self_s.values()) == pytest.approx(total, rel=1e-9)
    assert t.self_s["inner"] >= 0.04 and t.self_s["outer"] >= 0.01


def test_fft_wrappers_count_and_uninstall():
    original = np.fft.fftn
    t = tr.Tracer()
    t.install_fft()
    try:
        t.enabled = True
        np.fft.fftn(np.zeros((3, 8, 8, 8)), axes=(1, 2, 3))
        np.fft.rfftn(np.zeros((8, 8, 8)))
    finally:
        t.uninstall()
    assert np.fft.fftn is original
    assert t.counters["spectral.fft.scalar_transforms"] == 4
    assert t.counters["spectral.fft.complex_transforms"] == 3
    assert t.counters["spectral.fft.real_transforms"] == 1
    assert t.counters["spectral.fft.points"] == 4 * 512
    assert t.calls["spectral.fft"] == 2


def test_lanslab_wrappers_name_layers_and_uninstall():
    import lanslab
    from lanslab import dynamics, ensembles

    originals = (lanslab.random_solenoidal, ensembles.random_band_limited, dynamics.nonlinear_rhs)
    t = tr.Tracer()
    t.install_lanslab()
    try:
        t.enabled = True
        grid = lanslab.TorusGrid(dim=3, points_per_axis=16)
        cfg = lanslab.LansConfig(grid=grid)
        u = lanslab.random_solenoidal(grid, 0, k_max=2.0)  # calls random_band_limited inside
        lanslab.nonlinear_rhs(u, cfg)
        dynamics.nonlinear_rhs(u, cfg, u)
        part = lanslab.build_partition(grid)
        part.besov_norm(u, lanslab.BesovIndex(1.0, 2.0, 2.0))
        part.besov_norm(u, lanslab.BesovIndex(1.0, 6.0, 2.0))
    finally:
        t.uninstall()
    assert (lanslab.random_solenoidal, ensembles.random_band_limited, dynamics.nonlinear_rhs) == originals
    m = t.metrics()
    assert m["ensembles.fields.calls"] == 1
    assert m["dynamics.nonlinear_rhs.calls"] == 1 and m["dynamics.nonlinear_rhs_bg.calls"] == 1
    assert m["dynamics.reynolds_stress.calls"] == 3
    assert m["littlewood_paley.besov_norm_p2.calls"] == 1 and m["littlewood_paley.besov_norm_pq.calls"] == 1
    assert m["littlewood_paley.build_partition.calls"] == 1


def test_benchmark_per_layer_names_are_produced():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = {row[2] for row in tr._function_layers() if isinstance(row[2], str)}
    layers |= {tr.FFT_LAYER, tr.ROOT_LAYER, "dynamics.nonlinear_rhs", "dynamics.nonlinear_rhs_bg",
               "littlewood_paley.besov_norm_p2", "littlewood_paley.besov_norm_pq"}
    counters = {"scalar_transforms", "complex_transforms", "real_transforms", "points",
                "steps", "iterations", "levels_scanned", "bytes"}
    for entry in spec["per_layer"]:
        layer, _, metric = entry["name"].rpartition(".")
        assert layer == "trace" or (layer in layers and metric in {"calls", "self_s"} | counters), entry


def test_run_without_sources_exits_nonzero(tmp_path):
    (tmp_path / "lansbench").mkdir()
    for src in (ROOT / "lansbench").glob("*.py"):
        (tmp_path / "lansbench" / src.name).write_bytes(src.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    done = subprocess.run([sys.executable, "lansbench/run.py", "--workload", "verify", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode != 0
    assert "{" not in done.stdout
