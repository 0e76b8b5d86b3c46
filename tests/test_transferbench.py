"""The benchmark's tracer wraps functions of this package by name; every
name it wraps must exist, and a fresh run must reach each stage through
them, so a rename or a bypass fails here and not only under the traced
benchmark."""
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "transferbench"


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_benchmark_layers_install_and_restore(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import layers
    from tracer import Tracer

    tr = Tracer()
    try:
        layers.install(tr)
        patches = list(tr._patches)
        assert patches
        for owner, attr, orig in patches:
            assert _current(owner, attr) is not orig, attr
    finally:
        tr.uninstall()
    for owner, attr, orig in patches:
        assert _current(owner, attr) is orig, attr


def test_traced_fresh_run_fills_the_stage_metrics(monkeypatch, toy3_config, tmp_path):
    """A fresh traced run reaches every stage through the names the tracer
    wraps, and the layer metrics read what it recorded."""
    monkeypatch.syspath_prepend(str(BENCH))
    import layers
    from tracer import Tracer

    from demo2dex.pipeline import run_transfer

    tr = Tracer()
    try:
        layers.install(tr)
        tr.phase = "fresh"
        run_transfer(toy3_config, tmp_path, no_rl=True)
    finally:
        tr.uninstall()
    m = layers.derive(tr, 1, 1)
    for name in ("retarget.s", "spline.controls_s", "simworld.replay_s", "simworld.steps",
                 "wrist.track_s", "jsonio.write_s"):
        assert m[name] > 0, name



def test_traced_read_paths_fill_the_read_metrics(monkeypatch, toy3_config, tmp_path):
    """A cached rerun and an evaluation read, hash and score through the names
    the tracer wraps, so the read-path metrics measure them."""
    monkeypatch.syspath_prepend(str(BENCH))
    import layers
    from tracer import Tracer

    from demo2dex.pipeline import evaluate_run, run_transfer

    tr = Tracer()
    try:
        layers.install(tr)
        tr.phase = "fresh"
        res = run_transfer(toy3_config, tmp_path, no_rl=True)
        tr.phase = "cached"
        assert run_transfer(toy3_config, tmp_path, no_rl=True).cached
        tr.phase = "eval"
        assert evaluate_run(res.run_dir)[1]
    finally:
        tr.uninstall()
    m = layers.derive(tr, 1, 1)
    for name in ("jsonio.read_s", "jsonio.hash_s", "metrics.score_s"):
        assert m[name] > 0, name
    for phase in ("cached", "eval"):
        assert tr.calls(phase, "load_json") > 0, phase
