"""The benchmark's tracer wraps functions of this package by name; every
name it wraps must exist, so a rename fails here and not only under the
traced benchmark."""
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
