"""The bundled assets are the output of their generator, which the package
itself never imports."""
import os
import subprocess
import sys
from pathlib import Path

import demo2dex
from demo2dex.synthetic import asset_path, write_bundled_assets


def test_generator_reproduces_every_bundled_asset(tmp_path):
    written = write_bundled_assets(tmp_path)
    shipped = sorted(p.relative_to(asset_path()) for p in asset_path().rglob("*.json"))
    assert sorted(p.relative_to(tmp_path) for p in written) == shipped
    for rel in shipped:
        assert (tmp_path / rel).read_bytes() == asset_path(*rel.parts).read_bytes(), rel


def test_package_import_leaves_the_generator_unloaded():
    # `python -m demo2dex.synthetic` runs the module as __main__; had the
    # package imported it already, runpy would warn, and abort under -W error
    src = str(Path(demo2dex.__file__).resolve().parent.parent)
    code = "import demo2dex, sys; assert 'demo2dex.synthetic' not in sys.modules"
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-W", "error", "-c", code], env=env, check=True)
