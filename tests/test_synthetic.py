"""The bundled assets are the output of their generator."""
from demo2dex.synthetic import asset_path, write_bundled_assets


def test_generator_reproduces_every_bundled_asset(tmp_path):
    written = write_bundled_assets(tmp_path)
    shipped = sorted(p.relative_to(asset_path()) for p in asset_path().rglob("*.json"))
    assert sorted(p.relative_to(tmp_path) for p in written) == shipped
    for rel in shipped:
        assert (tmp_path / rel).read_bytes() == asset_path(*rel.parts).read_bytes(), rel
