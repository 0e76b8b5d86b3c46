"""README.md's config table against the config the code accepts."""
import dataclasses
import re
from pathlib import Path

from demo2dex.pipeline import CONFIG_KEYS
from demo2dex.ppo import TrainConfig
from demo2dex.simworld import SimConfig

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
NUMBER_WORDS = ["zero", "one", "two", "three", "four", "five", "six", "seven", "eight", "nine", "ten"]


def config_table() -> dict[str, str]:
    """key -> default, from the first table under "## Config"."""
    section = README.split("\n## Config\n", 1)[1]
    rows = {}
    for line in section.splitlines():
        if line.startswith("| `"):
            key, _, default = (cell.strip() for cell in line.strip("|").split("|"))
            rows[key.strip("`")] = default
        elif rows:
            break
    return rows


def test_readme_config_table_matches_the_code():
    sections = {"sim": SimConfig, "rl": TrainConfig}
    fields = {f"{name}.{f.name}": f.default for name, cls in sections.items() for f in dataclasses.fields(cls)}
    table = config_table()
    assert set(table) == (CONFIG_KEYS - set(sections)) | set(fields)
    for key, default in fields.items():
        assert float(table[key]) == default, key
    count = re.search(r"at most (\w+) settable values", README).group(1)
    assert NUMBER_WORDS.index(count) == len(table)
