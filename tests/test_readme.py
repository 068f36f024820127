"""The README's "Library surface" block imports from the package as written."""

import os
import re

import psp_centrality

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def test_readme_library_surface_names_are_exported():
    with open(README, encoding="utf-8") as fh:
        section = fh.read().split("## Library surface", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    listed = re.search(r"from psp_centrality import \((.*?)\)", block, re.S).group(1)
    names = [name.strip() for name in listed.split(",") if name.strip()]
    assert len(names) > 30
    assert [name for name in names if name not in psp_centrality.__all__] == []
    exec(block, {})
