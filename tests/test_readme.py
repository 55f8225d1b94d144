"""The README's library example runs as written."""

import pathlib
import re

import numpy as np

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    """The python block of the README's "Library use" section."""
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_readme_library_example_runs():
    namespace = {}
    exec(compile(library_example(), str(README), "exec"), namespace)
    n_in = namespace["medium"].n_in
    assert namespace["gain"] > 0.5 * ((np.pi / 4) * (n_in - 1) + 1)
    assert namespace["q_a"] > 0 and namespace["q_b"] > 0
    assert namespace["counts"].n_T > 0
