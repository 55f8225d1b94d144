"""The README's library example runs as written, and its scenario table names the files each scenario writes."""

import pathlib
import re

import numpy as np

from specklewalk.harness import RUN_FILES, SCENARIO_FILES

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


def test_readme_scenario_table_lists_the_files_each_scenario_writes():
    text = README.read_text(encoding="utf-8")
    table = text.split("\nScenarios:\n\n", 1)[1].split("\n\n", 1)[0]
    rows = re.findall(r"^\| `(\w+)` +\|.*\|(.*)\|$", table, re.MULTILINE)
    assert {scenario: set(re.findall(r"`([^`]+)`", files)) for scenario, files in rows} == {
        scenario: set(files) - set(RUN_FILES) for scenario, files in SCENARIO_FILES.items()}
    every_run = re.search(r"Every run writes the four files (.*?)\.\s", text, re.DOTALL).group(1)
    assert re.findall(r"`([^`]+)`", every_run) == list(RUN_FILES)
