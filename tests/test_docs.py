"""The README's code examples run against the library as it is."""
import pathlib
import re

from citegraph import cli
from citegraph.ranking import RankedList
from helpers import corpus_line, write_jsonl

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def readme_block(heading):
    """The first ```python block after a `## heading` line of the README."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index(f"\n## {heading}\n"):]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_readme_library_block_runs(tmp_path, monkeypatch):
    # a chain P001 <- P002 <- ... <- P010 with shared words along it
    write_jsonl(tmp_path / "corpus.jsonl", [
        corpus_line(f"P{i:03d}", [f"P{i - 1:03d}"] if i > 1 else [],
                    title=f"graph retrieval study {i}",
                    abstract=f"citation ranking part {i} graph")
        for i in range(1, 11)])
    monkeypatch.chdir(tmp_path)
    assert cli.main(["train", "--corpus", "corpus.jsonl",
                     "--output", "weights.json"]) == 0
    namespace = {}
    exec(compile(readme_block("Library use"), str(README), "exec"), namespace)
    ranked = namespace["ranked"]
    assert isinstance(ranked, RankedList)
    assert 0 < len(ranked) <= 10
    assert namespace["seed"] == namespace["graph"].index_of["P007"]


def test_readme_config_keys_are_the_cli_settings():
    text = README.read_text(encoding="utf-8")
    listed = re.search(r"mirroring the flag names \((.*?)\)", text,
                       re.DOTALL).group(1)
    assert re.findall(r"`(\w+)`", listed) == list(cli._SETTINGS)
