"""The README's code examples run against the library as it is."""
import json
import pathlib
import re
import shlex

from citegraph import cli
from citegraph.ranking import RankedList
from helpers import corpus_line, write_jsonl

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def readme_block(heading, language="python"):
    """The first fenced `language` block after a `## heading` line of the
    README."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index(f"\n## {heading}\n"):]
    return re.search(f"```{language}\n(.*?)```", section,
                     re.DOTALL).group(1)


def write_chain_corpus(directory):
    """A chain P001 <- P002 <- ... <- P010 with shared words along it."""
    write_jsonl(directory / "corpus.jsonl", [
        corpus_line(f"P{i:03d}", [f"P{i - 1:03d}"] if i > 1 else [],
                    title=f"graph retrieval study {i}",
                    abstract=f"citation ranking part {i} graph")
        for i in range(1, 11)])


def test_readme_quick_start_runs(tmp_path, monkeypatch, capsys):
    write_chain_corpus(tmp_path)
    monkeypatch.chdir(tmp_path)
    script = readme_block("Quick start", "bash").replace("\\\n", " ")
    commands = [shlex.split(line) for line in script.splitlines()
                if line.startswith("citegraph ")]
    assert [argv[1] for argv in commands] == \
        ["build", "embed", "train", "retrieve", "evaluate", "retrieve"]
    for argv in commands:
        assert cli.main(argv[1:]) == 0, (argv, capsys.readouterr().err)
    assert "rerank" in json.loads(
        (tmp_path / "retrieval.json").read_text(encoding="utf-8"))


def test_readme_library_block_runs(tmp_path, monkeypatch):
    write_chain_corpus(tmp_path)
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
    listed = re.search(r"lists them\) out of (.*?)\. ", text,
                       re.DOTALL).group(1)
    flags = re.findall(r"`--([\w-]+)`", listed)
    assert [flag.replace("-", "_") for flag in flags] == list(cli._SETTINGS)
