"""The README's library example runs as written, so a name it uses cannot
be deleted from the package while the docs still show it, and each CLI
section's config runs through that command."""

import json
import re
from pathlib import Path

import pytest

from decentopt.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run(capsys):
    text = README.read_text()
    blocks = list(re.finditer(r"```python\n(.*?)```", text, flags=re.S))
    assert blocks
    for block in blocks:
        # pad with blank lines so tracebacks point at README line numbers
        code = "\n" * text.count("\n", 0, block.start(1)) + block.group(1)
        exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out.startswith("converged")


def readme_configs() -> list:
    """(command, config text) of each JSON block under a
    "### `decentopt <command>`" heading, up to the next heading."""
    sections = re.split(r"^(#+ .*)$", README.read_text(), flags=re.M)
    configs = []
    for heading, body in zip(sections[1::2], sections[2::2]):
        command = re.fullmatch(r"### `decentopt ([a-z-]+)`", heading)
        if command:
            configs += [(command.group(1), block)
                        for block in re.findall(r"```json\n(.*?)```", body, flags=re.S)]
    return configs


CONFIGS = readme_configs()


def test_readme_has_one_config_per_command():
    assert sorted(command for command, _ in CONFIGS) == [
        "analyze", "run", "stability-scan", "two-agent"]


@pytest.mark.parametrize("command, text", CONFIGS, ids=[command for command, _ in CONFIGS])
def test_readme_configs_run(tmp_path, capsys, command, text):
    config = tmp_path / "config.json"
    config.write_text(text)
    out = tmp_path / "out"
    assert main([command, "--config", str(config), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    if command == "two-agent":
        # mu sigma2 = 1.5 lies below exact diffusion's onset 2 and above
        # extra's (1 + 3a)/2 = 1.25
        payload = json.loads((out / "two_agent.json").read_text())
        assert payload["stable_diffusion"] is True
        assert payload["stable_extra"] is False


ARTIFACTS = {"run": ["trace.csv", "trace.json"], "stability-scan": ["scan.csv", "scan.json"],
             "analyze": ["analysis.json"], "two-agent": ["two_agent.json"]}


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("command, text", CONFIGS, ids=[command for command, _ in CONFIGS])
def test_readme_artifacts_share_one_format(tmp_path, command, text):
    """Each command writes its own files in the one format: strict JSON with
    sorted keys, a two-space indent and a final newline, and CSV with "\\n"
    line ends and a row per trace record or grid point."""
    config = tmp_path / "config.json"
    config.write_text(text)
    out = tmp_path / "out"
    assert main([command, "--config", str(config), "--out", str(out)]) == 0
    files = {path.name: path.read_bytes().decode() for path in out.iterdir()}
    assert sorted(files) == ARTIFACTS[command]
    for name, content in files.items():
        if name.endswith(".json"):
            payload = json.loads(content, parse_constant=_reject_constant)
            assert content == json.dumps(payload, indent=2, sort_keys=True) + "\n", name
        else:
            assert "\r" not in content and content.endswith("\n") and not content.endswith("\n\n")
            rows = content.count("\n") - 1
            if name == "trace.csv":  # row 0 is the seed state
                assert rows == json.loads(files["trace.json"])["iterations"] + 1
            else:
                assert rows == json.loads(text)["scan"]["points"]
