import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_entry_point_imports_resolve():
    section = README.read_text().split("## Library entry points", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    imports = [line for line in block.splitlines() if line.startswith(("from ", "import "))]
    assert len(imports) >= 6
    exec("\n".join(imports), {})


def test_anneal_counter_list_is_run_counters():
    from povm_lab.annealer import RUN_COUNTERS

    entry = README.read_text().split("- `anneal`", 1)[1].split("\n- `", 1)[0]
    counters = entry.split("the run counters", 1)[1]
    assert re.findall(r"`(\w+)`", counters) == list(RUN_COUNTERS)


def test_config_key_table_is_config_keys():
    from povm_lab import cli

    section = README.read_text().split("### Config format", 1)[1].split("\n### ", 1)[0]
    first_cells = [line.split("|")[1] for line in section.splitlines() if line.startswith("| `")]
    keys = [key for cell in first_cells for key in re.findall(r"`([^`]+)`", cell)]
    assert sorted(keys) == sorted(cli._CONFIG_KEYS)
