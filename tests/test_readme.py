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


def test_backticked_module_names_resolve():
    import importlib
    import pkgutil

    import povm_lab

    modules = {info.name for info in pkgutil.iter_modules(povm_lab.__path__)}
    spans = re.findall(r"`([A-Za-z_][\w.]*\.\w+)`", README.read_text())
    checked = 0
    for span in spans:
        parts = span.split(".")
        if parts[0] == "povm_lab":
            parts = parts[1:]
        # output file names such as `povm.txt` are not attributes
        if not parts or parts[0] not in modules or parts[-1] in ("txt", "csv", "cfg"):
            continue
        obj = importlib.import_module(f"povm_lab.{parts[0]}")
        for name in parts[1:]:
            assert hasattr(obj, name), f"README names `{span}`, which does not resolve"
            obj = getattr(obj, name)
        checked += 1
    assert checked >= 1


def test_modes_list_is_cli_modes():
    from povm_lab import cli

    section = README.read_text().split("\nModes:\n", 1)[1].split("\nExit codes:", 1)[0]
    assert tuple(re.findall(r"^- `(\w+)`", section, re.M)) == cli.MODES


def test_exit_code_sentence_names_the_exit_codes():
    from povm_lab import cli

    sentence = " ".join(README.read_text().split("\nExit codes: ", 1)[1].split("\n\n", 1)[0].split())
    assert sentence.startswith(f"{cli.EXIT_OK} success, ")
    assert f", {cli.EXIT_VERIFY_FAILED} failed verify, " in sentence
    assert f", {cli.EXIT_CONFIG} a usage error or a configuration error " in sentence
    assert f", {cli.EXIT_NUMERICAL} numerical failure." in sentence
