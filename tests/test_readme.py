from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_entry_point_imports_resolve():
    section = README.read_text().split("## Library entry points", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    imports = [line for line in block.splitlines() if line.startswith(("from ", "import "))]
    assert len(imports) >= 6
    exec("\n".join(imports), {})
