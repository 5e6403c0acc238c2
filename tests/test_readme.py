import os
import re


def readme_python_blocks():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path, encoding="utf-8") as fh:
        return re.findall(r"^```python\n(.*?)^```$", fh.read(),
                          re.MULTILINE | re.DOTALL)


def test_readme_python_blocks_run_in_order(capsys):
    # later blocks use names the earlier ones define, as a reader would
    blocks = readme_python_blocks()
    assert len(blocks) >= 2
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    out = capsys.readouterr().out
    assert "404 -1.0 0.0" in out
    assert "shock right -1.0 0.5\nrarefaction  0.5 1.2\n" in out
