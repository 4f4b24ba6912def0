"""The README's library example runs as written and does what it says."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    out = io.StringIO()
    namespace = {}
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), namespace)
    assert out.getvalue().splitlines() == ["10", "0 0"]
    state = namespace["state"]
    assert state.audit_log == []
    assert [(e.group_id, e.cause) for e in state.cluster_map.rekey_log] == [(4, "join")]
