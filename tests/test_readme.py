"""README.md's examples run as written and print what their comments say."""

import contextlib
import io
import re
from pathlib import Path

from quadkit.actions import default_action_space, detokenize

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_tour_prints_what_its_comments_say():
    tour = README.read_text().split("## Quick tour", 1)[1]
    code = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    namespace: dict = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), namespace)
    lines = out.getvalue().splitlines()
    assert lines[:2] == ["go to the fan slowly with trot gait", "success 13"]
    tokens = namespace["episode"].steps[-1].tokens  # 12 ints, printed as the last line
    assert lines[2:] == [str(tokens)]
    assert detokenize(tokens, default_action_space()).terminate
