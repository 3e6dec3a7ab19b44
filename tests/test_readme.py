"""The README's Library example runs as written and prints the reference continuation mAP.

Its defaults are configs/reference_d16.cfg's, so at seed 1 its mAP is the
`continuation mAP` line under `seed 1` in tests/golden/reference_d16.txt.
"""

import contextlib
import io
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_library_example_prints_the_reference_d16_seed_1_map():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    library = readme[readme.index("## Library"):readme.index("## File formats")]
    (example,) = re.findall(r"```python\n(.*?)```", library, re.DOTALL)
    golden = (ROOT / "tests/golden/reference_d16.txt").read_text(encoding="utf-8")
    want = re.search(r"^seed 1\n(?:  .*\n)*?  continuation mAP (\S+)\n", golden, re.MULTILINE).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(example, {"__name__": "readme_library"})
    assert f"{float(out.getvalue()):.6f}" == want
