"""The README's library quick start runs as written against the public API."""
import pathlib
import re

import numpy as np

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_start_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace: dict = {}
    exec(compile(code, "README.md quick start", "exec"), namespace)
    result = namespace["result"]
    assert np.allclose(result.target_posterior.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(np.diff(result.loglik_trace) >= -1e-9)
    assert np.array_equal(result.estimated_prior, result.target_posterior.mean(axis=0))
