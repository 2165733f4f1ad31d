"""The README's library quick start runs as written against the public API,
its JSON examples are configs that the CLI accepts, and `cpsm.__all__` lists
the public API."""
import json
import pathlib
import re
import types

import numpy as np

import cpsm
from cpsm import EmConfig, bench

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


def test_json_examples_are_configs_the_parsers_accept():
    # Parsing only: a removed or misspelt key in an example is rejected here.
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)
    assert len(blocks) >= 2
    for block in blocks:
        doc = json.loads(block)
        if "generator" in doc:
            config = bench.experiment_config_from_dict(doc)
            assert config.em == EmConfig(**doc.get("em", {}))
        else:
            generator, output_dir = bench.parse_generation(doc)
            assert generator.kind == doc["kind"] and output_dir == doc["output_dir"]


def test_all_lists_every_public_name_the_package_binds():
    # Submodules are bound by the import system, not by the package itself.
    bound = {
        name for name, value in vars(cpsm).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(cpsm.__all__) == sorted(bound)
    namespace: dict = {}
    exec("from cpsm import *", namespace)
    assert set(namespace) - {"__builtins__"} == bound
