"""Start-up cost: a fresh process imports only the modules its entry point uses."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import pcpoly

SRC = os.path.dirname(os.path.dirname(pcpoly.__file__))


def _loaded_after(code: str) -> set:
    """The pcpoly modules in sys.modules after running ``code`` in a fresh interpreter."""
    script = (code + "\nimport json, sys\n"
              "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'pcpoly')))")
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True).stdout
    return set(json.loads(out.splitlines()[-1]))


HELP = ("import contextlib, io\nfrom pcpoly.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n        main(['--help'])\n    except SystemExit:\n        pass")


@pytest.mark.parametrize("code", ["import pcpoly.cli", HELP], ids=["import", "help"])
def test_cli_loads_only_parsing_modules(code):
    assert _loaded_after(code) == {"pcpoly", "pcpoly.cli", "pcpoly.exactpoly", "pcpoly.graphs"}


def test_graphs_import_loads_graphs_alone():
    assert _loaded_after("import pcpoly.graphs") == {"pcpoly", "pcpoly.graphs"}


def test_beta_verb_loads_no_random_weighted_or_survey_module():
    code = ("import contextlib, io\nfrom pcpoly.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main(['beta', 'K5']) == 0")
    loaded = _loaded_after(code)
    assert "pcpoly.cliquepoly" in loaded
    assert not loaded & {"pcpoly.randomgraph", "pcpoly.weighted", "pcpoly.survey"}


def test_submodule_attribute_loads_on_access():
    loaded = _loaded_after("import pcpoly\nassert pcpoly.randomgraph.RANDOM_SIZE_LIMIT == 64")
    assert loaded == {"pcpoly", "pcpoly.exactpoly", "pcpoly.randomgraph"}


def test_every_export_is_its_defining_module_object():
    assert len(pcpoly.__all__) == len(set(pcpoly.__all__)) == 71
    for module, names in pcpoly._EXPORTS.items():
        mod = importlib.import_module(f"pcpoly.{module}")
        assert getattr(pcpoly, module) is mod
        for name in names:
            assert getattr(pcpoly, name) is getattr(mod, name), name
    assert set(pcpoly.__all__) | set(pcpoly._EXPORTS) <= set(dir(pcpoly))
    from pcpoly import beta, monoid, survey_nonreal  # noqa: F401

    assert monoid is sys.modules["pcpoly.monoid"]


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        pcpoly.no_such_name
    assert not hasattr(pcpoly, "cli_main")
    with pytest.raises(ImportError):
        from pcpoly import no_such_name  # noqa: F401


def _modules_loaded_by(code: str) -> set:
    """The modules that running ``code`` adds to sys.modules in a fresh interpreter."""
    script = ("import sys\nbefore = set(sys.modules)\n" + code
              + "\nprint(' '.join(sorted(set(sys.modules) - before)))")
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True).stdout
    return set(out.splitlines()[-1].split())


BETA = ("import contextlib, io\nfrom pcpoly.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['beta', 'K5', '--format', '{}']) == 0")


@pytest.mark.parametrize("code", ["import pcpoly.cli, pcpoly.survey", "import pcpoly.graphs",
                                  BETA.format("text")], ids=["bench-import", "graphs", "beta"])
def test_no_dataclasses_module_loads(code):
    loaded = _modules_loaded_by(code)
    assert "pcpoly" in loaded and "dataclasses" not in loaded


@pytest.mark.parametrize("code, loads_json", [("import pcpoly.cli", False),
                                              (BETA.format("text"), False),
                                              (BETA.format("json"), True)],
                         ids=["import", "beta-text", "beta-json"])
def test_json_loads_only_for_json_output(code, loads_json):
    assert ("json" in _modules_loaded_by(code)) is loads_json
