"""Every name a module of src/semlint imports is used in that module, every
module parses with the oldest grammar pyproject.toml allows, importing
the CLI leaves the HTTP stack unloaded until a URL is probed, and
dataclasses unloaded altogether, and probing loads no HTTP library: ssl
only for an https URL.  Importing the package loads none of its modules,
a CLI run that replays its memo loads no engine module, and no run loads
html."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "semlint"


def unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import | ast.ImportFrom):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:  # a re-export listed in __all__ is a use
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= {elt.value for elt in node.value.elts}
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in used]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_module_has_no_unused_imports(module):
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
    assert unused_imports(tree) == []


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_module_parses_with_the_python_3_10_grammar(module):
    # requires-python is ">=3.10"; the tests may run on a later Python only
    ast.parse((SRC / module).read_text(encoding="utf-8"),
              feature_version=(3, 10))


HTTP_STACK = ("urllib.request", "http.client", "ssl", "concurrent.futures")
# building the value classes as dataclasses cost about 45 ms of every
# start-up, importing inspect included (see semlint/record.py)
DATACLASSES = ("dataclasses", "inspect")


def loaded_by_cli_import(modules: tuple[str, ...]) -> str:
    code = ("import sys, semlint.cli; "
            f"print([m for m in {modules!r} if m in sys.modules])")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_cli_import_leaves_http_stack_unloaded():
    assert loaded_by_cli_import(HTTP_STACK) == "[]"


def test_cli_import_leaves_dataclasses_unloaded():
    assert loaded_by_cli_import(DATACLASSES) == "[]"


# what probing used to load; the prober's own client needs none of it
HTTP_LIBRARIES = ("urllib.request", "http.client", "email", "ssl",
                  "concurrent.futures")


def loaded_by_probing(url: str) -> str:
    code = ("import sys\n"
            "from semlint.builtins import HttpProber\n"
            "prober = HttpProber(5)\n"
            f"prober.prefetch([{url!r}])\n"
            f"print(prober.probe({url!r}).kind, "
            f"[m for m in {HTTP_LIBRARIES!r} if m in sys.modules])")
    # no_proxy alone names no proxy, so urllib is not needed to pick one
    env = {name: value for name, value in os.environ.items()
           if not name.lower().endswith("_proxy")}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**env, "no_proxy": "127.0.0.1", "PYTHONPATH": str(SRC.parent)},
        timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_probing_http_loads_no_http_library(stub_http_server):
    assert loaded_by_probing(f"{stub_http_server}/live") == "ok []"


def test_probing_https_loads_ssl_alone(tls_server):
    # the certificate is self-signed, so the probe fails verification
    assert loaded_by_probing(f"{tls_server}/live") == "unreachable ['ssl']"


def test_package_import_loads_no_submodule():
    code = ("import sys, semlint; "
            "print([m for m in sys.modules if m.startswith('semlint.')])")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


ENGINE_MODULES = ("semlint.dsl_parser", "semlint.engine", "semlint.matcher",
                  "semlint.xml_frontend", "semlint.reporting",
                  "semlint.builtins", "semlint.rule_ast")


def cold_and_warm(tmp_path, modules: tuple[str, ...], format="html"):
    """A cold and a warm (replayed) CLI run, each printing which of modules
    it loaded after its report."""
    rules = tmp_path / "check.rules"
    rules.write_text('<pers nom=$N> <$_> </pers> => personne($N);\n'
                     '<check nom=$N/> ? personne($N) / <li> <$N> </li>;\n',
                     encoding="utf-8")
    doc = tmp_path / "team.xml"
    doc.write_text('<team><pers nom="a"><r/></pers><check nom="b"/></team>',
                   encoding="utf-8")
    code = ("import sys\n"
            "from semlint.cli import main\n"
            "code = main(sys.argv[1:])\n"
            f"print([m for m in {modules!r} if m in sys.modules])\n"
            "sys.exit(code)")
    args = [sys.executable, "-c", code, "--rules", str(rules), "--cache-dir",
            str(tmp_path / "cache"), "--offline", "--format", format,
            str(doc)]
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    cold, warm = (subprocess.run(args, capture_output=True, text=True,
                                 env=env, timeout=60) for _ in range(2))
    assert cold.returncode == warm.returncode == 0, cold.stderr + warm.stderr
    return cold, warm


def test_a_replayed_run_loads_no_engine_module(tmp_path):
    cold, warm = cold_and_warm(tmp_path, ENGINE_MODULES)
    assert cold.stdout.endswith(f"{list(ENGINE_MODULES)!r}\n")
    assert warm.stdout == cold.stdout.replace(f"{list(ENGINE_MODULES)!r}",
                                              "[]")


@pytest.mark.parametrize("format", ["html", "text", "machine"])
def test_no_run_loads_the_html_module(tmp_path, format):
    # record.escape stands in for html.escape: html.entities costs about
    # 2 ms of every start-up
    cold, warm = cold_and_warm(tmp_path, ("html", "html.entities"), format)
    assert cold.stdout.endswith("\n[]\n") and warm.stdout == cold.stdout
