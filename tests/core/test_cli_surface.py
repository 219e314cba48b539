"""The ``fcbench`` option table is the CLI's contract.

``cli_surface.json`` pins, for every command path, each option's
strings, dest, type, default, choices, action, nargs, metavar and
``required`` plus the positionals in order.  It was recorded from the
hand-declared parser that preceded the derived one, so a flag that is
added, removed, renamed or re-defaulted shows up here as a diff.
"""

from __future__ import annotations

import argparse
import inspect
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro import cli

SNAPSHOT = Path(__file__).with_name("cli_surface.json")


def _jsonable(value):
    try:
        json.dumps(value)
    except TypeError:
        return repr(value)
    return value


def _row(action: argparse.Action) -> dict:
    return {
        "option_strings": list(action.option_strings),
        "dest": action.dest,
        "type": getattr(action.type, "__name__", None),
        "default": _jsonable(action.default),
        "choices": list(action.choices) if action.choices else None,
        "action": type(action).__name__,
        "nargs": action.nargs,
        "metavar": action.metavar,
        "required": action.required,
        "const": _jsonable(action.const),
        "shows_default": "%(default)" in (action.help or ""),
    }


def option_table(parser: argparse.ArgumentParser, path: str = "") -> dict:
    """``{command path: {"positionals": [...], "options": {...}}}``."""
    table = {}
    entry = {"positionals": [], "options": {}}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                table.update(option_table(child, f"{path} {name}".strip()))
        elif isinstance(action, argparse._HelpAction):
            continue
        elif action.option_strings:
            entry["options"][action.option_strings[-1]] = _row(action)
        else:
            entry["positionals"].append(_row(action))
    table[path] = entry
    return table


def _actions(parser: argparse.ArgumentParser, path: str = ""):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                yield from _actions(child, f"{path} {name}".strip())
        elif not isinstance(action, argparse._HelpAction):
            yield path, action


def test_option_table_matches_the_recorded_surface():
    recorded = json.loads(SNAPSHOT.read_text())
    current = option_table(cli.build_parser())
    assert sorted(current) == sorted(recorded)
    assert len([p for p in current if p]) == 36
    for path, entry in recorded.items():
        got = current[path]
        assert got["positionals"] == [
            {**row, "shows_default": got_row["shows_default"]}
            for row, got_row in zip(entry["positionals"], got["positionals"])
        ], path
        assert sorted(got["options"]) == sorted(entry["options"]), path
        for flag, row in entry["options"].items():
            mine = got["options"][flag]
            assert {**mine, "shows_default": None} == {
                **row,
                "shows_default": None,
            }, (path, flag)
            # An option whose help showed its default still shows it.
            if row["shows_default"]:
                assert mine["shows_default"], (path, flag)


def test_every_option_has_help():
    for path, action in _actions(cli.build_parser()):
        if isinstance(action, argparse._VersionAction):
            continue
        assert action.help, (path, action.dest)


def _leaves(parser: argparse.ArgumentParser, path: str = ""):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                yield from _leaves(child, f"{path} {name}".strip())
    if parser.get_default("func") is not None:
        yield path, parser


def _derived(leaf: argparse.ArgumentParser):
    """``(flag, callee, keyword)`` for every option derived on ``leaf``."""
    for dest, callee, keyword, _ in leaf.get_default("derived"):
        yield "--" + dest.replace("_", "-"), callee, keyword


def test_derived_defaults_are_the_callee_defaults():
    parser = cli.build_parser()
    defaults = {
        (path, action.option_strings[-1]): action.default
        for path, action in _actions(parser)
        if action.option_strings
    }
    seen = set()
    for path, leaf in _leaves(parser):
        for flag, callee, param in _derived(leaf):
            # Declared on the leaf or on its group (``client --retries``).
            owner = next(
                p for p in (path, path.rsplit(" ", 1)[0]) if (p, flag) in defaults
            )
            default = inspect.signature(callee).parameters[param].default
            # A keyword defaulting to True is a --no-... switch.
            expected = False if default is True else default
            assert defaults[(owner, flag)] == expected, (path, flag)
            seen.add((owner, flag))
    assert len(seen) >= 62


def _leaf(argv: list[str]) -> argparse.ArgumentParser:
    """The leaf parser ``argv`` invokes, built the way ``main`` builds it."""
    leaves = dict(_leaves(cli.build_parser(argv)))
    return next(leaves[p] for p in leaves if argv[: len(p.split())] == p.split())


class _Called(Exception):
    pass


def _capture(monkeypatch, target: str):
    """Replace ``module:attr`` by a recorder with the same signature."""
    import functools
    import importlib

    module_name, attr = target.split(":")
    module = importlib.import_module(module_name)
    original = getattr(module, attr)
    seen = {}

    @functools.wraps(original)
    def recorder(*args, **kwargs):
        seen.update(kwargs)
        raise _Called

    monkeypatch.setattr(module, attr, recorder)
    return seen


@pytest.mark.parametrize(
    "argv, target",
    [
        (["serve"], "repro.service.server:run_server"),
        (["cluster", "serve"], "repro.cluster:ClusterSupervisor"),
        (["chaos"], "repro.chaos:run_chaos_soak"),
        (["select", "explain", "citytemp"], "repro.data.loader:load"),
        (["run"], "repro.core.suite:run_suite_detailed"),
        (["tenant", "create", "t1"], "repro.service.tenants:TenantConfig"),
        (["client", "ping"], "repro.service.client:ServiceClient"),
    ],
)
def test_a_bare_command_delivers_the_callee_defaults(
    argv, target, monkeypatch, tmp_path
):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("FCBENCH_CACHE_DIR", str(tmp_path))
    seen = _capture(monkeypatch, target)
    with pytest.raises(_Called):
        cli.main(argv)
    derived = list(_derived(_leaf(argv)))
    assert derived
    for flag, callee, param in derived:
        default = inspect.signature(callee).parameters[param].default
        assert seen[param] == default, (argv, flag)


@pytest.mark.parametrize(
    "argv, target, expected",
    [
        (
            ["run", "--no-cache", "--seed", "3"],
            "repro.core.suite:run_suite_detailed",
            {"use_cache": False, "seed": 3},
        ),
        (
            ["select", "explain", "citytemp", "--target-elements", "512"],
            "repro.data.loader:load",
            {"target_elements": 512, "seed": 0},
        ),
        (
            ["cluster", "serve", "--no-restart", "--grace", "1.5"],
            "repro.cluster:ClusterSupervisor",
            {"auto_restart": False, "node_grace": 1.5},
        ),
        (
            ["serve", "--slow-ms", "2", "--max-queued-bytes", "7"],
            "repro.service.server:run_server",
            {"slow_request_ms": 2.0, "max_queued_bytes": 7},
        ),
        (
            ["client", "--retries", "0", "--timeout", "4", "--token", "t", "ping"],
            "repro.service.client:ServiceClient",
            {"retry": 0, "deadline": 4.0, "token": "t"},
        ),
    ],
)
def test_a_given_flag_reaches_its_keyword(
    argv, target, expected, monkeypatch, tmp_path
):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("FCBENCH_CACHE_DIR", str(tmp_path))
    seen = _capture(monkeypatch, target)
    with pytest.raises(_Called):
        cli.main(argv)
    assert {key: seen[key] for key in expected} == expected


def test_sweep_commands_deliver_the_callee_defaults(monkeypatch, tmp_path):
    from repro.expdb import ExperimentStore

    db = tmp_path / "x.sqlite"
    ExperimentStore(db).close()
    for argv, target in (
        (["sweep", "run", "--db", str(db)], "repro.expdb:run_sweep"),
        (["sweep", "worker", "--db", str(db)], "repro.expdb:worker_loop"),
    ):
        seen = _capture(monkeypatch, target)
        with pytest.raises(_Called):
            cli.main(argv)
        for flag, callee, param in _derived(_leaf(argv)):
            default = inspect.signature(callee).parameters[param].default
            assert seen[param] == default, (argv, flag)


@pytest.mark.parametrize("argv", [["serve"], ["client", "ping"]])
def test_building_a_serving_command_imports_no_harness(argv):
    probe = (
        "import sys; from repro.cli import build_parser; "
        f"build_parser({argv!r}); "
        "print([m for m in sys.modules if m.startswith(("
        "'repro.core', 'repro.stats', 'repro.expdb', 'repro.chaos', "
        "'repro.cluster'))])"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": src, "PATH": ""},
        check=True,
    ).stdout
    assert out.strip() == "[]"


def _command_paths():
    paths = []
    for name, (_, target, _) in cli._COMMANDS.items():
        paths.append([name])
        if isinstance(target, dict):
            paths += [[name, leaf] for leaf in target]
    return paths


@pytest.mark.parametrize("path", _command_paths(), ids=" ".join)
def test_help_builds_each_command_path_alone(path, capsys):
    # Each path is built on its own, as `main` builds it for one command.
    with pytest.raises(SystemExit) as info:
        cli.main([*path, "--help"])
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: fcbench " + " ".join(path))
