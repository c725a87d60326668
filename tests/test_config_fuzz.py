"""Seeded, bounded fuzzing of the shipped configs through ``cli.run``.

Each config in ``configs/`` gets every one of its leaves (list entries
included) set to every value of ``VALUES``, a seeded draw of two-leaf
mutations, every key deleted in turn and an unknown key added to every
object.  No resolution, ``n`` or count is set above its shipped value: an
integer leaf takes only values at or below the one it ships with.  Each run
goes in-process, with numpy raising on every floating-point error and every
warning an error, and must end in a documented exit code (0, 2, 3 or 4)
with no exception escaping.
"""

import contextlib
import copy
import io
import json
import random
import warnings
from pathlib import Path

import numpy as np
import pytest

from sdrelax import cli

CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))
VALUES = [None, True, False, "x", "", 0, -1, 0.5, 1, 2, 3, [], [[]], [[1.0]], [1, [2]], 1e-300, -1e-300, 1e300]
PAIRS = 150


def _leaves(node, path=()):
    """The path of every leaf: a non-container value, an empty container or a list entry."""
    if isinstance(node, (dict, list)) and node:
        for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _leaves(value, path + (key,))
    else:
        yield path, node


def _objects(node, path=()):
    """The path of every object (dict), the top level included."""
    if isinstance(node, dict):
        yield path
    if isinstance(node, (dict, list)):
        for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _objects(value, path + (key,))


def _at(config, path):
    for key in path:
        config = config[key]
    return config


def _allowed(old, new) -> bool:
    """Not above the shipped value, where the shipped value is an integer."""
    numeric = isinstance(new, (int, float)) and not isinstance(new, bool)
    return not (isinstance(old, int) and not isinstance(old, bool) and numeric and new > old)


def _mutations(base, rng):
    """(description, config) for every mutation of one config."""
    leaves = list(_leaves(base))
    for path, old in leaves:
        for value in VALUES:
            if _allowed(old, value):
                config = copy.deepcopy(base)
                _at(config, path[:-1])[path[-1]] = value
                yield f"set {path} = {value!r}", config
    for _ in range(PAIRS):
        config, changed = copy.deepcopy(base), []
        for path, old in rng.sample(leaves, 2):
            value = rng.choice(VALUES)
            if not _allowed(old, value):
                continue
            try:
                _at(config, path[:-1])[path[-1]] = value
            except (IndexError, KeyError, TypeError):  # the first mutation replaced a container on this path
                continue
            changed.append(f"{path} = {value!r}")
        yield f"set {'; '.join(changed)}", config
    for path in _objects(base):
        for key in _at(base, path):
            config = copy.deepcopy(base)
            del _at(config, path)[key]
            yield f"delete {path + (key,)}", config
        config = copy.deepcopy(base)
        _at(config, path)["unknown_key"] = 1
        yield f"add {path + ('unknown_key',)}", config


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_mutated_config_exits_with_a_documented_code(tmp_path, path):
    base = json.loads(path.read_text())
    bad = []
    runs = 0
    for what, config in _mutations(base, random.Random(path.name)):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        stderr = io.StringIO()
        try:
            with np.errstate(all="raise"), warnings.catch_warnings(), \
                    contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
                warnings.simplefilter("error")
                code = cli.run(str(config_path), out_dir=str(tmp_path / "out"))
        except Exception as err:  # noqa: BLE001 - every escaping exception is a finding
            bad.append(f"{what}: {type(err).__name__}: {err}")
            continue
        runs += 1
        if code not in (0, 2, 3, 4) or "Traceback" in stderr.getvalue():
            bad.append(f"{what}: exit {code}: {stderr.getvalue()[-300:]}")
    assert bad == []
    assert runs > len(VALUES)
