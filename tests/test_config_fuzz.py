"""Seeded, bounded fuzzing of the shipped configs through ``cli.run``.

Each config in ``configs/``, and the two task shapes no shipped config
holds (an ``energy`` run and an assembly of expression densities and
expression fields), gets every one of its leaves (list entries included) set
to every value of ``VALUES``, a seeded draw of two-leaf mutations, every key
deleted in turn and an unknown key added to every object.  Every key of the
CLI's option tables (``cli._TOP_FIELDS`` and so on) is then set to every
value of ``VALUES`` in a config that has its section, whether or not the
config holds the key.  No resolution, ``n`` or count is set above its
shipped value: an integer leaf takes only values at or below the one it
ships with, and a key the config does not hold, whose default may be a size,
takes no integer above 1.  Each run goes in-process, with numpy raising on
every floating-point error and every warning an error, and must end in a
documented exit code (0, 2, 3 or 4) with no exception escaping.
"""

import contextlib
import copy
import io
import itertools
import json
import random
import warnings
from pathlib import Path

import numpy as np
import pytest

from sdrelax import cli

CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))
VALUES = [None, True, False, "x", "", 0, -1, 0.5, 1, 2, 3, [], [[]], [[1.0]], [1, [2]], {},
          1e-300, -1e-300, 1e300]
PAIRS = 150

ENERGY = {
    "task": "energy",
    "seed": 0,
    "densities": {"W": {"catalog": "W_norm"}, "psi1": {"catalog": "Psi1_norm"},
                  "psi2": {"catalog": "Psi2_norm"}, "d": 1, "N": 1},
    "domain": {"lower": [0.0], "upper": [1.0], "resolution": [4]},
    "fields": {"u": {"expression": ["x[0]*x[0]/2"], "grad_expression": [["x[0]"]]},
               "grad": {"expression": [["x[0]"]], "grad_expression": [[["1"]]]}},
}
EXPRESSION_ASSEMBLY = {
    "task": "relax-assemble",
    "seed": 0,
    "densities": {"expressions": {"W": "norm(A) + norm(M)*(1 + x[0])",
                                  "psi1": "norm(lam)*(1 + x[0])", "psi2": "norm(Lam)"}},
    "domain": {"lower": [0.0], "upper": [1.0], "resolution": [2]},
    "fields": {"g": {"expression": ["x[0]*x[0]/2"], "grad_expression": [["x[0]"]]},
               "G": {"expression": [["1 + x[0]"]], "grad_expression": [[["1"]]]},
               "Gamma": {"expression": [[["1"]]]}},
    "assemble": {"budget": 1, "resolution": 2, "w2_resolution": 2, "collect_cells": True},
}
BASES = {**{path.name: json.loads(path.read_text()) for path in CONFIGS},
         "energy": ENERGY, "relax_expressions": EXPRESSION_ASSEMBLY}

# each option table of the CLI, with the (base, section path) pairs whose keys it checks
TABLES = {
    "_TOP_FIELDS": [(name, ()) for name in BASES],
    "_ASSEMBLE_FIELDS": [("relax_slip.json", ("assemble",)), ("relax_expressions", ("assemble",))],
    "_FIELD_FIELDS": [("relax_slip.json", ("fields", "g")), ("sequence_quadratic.json", ("fields", "G")),
                      ("energy", ("fields", "u"))],
    "_CELL_FIELDS": [("sweep_w1.json", ("cell",))],
    "_CHECK_FIELDS": [("check_catalog.json", ("check",))],
    "_DENSITY_FIELDS": [("check_catalog.json", ("densities",)), ("sweep_w1.json", ("densities",)),
                        ("energy", ("densities",)), ("relax_expressions", ("densities",))],
    "_PARAM_FIELDS": [("check_catalog.json", ("densities", "W", "params")),
                      ("check_catalog.json", ("densities", "psi2", "params"))],
}


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


def _allowed_new(new) -> bool:
    """No integer above 1 for a key the config does not hold."""
    return not (isinstance(new, int) and not isinstance(new, bool) and new > 1)


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


def _key_mutations(table: str, key: str):
    """(description, config) for every value of one key of an option table,
    in every config section that the table checks."""
    for name, path in TABLES[table]:
        for value in VALUES:
            config = copy.deepcopy(BASES[name])
            section = config
            for step in path:
                section = section.setdefault(step, {})
            if _allowed(section[key], value) if key in section else _allowed_new(value):
                section[key] = value
                yield f"{name}: set {path + (key,)} = {value!r}", config


def _run_all(tmp_path, mutations) -> list:
    """The findings of running every mutation: each escaping exception, each
    exit code outside (0, 2, 3, 4) and each traceback on stderr."""
    bad = []
    runs = 0
    for what, config in mutations:
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
    assert runs > len(VALUES)
    return bad


@pytest.mark.parametrize("name", BASES)
def test_mutated_config_exits_with_a_documented_code(tmp_path, name):
    base = BASES[name]
    assert _run_all(tmp_path, _mutations(base, random.Random(name))) == []


def test_every_option_table_is_fuzzed():
    assert {name for name in vars(cli) if name.startswith("_") and name.endswith("_FIELDS")} == set(TABLES)


@pytest.mark.parametrize("table", TABLES)
def test_every_option_key_exits_with_a_documented_code(tmp_path, table):
    mutations = {key: list(_key_mutations(table, key)) for key in getattr(cli, table)}
    assert all(mutations.values())  # every key is set at least once
    assert _run_all(tmp_path, itertools.chain(*mutations.values())) == []
