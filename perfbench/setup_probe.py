"""Set-up probe: import the CLI and build a workload's inputs, then exit.

Usage: ``python3 perfbench/setup_probe.py CONFIG [CONFIG ...]`` with the
checkout's ``src`` on ``PYTHONPATH``, from the directory that config paths
are relative to.  It pays what every CLI process pays before it solves
anything: interpreter start, ``import sdrelax.cli``, and the inputs built
through public constructors (``densities.catalog``, ``BoxDomain``,
``PiecewiseAffineField.from_dict`` and ``SD2Triple``).  No solve runs.
"""

import json
import sys

import numpy as np

import sdrelax.cli  # noqa: F401  the import every CLI process pays
from sdrelax.constructions import SD2Triple
from sdrelax.densities import DensityTriple, catalog
from sdrelax.fields import BoxDomain, PiecewiseAffineField


def build_inputs(config: dict) -> None:
    dens = config.get("densities", {})
    d, N = int(dens.get("d", 2)), int(dens.get("N", 2))
    parts = []
    for key in ("W", "psi1", "psi2"):
        if "catalog" in dens.get(key, {}):
            params = dict(dens[key].get("params", {}))
            parts.append(catalog(dens[key]["catalog"], d=int(params.pop("d", d)),
                                 N=int(params.pop("N", N)), **params))
    if len(parts) == 3:
        DensityTriple(*parts)
    if "domain" in config:
        BoxDomain.from_dict(config["domain"])
    fields = config.get("fields", {})
    if "file" in fields.get("g", {}) and "file" in fields.get("G", {}):
        loaded = []
        for key in ("g", "G"):
            with open(fields[key]["file"]) as fh:
                loaded.append(PiecewiseAffineField.from_dict(json.load(fh)))
        SD2Triple(*loaded, np.asarray(fields["Gamma"]["table"], dtype=float))


if __name__ == "__main__":
    for path in sys.argv[1:]:
        with open(path) as fh:
            build_inputs(json.load(fh))
