#!/usr/bin/env python3
"""Regenerate the example experiment configs in scripts/configs/."""

import json
import pathlib

from cocyclib.cocycle import LocallyConstantCocycle
from cocyclib.fixtures import (
    mixed_hyperbolic_cocycle,
    mixed_two_block_cocycle,
    orthogonal_cocycle,
    peel_fixture,
)

HERE = pathlib.Path(__file__).resolve().parent
OUT = HERE / "configs"


def table_json(a: LocallyConstantCocycle) -> dict:
    return {**a.table_jsonable(), "dimension": a.dimension}


FULL2 = {"transition_matrix": [[1, 1], [1, 1]], "tau": 1.0}
UNIFORM2 = {"transition_probabilities": [[0.5, 0.5], [0.5, 0.5]]}


def write(name: str, config: dict) -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / name
    path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
    print("wrote", path)


def main() -> None:
    write("example_unipotent.json", {
        "system": FULL2,
        "measure": UNIFORM2,
        "experiment": {"kind": "example-unipotent", "seed": 7},
    })

    write("exponents_mixed.json", {
        "system": FULL2,
        "measure": UNIFORM2,
        "cocycle": table_json(mixed_hyperbolic_cocycle()),
        "experiment": {"kind": "exponents", "seed": 11, "n": 3,
                       "trials": 2000, "max_period": 4},
    })

    write("holonomy_two_block.json", {
        "system": FULL2,
        "measure": UNIFORM2,
        "cocycle": table_json(mixed_two_block_cocycle()),
        "experiment": {"kind": "holonomy", "seed": 13, "pairs": 300,
                       "intertwine_n": 10, "tolerance": 1e-12},
    })

    write("blocks_orthogonal.json", {
        "system": FULL2,
        "measure": UNIFORM2,
        "cocycle": table_json(orthogonal_cocycle()),
        "experiment": {"kind": "blocks", "seed": 17, "N": 1, "theta": 0.5,
                       "max_period": 4, "s_max": 8},
    })

    write("shadow_mixed.json", {
        "system": FULL2,
        "measure": UNIFORM2,
        "cocycle": table_json(mixed_hyperbolic_cocycle()),
        "experiment": {"kind": "shadow", "seed": 19, "x_word": "0",
                       "y_word": "1", "ms": [4, 8, 12, 16], "b": 2, "c": 2,
                       "alpha": 0.1, "N": 4, "theta": 3.0},
    })

    fix = peel_fixture(seed=23, dims=(1, 1), conjugator_window=1)
    write("reconstruct_two_block.json", {
        "system": FULL2,
        "measure": UNIFORM2,
        "cocycle": table_json(fix.base),
        "descriptor": {"block_dims": [1, 1], "exponent": 0.0},
        "experiment": {"kind": "reconstruct", "seed": 29,
                       "conjugator": table_json(fix.conjugator),
                       "samples": 400, "tolerance": 1e-8},
    })

    write("verify_zimmer_two_block.json", {
        "system": FULL2,
        "measure": UNIFORM2,
        "cocycle": table_json(mixed_two_block_cocycle()),
        "descriptor": {"block_dims": [1, 1], "exponent": 0.0},
        "experiment": {"kind": "verify-zimmer", "seed": 31,
                       "tolerance": 1e-8, "closure_products": 100},
    })


if __name__ == "__main__":
    main()
