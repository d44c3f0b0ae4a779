import copy
import json
import math
import pathlib

import pytest

import numpy as np

from cocyclib import cli
from cocyclib.cli import ConfigError, build_cocycle, emit, load_config, main, run
from cocyclib.cocycle import LocallyConstantCocycle, iterate
from cocyclib.fixtures import mild_random_cocycle, mixed_hyperbolic_cocycle
from cocyclib.holonomy import stable_holonomy, unstable_holonomy
from cocyclib.measure import golden_mean_markov, sample_point, sample_points, \
    sample_stable_partner, sample_unstable_partner, sample_word
from cocyclib.sft import close_word, distance, full_shift, golden_mean_shift

CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "configs"

CONFIGS = {
    "example-unipotent": "example_unipotent.json",
    "exponents": "exponents_mixed.json",
    "holonomy": "holonomy_two_block.json",
    "blocks": "blocks_orthogonal.json",
    "shadow": "shadow_mixed.json",
    "reconstruct": "reconstruct_two_block.json",
    "verify-zimmer": "verify_zimmer_two_block.json",
}


def load(kind):
    return load_config(str(CONFIG_DIR / CONFIGS[kind]))


@pytest.mark.parametrize("kind", sorted(CONFIGS))
def test_every_kind_runs_and_passes(kind):
    report = run(load(kind))
    assert report["kind"] == kind
    assert report["passed"] is True
    assert report["library_version"]
    assert all("tolerance" in c and "instantiates" in c
               for c in report["checks"])


@pytest.mark.parametrize("kind", sorted(CONFIGS))
def test_determinism_byte_identical(kind):
    r1 = run(load(kind))
    r2 = run(load(kind))
    assert emit(r1, "json") == emit(r2, "json")
    assert emit(r1, "csv") == emit(r2, "csv")


def test_json_roundtrip():
    report = run(load("shadow"))
    text = emit(report, "json")
    assert json.loads(text) == report
    assert emit(json.loads(text), "json") == text


def test_csv_one_row_per_m():
    report = run(load("shadow"))
    text = emit(report, "csv")
    section = text.split("# table: growth\n")[1].splitlines()
    header, *rows = [line for line in section if line and not
                     line.startswith("#")]
    assert header.split(",")[0] == "m"
    ms = [int(r.split(",")[0]) for r in rows[:4]]
    assert ms == [4, 8, 12, 16]


def test_unsupported_format():
    with pytest.raises(ValueError, match="format"):
        emit({"tables": {}}, "yaml")


def test_json_is_strict_for_non_finite_values():
    def reject(name):
        raise ValueError(f"bare {name} in JSON output")

    text = emit({"a": math.inf, "b": [-math.inf, math.nan], "c": 1.5}, "json")
    assert json.loads(text, parse_constant=reject) == \
        {"a": "inf", "b": ["-inf", "nan"], "c": 1.5}


def test_seed_is_mandatory():
    config = load("exponents")
    del config["experiment"]["seed"]
    with pytest.raises(ConfigError, match="seed"):
        run(config)


def test_unknown_kind_rejected():
    config = load("exponents")
    config["experiment"]["kind"] = "nonsense"
    with pytest.raises(ConfigError, match="kind"):
        run(config)


def test_reducible_matrix_diagnostic():
    config = load("example-unipotent")
    config["system"]["transition_matrix"] = [[1, 1], [0, 1]]
    with pytest.raises(ConfigError, match="unreachable"):
        run(config)


def test_measure_support_mismatch():
    config = copy.deepcopy(load("exponents"))
    config["measure"]["transition_probabilities"] = [[1.0, 0.0], [0.5, 0.5]]
    with pytest.raises(ConfigError):
        run(config)


def test_seed_override_changes_report(tmp_path):
    src = CONFIG_DIR / CONFIGS["exponents"]
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["exponents", "--config", str(src), "--out", str(out1)]) == 0
    assert main(["exponents", "--config", str(src), "--out", str(out2),
                 "--seed", "999"]) == 0
    r1 = json.loads(out1.read_text())
    r2 = json.loads(out2.read_text())
    assert r1["seed"] == 11 and r2["seed"] == 999
    assert r1["results"]["monte_carlo"] != r2["results"]["monte_carlo"]


def test_cli_exit_codes(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["exponents", "--config", str(bad)]) == 2

    mismatched = tmp_path / "mismatch.json"
    cfg = load("exponents")
    mismatched.write_text(json.dumps(cfg))
    assert main(["holonomy", "--config", str(mismatched)]) == 2


def _bad_n(cfg):
    cfg["experiment"]["n"] = "x"


def _bad_word_budget(cfg):
    cfg["experiment"]["budgets"] = {"words": "lots"}


def _bad_block_dims(cfg):
    cfg["descriptor"]["block_dims"] = [0, 2]


def _bad_table_key(cfg):
    table = cfg["cocycle"]["table"]
    table["0a1"] = table.pop("0")


def _list_budgets(cfg):
    cfg["experiment"]["budgets"] = [1]


def _bad_theta_grid(cfg):
    cfg["experiment"]["probe_theta_grid"] = ["a"]


def _bad_n_grid(cfg):
    cfg["experiment"]["probe_n_grid"] = [0.5]


def _bad_flag_dims(cfg):
    cfg["experiment"]["flag_dims"] = [1]


def _base_values(values):
    """A reconstruct config that gives B as a table (A itself) and these
    seeds in place of a conjugator."""
    def corrupt(cfg):
        exp = cfg["experiment"]
        del exp["conjugator"]
        exp["cocycle_b"] = copy.deepcopy(cfg["cocycle"])
        exp["base_values"] = values
    return corrupt


EYE2 = [[1.0, 0.0], [0.0, 1.0]]


def test_reconstruct_from_cocycle_b_and_base_values():
    cfg = load("reconstruct")
    _base_values([EYE2, EYE2])(cfg)
    report = run(cfg)
    assert report["passed"]
    assert report["results"]["conjugacy"]["max_residual"] == 0.0


# a window-0 table of 1x1 matrices on the 2-shift
TABLE_1X1 = {"window_radius": 0, "table": {"0": [[1.0]], "1": [[2.0]]}}


def _cocycle_b(table):
    """A reconstruct config that gives B as this table, with seeds for a
    2x2 cocycle, in place of a conjugator."""
    def corrupt(cfg):
        _base_values([EYE2, EYE2])(cfg)
        cfg["experiment"]["cocycle_b"] = table
    return corrupt


def _setting(*keys, value):
    """A corruption that sets the value at a key path of the config."""
    def corrupt(cfg):
        node = cfg
        for key in keys[:-1]:
            node = node.setdefault(key, {})
        node[keys[-1]] = value
    return corrupt


def _cone(key, value):
    """A shadow config with an invariant flag, so that its cone keys are
    read, and this value at one of them."""
    def corrupt(cfg):
        cfg["experiment"]["flag_dims"] = [1, 2]
        cfg["experiment"][key] = value
    return corrupt


@pytest.mark.parametrize("kind, corrupt, path", [
    ("exponents", _bad_n, "$.experiment.n"),
    # integer keys take JSON integers only: int() would truncate these
    ("exponents", _setting("experiment", "n", value=2.5), "$.experiment.n"),
    ("exponents", _setting("experiment", "n", value=True), "$.experiment.n"),
    ("exponents", _setting("experiment", "max_period", value=1.9),
     "$.experiment.max_period"),
    ("exponents", _setting("experiment", "trials", value=10.7), "$.experiment.trials"),
    ("exponents", _setting("experiment", "seed", value=11.0), "$.experiment.seed"),
    ("exponents", _setting("experiment", "budgets", "words", value=True),
     "$.experiment.budgets.words"),
    ("exponents", _setting("experiment", "budgets", "samples", value=50.5),
     "$.experiment.budgets.samples"),
    ("exponents", _setting("cocycle", "window_radius", value=0.0),
     "$.cocycle.window_radius"),
    ("holonomy", _setting("experiment", "pairs", value=False), "$.experiment.pairs"),
    ("blocks", _setting("experiment", "N", value=1.5), "$.experiment.N"),
    ("reconstruct", _setting("descriptor", "block_dims", value=[1.0, 1]),
     "$.descriptor.block_dims"),
    ("shadow", _setting("experiment", "ms", value=[4, 8.5]), "$.experiment.ms"),
    ("shadow", _setting("experiment", "flag_dims", value=[1, 2.5]),
     "$.experiment.flag_dims"),
    # integers below the bound that the library enforces on them
    *(pytest.param(kind, _setting(*keys, value=value), "$." + ".".join(keys),
                   id=f"{kind}-{keys[-1]}-{value}")
      for kind, keys, value in [
          ("exponents", ("experiment", "seed"), -1),
          ("exponents", ("experiment", "budgets", "samples"), -3),
          ("exponents", ("experiment", "n"), 0),
          ("exponents", ("experiment", "trials"), 0),
          ("exponents", ("cocycle", "window_radius"), -1),
          ("blocks", ("experiment", "N"), 0),
          ("blocks", ("experiment", "s_max"), 0),
          ("shadow", ("experiment", "b"), 0),
          ("shadow", ("experiment", "c"), -2),
          ("shadow", ("experiment", "ms"), [4, 0]),
          ("shadow", ("experiment", "N"), 0),
          ("reconstruct", ("experiment", "samples"), 0),
          # counts that would let a check pass on no data
          ("holonomy", ("experiment", "pairs"), -5),
          ("holonomy", ("experiment", "pairs"), 0),
          ("exponents", ("experiment", "max_period"), 0),
          ("blocks", ("experiment", "max_period"), 0),
          ("blocks", ("experiment", "probe_points"), 0),
          ("verify-zimmer", ("experiment", "closure_products"), 0),
          # N < 1 compares h_xy with itself (0) or breaks the stable set (-3)
          ("holonomy", ("experiment", "intertwine_n"), 0),
          ("holonomy", ("experiment", "intertwine_n"), -3),
      ]),
    # real-valued keys take finite JSON numbers, within the library's bounds
    # and >= 0 for a tolerance; float() would read strings and true
    *(pytest.param(kind, corrupt, path, id=name) for kind, corrupt, path, name in [
        ("blocks", _setting("experiment", "theta", value="nan"), "$.experiment.theta",
         "blocks-theta-string-nan"),
        ("blocks", _setting("experiment", "theta", value=math.nan), "$.experiment.theta",
         "blocks-theta-nan"),
        ("blocks", _setting("experiment", "theta", value=0), "$.experiment.theta",
         "blocks-theta-zero"),
        ("reconstruct", _setting("experiment", "tolerance", value="inf"),
         "$.experiment.tolerance", "reconstruct-tolerance-string-inf"),
        ("reconstruct", _setting("experiment", "path_tolerance", value=-1e-9),
         "$.experiment.path_tolerance", "reconstruct-path_tolerance-negative"),
        ("reconstruct", _setting("descriptor", "exponent", value="0"),
         "$.descriptor.exponent", "reconstruct-exponent-string"),
        ("holonomy", _setting("system", "tau", value=True), "$.system.tau",
         "holonomy-tau-true"),
        ("holonomy", _setting("system", "tau", value=0.0), "$.system.tau",
         "holonomy-tau-zero"),
        ("holonomy", _setting("system", "tau", value=10 ** 400), "$.system.tau",
         "holonomy-tau-huge-int"),
        ("holonomy", _setting("experiment", "tolerance", value="1e-12"),
         "$.experiment.tolerance", "holonomy-tolerance-string"),
        ("holonomy", _setting("experiment", "lipschitz_bound", value=math.inf),
         "$.experiment.lipschitz_bound", "holonomy-lipschitz_bound-inf"),
        ("shadow", _setting("experiment", "alpha", value="0.1"), "$.experiment.alpha",
         "shadow-alpha-string"),
        ("shadow", _setting("experiment", "alpha", value=1.0), "$.experiment.alpha",
         "shadow-alpha-one"),
        ("shadow", _setting("experiment", "theta", value=-3.0), "$.experiment.theta",
         "shadow-theta-negative"),
        ("shadow", _cone("cone_mu", "2"), "$.experiment.cone_mu", "shadow-cone_mu-string"),
        ("shadow", _cone("cone_epsilon", -0.05), "$.experiment.cone_epsilon",
         "shadow-cone_epsilon-negative"),
        ("shadow", _cone("cone_delta", 0.0), "$.experiment.cone_delta",
         "shadow-cone_delta-zero"),
        # the cone split is a pair of block sizes, each at least 1
        ("shadow", _cone("cone_split", [1.5, 1.5]), "$.experiment.cone_split",
         "shadow-cone_split-reals"),
        ("shadow", _cone("cone_split", [True, True]), "$.experiment.cone_split",
         "shadow-cone_split-true"),
        ("shadow", _cone("cone_split", [2, 0]), "$.experiment.cone_split",
         "shadow-cone_split-empty-block"),
        ("verify-zimmer", _setting("experiment", "tolerance", value=-1e-8),
         "$.experiment.tolerance", "verify-zimmer-tolerance-negative"),
        # json reads NaN, and nan > tol is false, so only a finiteness check stops it
        ("exponents", _setting("measure", "stationary", value=[math.nan, math.nan]),
         "$.measure", "exponents-stationary-nan"),
    ]),
    ("exponents", _bad_word_budget, "$.experiment.budgets.words"),
    ("exponents", _list_budgets, "$.experiment.budgets"),
    ("reconstruct", _bad_block_dims, "$.descriptor.block_dims"),
    ("reconstruct", _bad_table_key, "$.cocycle.table.0a1"),
    ("blocks", _bad_theta_grid, "$.experiment.probe_theta_grid"),
    ("blocks", _bad_n_grid, "$.experiment.probe_n_grid"),
    ("shadow", _bad_flag_dims, "$.experiment.flag_dims"),
    # one finite, safely invertible 2x2 seed per symbol of the 2-shift
    *(pytest.param("reconstruct", _base_values(values), "$.experiment.base_values",
                   id=f"reconstruct-base_values-{name}")
      for name, values in [
          ("one-entry", [EYE2]),
          ("vector-entry", [[[1, 0], [0, 1]], [1, 2]]),
          ("3x3", [np.eye(3).tolist()] * 2),
          ("ragged", [EYE2, [[1.0, 0.0], [0.0]]]),
          ("nan", [EYE2, [["nan", 0.0], [0.0, 1.0]]]),
          ("zero", [EYE2, [[0.0, 0.0], [0.0, 0.0]]]),
      ]),
    # a flag of R^2 has terms of dimension 1..2; -1 gave an empty check that
    # passed, 5 an IndexError
    pytest.param("shadow", _setting("experiment", "flag_dims", value=[-1, 2]),
                 "$.experiment.flag_dims", id="shadow-flag_dims-negative"),
    pytest.param("shadow", _setting("experiment", "flag_dims", value=[1, 5]),
                 "$.experiment.flag_dims", id="shadow-flag_dims-above-dimension"),
    # a valid flag of R^2 that the rotations of the mixed cocycle do not keep
    pytest.param("shadow", _setting("experiment", "flag_dims", value=[1, 2]),
                 "$.experiment.flag_dims", id="shadow-flag_dims-not-invariant"),
    # blocks, conjugator and B must act on R^2 like the cocycle
    *(pytest.param(kind, _setting("descriptor", "block_dims", value=[1, 2]),
                   "$.descriptor.block_dims", id=f"{kind}-block_dims-sum-3")
      for kind in ("verify-zimmer", "reconstruct")),
    pytest.param("reconstruct", _setting("experiment", "conjugator", value=TABLE_1X1),
                 "$.experiment.conjugator", id="reconstruct-conjugator-1x1"),
    pytest.param("reconstruct", _cocycle_b(TABLE_1X1), "$.experiment.cocycle_b",
                 id="reconstruct-cocycle_b-1x1"),
    # table values are square matrices; scalars gave an IndexError
    pytest.param("exponents", _setting("cocycle", "table", value={"0": 1.0, "1": 2.0}),
                 "$.cocycle.table", id="exponents-table-scalars"),
])
def test_malformed_value_exits_2_with_key_path(kind, corrupt, path, tmp_path, capsys):
    cfg = load(kind)
    corrupt(cfg)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    assert main([kind, "--config", str(bad)]) == 2
    assert f"config error at {path}:" in capsys.readouterr().err


@pytest.mark.parametrize("text, path", [
    ("[1, 2]", "$"),
    ('{"experiment": [1]}', "$.experiment"),
])
def test_config_that_is_not_an_object_exits_2(text, path, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    assert main(["exponents", "--config", str(bad)]) == 2
    assert f"config error at {path}:" in capsys.readouterr().err


def test_run_rejects_budgets_that_are_not_an_object():
    cfg = load("exponents")
    cfg["experiment"]["budgets"] = [1]
    with pytest.raises(ConfigError, match=r"at \$\.experiment\.budgets:"):
        run(cfg)


def test_probe_grids_keep_their_values():
    # an integer theta stays an integer in the report
    cfg = load("blocks")
    cfg["experiment"]["probe_n_grid"] = [1]
    cfg["experiment"]["probe_theta_grid"] = [1000]
    rows = run(cfg)["tables"]["probe"]
    assert rows and all(r["theta_star"] in (None, 1000) for r in rows)
    assert any(type(r["theta_star"]) is int for r in rows)


def test_table_json_round_trip_past_nine_symbols():
    # window-0 keys of a 12-symbol table are one symbol each, "11 " included
    q = full_shift(12)
    a = LocallyConstantCocycle.from_function(
        q, 0, lambda w: np.diag([1.0 + w[0], 1.0]))
    back = build_cocycle({"cocycle": a.table_jsonable()}, q)
    assert back.table.keys() == a.table.keys()
    assert all(np.array_equal(back.table[w], m) for w, m in a.table.items())


def test_exponents_constant_diagonal_report():
    # lambda_+ = ln 2 appears in the report for the constant diag(2, 1/2)
    config = {
        "system": {"transition_matrix": [[1, 1], [1, 1]], "tau": 1.0},
        "measure": {"transition_probabilities": [[0.5, 0.5], [0.5, 0.5]]},
        "cocycle": {"window_radius": 0, "dimension": 2,
                    "table": {"0": [[2.0, 0.0], [0.0, 0.5]],
                              "1": [[2.0, 0.0], [0.0, 0.5]]}},
        "experiment": {"kind": "exponents", "seed": 3, "n": 2,
                       "trials": 200, "max_period": 2},
    }
    report = run(config)
    import math

    rows = report["tables"]["periodic_exponents"]
    assert all(abs(r["lambda_plus"] - math.log(2)) <= 1e-12 for r in rows)
    assert abs(report["results"]["finite_scale_a_n"] - math.log(2)) <= 1e-12


def test_budget_flags(tmp_path):
    src = CONFIG_DIR / CONFIGS["exponents"]
    out = tmp_path / "r.json"
    assert main(["exponents", "--config", str(src), "--out", str(out),
                 "--budget-words", "4", "--budget-samples", "50"]) == 0
    report = json.loads(out.read_text())
    assert report["budgets"] == {"words": 4, "samples": 50}
    assert report["results"]["finite_scale_a_n"] is None
    assert "monte_carlo" in report["results"]
    assert report["results"]["monte_carlo"]["trials"] == 50


def test_missing_config_file_clean_exit(capsys):
    assert main(["exponents", "--config", "/does/not/exist.json"]) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_shadow_with_angle_experiment_tables():
    # shadow experiment with a declared invariant flag produces angle and
    # projection tables and checks the closed-form bound
    table = {"0": [[1.0, 1.0], [0.0, 1.0]], "1": [[1.0, 1.0], [0.0, 2.0]]}
    config = {
        "system": {"transition_matrix": [[1, 1], [1, 1]], "tau": 1.0},
        "measure": {"transition_probabilities": [[0.5, 0.5], [0.5, 0.5]]},
        "cocycle": {"window_radius": 0, "dimension": 2, "table": table},
        "experiment": {"kind": "shadow", "seed": 23, "x_word": "0",
                       "y_word": "1", "ms": [4, 8], "b": 2, "c": 2,
                       "alpha": 0.1, "N": 4, "theta": 3.5,
                       "flag_dims": [1, 2], "cone_split": [1, 1],
                       "cone_mu": 2.0, "cone_lambda": 0.999,
                       "cone_epsilon": 0.05, "cone_delta": 0.3},
    }
    report = run(config)
    assert report["passed"]
    assert report["tables"]["angles"]
    assert all(r["meets_bound"] for r in report["tables"]["projection_growth"])
    assert report["results"]["j0"] < report["results"]["j1"] \
        < report["results"]["u_m"]


def reference_run_holonomy(cfg, q, metric, exp, rng, budgets):
    """The per-pair loop that the holonomy experiment batches: each pair's
    draws, single-point holonomies and orbit products, one pair at a time."""
    mu = cli.build_measure(cfg, q)
    a = cli.build_cocycle(cfg, q)
    n_pairs = min(exp.get("pairs", 400), budgets["samples"])
    inter_n = exp.get("intertwine_n", 10)
    chain_worst = 0.0
    inter_worst = 0.0
    lip_max = 0.0
    for _ in range(n_pairs):
        x = sample_point(mu, rng, 12)
        y = sample_stable_partner(mu, x, rng)
        z = sample_stable_partner(mu, x, rng)
        h_xy = stable_holonomy(a, x, y)
        h_xz = stable_holonomy(a, x, z)
        h_yz = stable_holonomy(a, y, z)
        chain_worst = max(chain_worst, float(np.max(np.abs(
            h_yz.matrix @ h_xy.matrix - h_xz.matrix))))
        lhs = iterate(a, y.shifted(inter_n), -inter_n) @ stable_holonomy(
            a, x.shifted(inter_n), y.shifted(inter_n)).matrix @ iterate(a, x, inter_n)
        inter_worst = max(inter_worst, float(np.max(np.abs(h_xy.matrix - lhs))))
        d = distance(x, y, metric)
        if d > 0:
            lip_max = max(lip_max, float(np.linalg.norm(
                h_xy.matrix - np.eye(a.dimension), 2)) / d)
        u = sample_unstable_partner(mu, x, rng)
        h_u = unstable_holonomy(a, x, u)
        chain_worst = max(chain_worst, float(np.max(np.abs(
            unstable_holonomy(a, u, x).matrix @ h_u.matrix - np.eye(a.dimension)))))
    results = {"pairs": n_pairs, "lipschitz_ratio_max": lip_max,
               "intertwine_n": inter_n}
    checks = [
        cli._check("chain-rule", chain_worst, exp.get("tolerance", 1e-12),
                   "holonomy: transport composes along stable triples"),
        cli._check("intertwining", inter_worst, exp.get("tolerance", 1e-12),
                   "holonomy: conjugation by orbit products"),
        cli._check("lipschitz-finite", lip_max, exp.get("lipschitz_bound", 1e6),
                   "holonomy: ||H - Id|| <= L rho"),
    ]
    return results, {}, checks


def _holonomy_config(system):
    """The bundled holonomy config, or one over another shift and cocycle:
    the window-2 cocycle on the golden mean or a window-0 one on the 2-shift."""
    cfg = load("holonomy")
    if system == "bundled":
        return cfg
    q, mu, a = {"golden-window-2": (golden_mean_shift(), golden_mean_markov(),
                                    mild_random_cocycle(golden_mean_shift(), 2, 3, 1.0)),
                "2-shift-window-0": (full_shift(2), None,
                                     mixed_hyperbolic_cocycle(full_shift(2)))}[system]
    cfg["system"]["transition_matrix"] = q.as_array.tolist()
    if mu is not None:
        cfg["measure"]["transition_probabilities"] = mu.transition_probabilities.tolist()
    cfg["cocycle"] = a.table_jsonable()
    return cfg


@pytest.mark.parametrize("system", ["bundled", "golden-window-2", "2-shift-window-0"])
@pytest.mark.parametrize("inter_n", [1, 3, 10])
def test_holonomy_report_equals_per_pair_loop(system, inter_n, monkeypatch):
    # the batch draws every pair first in the loop's order and forms the same
    # products, so the report bytes are the loop's
    for seed in (0, 13, 2242528604):
        cfg = _holonomy_config(system)
        cfg["experiment"].update(seed=seed, intertwine_n=inter_n, pairs=80)
        batched = emit(run(copy.deepcopy(cfg)), "json")
        with monkeypatch.context() as m:
            m.setitem(cli._HANDLERS, "holonomy", reference_run_holonomy)
            assert emit(run(cfg), "json") == batched


def per_point_samples(mu, rng, count, core_length, start=None):
    """`count` points drawn one at a time: a word, then its closure, as
    sample_point drew them before points were built in batches."""
    offset = core_length // 2 if start is None else -start
    return [close_word(mu.support, sample_word(mu, rng, core_length), offset)
            for _ in range(count)]


@pytest.mark.parametrize("kind", ["reconstruct", "example-unipotent", "blocks"])
def test_sampled_reports_equal_per_point_draws(kind, monkeypatch):
    # a report whose points come from one batch is the report of a loop that
    # draws and closes one point at a time.  These reports read the same at
    # every seed, so the points each run drew are compared too.
    seen = []
    for seed in (0, 13, 77, 2242528604):
        cfg = load(kind)
        cfg["experiment"]["seed"] = seed
        reports, draws = [], []
        for sampler in (sample_points, per_point_samples):
            def recorded(*args, sampler=sampler):
                draws.append(sampler(*args))
                return draws[-1]
            with monkeypatch.context() as m:
                m.setattr(cli, "sample_points", recorded)
                reports.append(emit(run(copy.deepcopy(cfg)), "json"))
        assert reports[0] == reports[1], seed
        assert len(draws) == 2 and draws[0] == draws[1], seed
        seen.append(draws[0])
    assert all(a != b for a, b in zip(seen, seen[1:]))
