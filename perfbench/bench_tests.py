"""The benchmark's own tests.

    python3 -m pytest perfbench/bench_tests.py

The file name keeps these tests out of the package's default test run; they
exercise the benchmark, not qlebath.
"""

import json
import math
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import harness  # noqa: E402
import spans  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS, make_deck  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_deterministic_for_a_seed(workload):
    first = json.dumps(make_deck(workload, 7))
    assert json.dumps(make_deck(workload, 7)) == first
    assert json.dumps(make_deck(workload, 8)) != first


def test_metric_names_are_well_formed():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = ([m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
             + list(harness.END_TO_END) + list(harness.PER_LAYER))
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert [m["name"] for m in spec["per_layer"]] == list(harness.PER_LAYER)
    assert {m["name"] for m in spec["end_to_end"]} <= set(harness.END_TO_END)


def _span(sid, parent, layer, start, end, error=False):
    return {"id": sid, "parent": parent, "run": "r", "layer": layer,
            "name": layer, "start": start, "end": end, "error": error}


def test_self_time_on_a_synthetic_span_tree():
    tree = [_span(0, None, "cli", 0.0, 10.0),
            _span(1, 0, "config", 1.0, 2.0),
            _span(2, 0, "thermo", 3.0, 8.0, error=True),
            _span(3, 2, "response", 4.0, 5.0),
            _span(4, 2, "thermo", 5.0, 7.0, error=True),
            _span(5, 4, "response", 6.0, 6.5)]
    table = spans.layer_table(tree)
    assert table["cli"]["self_s"] == pytest.approx(4.0)
    assert table["config"]["self_s"] == pytest.approx(1.0)
    assert table["thermo"]["self_s"] == pytest.approx(2.0 + 1.5)
    assert table["thermo"]["busy_s"] == pytest.approx(5.0)
    assert table["thermo"]["calls"] == 2
    assert table["thermo"]["errors"] == 1
    assert table["response"]["busy_s"] == pytest.approx(1.5)
    assert table["motion"] == {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                               "errors": 0}


def test_tracer_links_nested_calls():
    tracer = spans.Tracer()
    inner = tracer.wrap("response", lambda: 1)
    outer = tracer.wrap("thermo", lambda: inner() + 1)
    assert outer() == 2
    assert [(s["layer"], s["parent"]) for s in tracer.spans] == [
        ("thermo", None), ("response", 0)]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_workload_passes_a_tiny_smoke_run(workload):
    record = harness.run_workload(workload, seed=3, seconds=0.0, trace=True,
                                  root=ROOT, setup_repeats=1, max_cases=3)
    assert record["attempted"] >= 1
    assert record["failed"] == len(record["failures"])
    assert all(f["why"] for f in record["failures"])
    metrics = {**record["end_to_end"], **record["per_layer"]}
    assert set(harness.END_TO_END) | set(harness.PER_LAYER) == set(metrics)
    assert all(math.isfinite(v) for v in metrics.values())
    assert record["end_to_end"]["setup_s"] > 0


def test_decks_leave_out_what_the_program_rejects_or_gets_wrong():
    catalogue = set()
    for family in workloads.ROUTE_FAMILIES:
        for slot in range(workloads.ROUTE_SLOTS):
            for choice in range(workloads.ROUTE_CHOICES):
                for case in workloads.route_pair(family, slot, choice, 1):
                    cfg = case["config"]
                    catalogue.add((cfg["command"], json.dumps(cfg["kernel"]),
                                   json.dumps(cfg["model"]),
                                   json.dumps(cfg["grids"])))
    for seed in range(40):
        for case in make_deck("oracle_moving", seed):
            cfg = case["config"]
            assert cfg["N"] >= 400
            assert cfg["grids"]["t"]["start"] == 0.0 or "output" not in cfg
        routes = {(c["config"]["command"], json.dumps(c["config"]["kernel"]),
                   json.dumps(c["config"]["model"]),
                   json.dumps(c["config"]["grids"]))
                  for c in make_deck("quadrature_sweep", seed)
                  if c["id"].startswith("route-")}
        assert len(routes) == 2 * 3 * workloads.ROUTE_SLOTS
        assert routes <= catalogue


def test_every_route_catalogue_entry_passes_the_route_check(tmp_path):
    from qlebath.cli import main as cli_main
    for family in workloads.ROUTE_FAMILIES:
        for slot in range(workloads.ROUTE_SLOTS):
            for choice in range(workloads.ROUTE_CHOICES):
                csv = None
                for case in workloads.route_pair(family, slot, choice, 3):
                    path = tmp_path / f"{case['id']}.json"
                    path.write_text(json.dumps(case["config"]),
                                    encoding="utf-8")
                    out = str(tmp_path / case["id"])
                    rc = cli_main(["--config", str(path), "--out", out])
                    outcome, csv = verify.check(case, out, rc, {}, csv)
                    assert outcome.ok, (family, slot, choice, outcome.notes)


# Known defects that the decks above leave out, because every benchmark run
# must be free of failures.  They are expected to fail until the package is
# fixed; the checks in verify.py catch them when they are run.

@pytest.mark.xfail(reason="load_ensemble rebuilds times from 0 (ROADMAP "
                          "item 5)", strict=False)
def test_dump_of_a_late_starting_grid_reloads_its_times(tmp_path):
    from qlebath.cli import main as cli_main
    config = {"command": "oracle", "seed": 5, "N": 200, "n_traj": 16,
              "T": 1.0, "kernel": {"variant": "ohmic", "gamma": 1.0},
              "model": {"M": 1.0, "K": 0.0},
              "grids": {"t": {"start": 0.1, "stop": 0.5, "num": 5}},
              "output": {"dump": "ensemble.bin"}}
    case = {"id": "late", "config": config, "check": None, "pair": None}
    path = tmp_path / "late.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    rc = cli_main(["--config", str(path), "--out", str(tmp_path / "out")])
    outcome, _ = verify.check(case, str(tmp_path / "out"), rc,
                              verify.prepare(case), None)
    assert outcome.ok, outcome.notes


@pytest.mark.parametrize("kernel, K, T, route", [
    ({"variant": "ohmic", "gamma": 0.05283}, 2.859, 0.1688, "shift"),
    ({"variant": "blackbody", "Omega": 18.95}, 0.8838, 8.766, "free-energy"),
])
@pytest.mark.xfail(reason="at the default tolerance 1e-8 a quadrature error "
                          "estimate can be over ten times too small",
                   strict=False)
def test_quadrature_error_estimates_hold_at_the_default_tolerance(
        tmp_path, kernel, K, T, route):
    from qlebath import thermo
    from qlebath.config import load_config
    model = {"M": 1.0, "K": K}
    if "Omega" in kernel:
        model["Omega"] = kernel.pop("Omega")
    path = tmp_path / "c.json"
    path.write_text(json.dumps({
        "command": route, "kernel": kernel, "model": model,
        "grids": {"T": {"start": T, "stop": 2 * T, "num": 2}}}),
        encoding="utf-8")
    cfg = load_config(str(path))
    fn = (thermo.free_energy_shift if route == "shift"
          else thermo.coupled_free_energy)
    value, err = fn(cfg.kernel(), cfg.model(), T, rtol=1e-8)
    exact, _ = fn(cfg.kernel(), cfg.model(), T, rtol=1e-12)
    assert abs(value - exact) <= 10.0 * err
