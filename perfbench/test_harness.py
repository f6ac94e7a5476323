"""Tests of the benchmark harness.  Run:  python3 -m pytest -q perfbench"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
import workloads as wl  # noqa: E402


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_same_seed_same_inputs(workload):
    for seed in (0, 1, 12345):
        for index in range(3):
            assert wl.make_pass(workload, seed, index) == \
                wl.make_pass(workload, seed, index)
    drawn = {json.dumps(wl.make_pass(workload, seed, 0)) for seed in range(10)}
    assert len(drawn) > 1


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_every_drawn_input_has_a_reference(workload):
    refs = wl.load_refs(workload)
    for seed in range(40):
        for index in range(4):
            for item in wl.make_pass(workload, seed, index):
                if item["kind"] == "trotter_step":
                    assert all(wl.trotter_key(item["u"], t) in refs
                               for t in item["t"])
                elif item["kind"] != "table2":
                    assert wl.item_key(item) in refs


def test_references_hold_exactly_the_input_pool():
    pools = {"verify_exact": wl.verify_pool(), "bounds_large": wl.bounds_pool(),
             "estimate_sweep": wl.sweep_pool()}
    trotter = {wl.trotter_key(u, t) for u in wl.INTERACTIONS
               for t in wl.TROTTER_TIMES}
    for workload, pool in pools.items():
        keys = {wl.item_key(item) for item in pool}
        if workload == "verify_exact":
            keys |= trotter
        assert set(wl.load_refs(workload)) == keys


def test_table2_inputs_repeat_in_every_sweep_pass():
    from fthub import refdata
    from fthub.cli import build_parser

    table = refdata.TABLE_PARAMS
    assert wl.TABLE2_U_TAU == (table["u"], table["tau"])
    assert build_parser().parse_args(["qpe"]).V == table["v"]
    for seed in range(20):
        for index in range(3):
            qpe = [i for i in wl.make_pass("estimate_sweep", seed, index)
                   if i["kind"] == "qpe"]
            assert [(i["model"], (i["u"], i["tau"])) for i in qpe][0] == \
                ("extended_hubbard", wl.TABLE2_U_TAU)
            assert qpe[1]["model"] == "hubbard"
            assert (qpe[1]["u"], qpe[1]["tau"]) != wl.TABLE2_U_TAU


def _fresh_inputs(workload, seed, index):
    items = wl.make_pass(workload, seed, index)
    if workload == "bounds_large":
        return [(i["L"], i["model"], i["u"], i["v"], i["tau"]) for i in items]
    return [(i["u"], i["tau"]) for i in items
            if i["kind"] == "qpe" and i["model"] == "hubbard"]


@pytest.mark.parametrize("workload,passes", [("bounds_large", 10),
                                             ("estimate_sweep", 9)])
def test_no_fresh_input_recurs_within_a_run(workload, passes):
    for seed in range(20):
        drawn = [key for index in range(passes)
                 for key in _fresh_inputs(workload, seed, index)]
        assert len(drawn) == len(set(drawn))


def _commutator_case():
    refs = wl.load_refs("verify_exact")
    item = {"kind": "commutator_bounds", "lattice": "ring6",
            "u": 2.0, "v": 3.0, "tau": 0.5}
    ref = refs[wl.item_key(item)]
    reports = [{"check": name, "exact": value, "bound": 2 * value + 1,
                "pass": True} for name, value in ref.items()]
    return item, reports, refs


@pytest.mark.parametrize("scale", [1 - 1e-6, 1 + 1e-6])
def test_checker_flags_a_scaled_norm(scale):
    item, reports, refs = _commutator_case()
    assert wl.check(item, reports, refs) is None
    reports[1]["exact"] *= scale
    assert "exact" in wl.check(item, reports, refs)


def test_checker_flags_a_failed_report_and_missing_check():
    item, reports, refs = _commutator_case()
    reports[0]["pass"] = False
    assert wl.check(item, reports, refs) is not None
    assert wl.check(item, reports[1:], refs) is not None


def test_checker_flags_a_perturbed_trotter_error():
    refs = wl.load_refs("verify_exact")
    item = {"kind": "trotter_step", "u": 3.0, "t": [0.05, 0.1, 0.25]}
    reports = [{"check": "trotter_step", "exact": refs[wl.trotter_key(3.0, t)],
                "pass": True} for t in item["t"]]
    assert wl.check(item, reports, refs) is None
    reports[2]["exact"] *= 1 - 1e-6
    assert wl.check(item, reports, refs) is not None


def test_checker_flags_perturbed_bounds(tmp_path):
    refs = wl.load_refs("bounds_large")
    item = wl.bounds_pool()[7]
    doc = dict(refs[wl.item_key(item)])
    path = tmp_path / "bounds.json"
    path.write_text(json.dumps(doc))
    assert wl.check(item, {"rc": 0, "path": path}, refs) is None
    assert wl.check(item, {"rc": 1, "path": path}, refs) is not None
    doc["w_h"] *= 1 + 1e-6
    path.write_text(json.dumps(doc))
    assert "w_h" in wl.check(item, {"rc": 0, "path": path}, refs)


def test_checker_flags_a_table2_diff(tmp_path):
    path = tmp_path / "table.csv"
    header = "model,quantity,alpha,N,computed,rounded,reference,diff\n"
    path.write_text(header + "hubbard,n_t,0,32,320,320,320,0\n")
    assert wl.check({"kind": "table2"}, {"rc": 0, "path": path}, {}) is None
    path.write_text(header + "hubbard,n_t,0,32,321,321,320,1\n")
    assert wl.check({"kind": "table2"}, {"rc": 0, "path": path}, {}) is not None


def test_checker_flags_a_changed_byte(tmp_path):
    from fthub.cli import main

    refs = wl.load_refs("estimate_sweep")
    item = {"kind": "lattice", "L": 4}
    path = tmp_path / "lattice.json"
    assert main(wl.cli_argv(item, str(path))) == 0
    assert wl.check(item, {"rc": 0, "path": path}, refs) is None
    data = bytearray(path.read_bytes())
    data[-2] ^= 1
    path.write_bytes(bytes(data))
    assert wl.check(item, {"rc": 0, "path": path}, refs) is not None


def test_self_time_on_a_synthetic_tree():
    # root [0, 10] has children a [1, 4], b [5, 6] and d [5.5, 7]; a has
    # child c [2, 3]; b and d overlap, so their union is subtracted once
    tree = [["root", 0.0, 10.0, -1, None, None],
            ["a", 1.0, 4.0, 0, None, None],
            ["c", 2.0, 3.0, 1, None, None],
            ["b", 5.0, 6.0, 0, None, None],
            ["d", 5.5, 7.0, 0, None, None]]
    assert spans.self_times(tree) == pytest.approx([5.0, 2.0, 1.0, 1.0, 1.5])


def test_layer_metrics_on_a_synthetic_tree():
    tree = [["oracle.exact_spectral_norm", 0.0, 10.0, -1, None, None],
            ["kernels.apply_pauli_sum", 1.0, 2.0, 0, None, (10, 256)],
            ["kernels.apply_pauli_sum", 3.0, 5.0, 0, None, (10, 256)],
            ["kernels.apply_pauli_sum", 11.0, 12.0, -1, None, (4, 256)],
            ["trotterbounds.w_tile", 12.0, 14.0, -1, None, "k1"],
            ["freefermion.schatten1", 12.5, 13.0, 4, None, 8],
            ["trotterbounds.w_tile", 14.0, 15.0, -1, None, "k1"]]
    m = spans.layer_metrics(tree)
    assert m["kernels.matvec_calls"] == 3
    assert m["kernels.strings_applied"] == 24
    assert m["kernels.matvec_bytes"] == 48 * 24 * 256
    assert m["kernels.matvec_s"] == pytest.approx(4.0)
    assert m["oracle.norm_s"] == pytest.approx(7.0)
    assert m["oracle.matvecs_per_norm"] == 2
    assert m["freefermion.eig_n3"] == 512
    assert m["trotterbounds.w_tile_calls"] == 2
    assert m["trotterbounds.w_tile_distinct_frac"] == 0.5


def test_an_unreadable_size_is_counted_not_lost():
    tracer = spans.Tracer()

    def apply_pauli_sum(terms, vec):  # a changed signature
        return len(terms)

    wrapped = tracer.wrap("kernels.apply_pauli_sum", apply_pauli_sum)
    assert wrapped([1, 2], None) == 2
    assert tracer.size_errors == {"kernels.apply_pauli_sum": 1}
    assert len(tracer.spans) == 1


def test_install_wraps_names_where_they_are_looked_up():
    code = ("import sys; sys.path[:0] = [%r, %r]; import spans, fthub\n"
            "from fthub import freefermion, oracle, trotterbounds, pauli\n"
            "assert spans.installed_wrappers() == 0\n"
            "t = spans.Tracer(); spans.install(t)\n"
            "for mod in (freefermion, oracle, trotterbounds):\n"
            "    assert hasattr(mod.schatten1, spans.MARK)\n"
            "assert hasattr(pauli.PauliSum.__matmul__, spans.MARK)\n"
            "trotterbounds.schatten1([[0.0, 1.0], [1.0, 0.0]])\n"
            "assert [s[0] for s in t.spans] == ['freefermion.schatten1']\n"
            % (str(HERE), str(ROOT / "src")))
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60)


def _worker(trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "estimate_sweep", "3", "0",
         str(trace), "1"], cwd=ROOT, capture_output=True, text=True,
        check=True, timeout=120)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_untraced_worker_installs_no_wrappers():
    plain = _worker(0)
    assert plain["wrappers"] == 0
    assert "layers" not in plain
    assert plain["failed"] == 0 and plain["attempted"] == 13
    traced = _worker(1)
    assert traced["wrappers"] > 0
    assert traced["failed"] == 0
    assert traced["layers"]["qpe.optimize_x_calls"] > 0
    assert traced["layers"]["kernels.matvec_calls"] == 0
    assert traced["layers"]["trotterbounds.w_tile_calls"] == 32
    assert traced["layers"]["trotterbounds.w_tile_distinct_frac"] == 0.75


def test_traced_worker_refuses_unreadable_sizes():
    code = ("import sys; sys.path[:0] = [%r]; import spans, worker\n"
            "spans.SIZE_OF['lattice.build_periodic_hex'] = lambda *a: 1 / 0\n"
            "sys.exit(worker.main(['estimate_sweep', '3', '0', '1', '1']))\n"
            % str(HERE))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 3
    assert "lattice.build_periodic_hex" in proc.stderr
    assert proc.stdout == ""


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bounds_large",
         "--seed", "1", "--seconds", "5", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
