"""Self-tests of the benchmark's own code: seeded instances and the span reducer.

    python3 -m pytest bench/test_bench.py
"""

import json

import numpy as np

import idospec
import oracles
import run
from idospec import cli, spectral, transform
from idospec.quadrature import TriangularField, make_grid

import tracer
import workloads
from tracer import Span


def test_same_seed_same_instances():
    for cls in (workloads.SpectrumWorkload, workloads.IdentitiesWorkload):
        a, b, c = cls(7), cls(7), cls(8)
        assert [a.rng(i).random() for i in range(4)] == [b.rng(i).random() for i in range(4)]
        assert [a.rng(i).random() for i in range(4)] != [c.rng(i).random() for i in range(4)]
    spec = workloads.SpectrumWorkload(7)
    assert [spec.instance(i) for i in range(6)] == [workloads.SpectrumWorkload(7).instance(i) for i in range(6)]
    assert [spec.instance(i)["kind"] for i in range(4)] == ["constant", "structured"] * 2
    inv = workloads.InvertWorkload(7)
    assert [inv.truth(k) for k in range(inv.K)] == [workloads.InvertWorkload(7).truth(k) for k in range(inv.K)]
    assert inv.truth(0) != workloads.InvertWorkload(8).truth(0)


def test_run_size_depends_on_seconds_only():
    for cls in workloads.WORKLOADS.values():
        wl = cls(7)
        n = wl.operations(20)
        assert n >= wl.cycle and n % wl.cycle == 0
        assert n == cls(8).operations(20)
        assert wl.operations(0.1) == wl.cycle and wl.operations(0.1, traced=True) == 1
    assert workloads.SpectrumWorkload(7).operations(20) == 10


def test_invert_truths_form_a_latin_hypercube():
    inv = workloads.InvertWorkload(3)
    spans = [(inv.A1[0], inv.A1[1] - inv.A1[0]), (0.0, 2 * np.pi),
             (inv.A2[0], inv.A2[1] - inv.A2[0]), (0.0, 2 * np.pi)]
    cells = []
    for k in range(inv.K):
        (a1, _, phi1), (a2, _, phi2) = inv.truth(k)
        cells.append([int((v - lo) / width * inv.K) for v, (lo, width) in zip((a1, phi1, a2, phi2), spans)])
    assert [c[0] for c in cells] == list(range(inv.K))
    for col in range(1, 4):
        assert sorted(c[col] for c in cells) == list(range(inv.K))
    assert [tuple(c[1:]) for c in cells] == list(inv.STRATA)


def test_direct_delta_matches_the_package_march():
    coeffs = workloads.smooth_profile(np.random.default_rng(3))
    lams = np.array([1.3 - 2j, -7.2 - 7.9j, 15 + 0.4j])
    field = TriangularField.from_function(make_grid(100), lambda x, t: workloads.eval_trig(coeffs, x - t))
    expected = [spectral.eval_e_direct(field, lam)[-1] for lam in lams]
    np.testing.assert_allclose(workloads.direct_delta(coeffs, lams, 100), expected, rtol=1e-12)


def test_winding_count_sees_zeros_near_the_edge():
    w = workloads.WINDOW
    zeros = [0.5 - 1j, 3 + 0.2j, -19.9 - 7.9995j]  # the last is 5e-4 from the bottom edge
    poly = lambda z: np.prod([z - r for r in zeros], axis=0)  # noqa: E731
    assert workloads.winding_count(poly, w) == 3
    assert workloads.winding_count(poly, workloads._window(-1e-3)) == 2


def _write_spectrum(out, roots):
    out.mkdir(parents=True, exist_ok=True)
    evs = [{"re": z.real, "im": z.imag, "multiplicity": 1} for z in roots]
    (out / "spectrum.json").write_text(json.dumps({"eigenvalues": evs, "total_count": len(evs)}))


def test_spectrum_check_fails_a_missing_root(tmp_path):
    spec = workloads.SpectrumWorkload(7)
    c = spec.instance(0)["c"]
    roots = oracles.oracle_roots_in_window(**workloads.WINDOW, c=c)
    _write_spectrum(tmp_path, roots)
    assert spec.check(0, tmp_path)[0] == "ok"
    _write_spectrum(tmp_path, roots[1:])
    assert spec.check(0, tmp_path)[0] == "wrong"
    _write_spectrum(tmp_path, [])  # a structured instance has roots in the window too
    assert spec.check(1, tmp_path)[0] == "wrong"


def test_a_check_that_raises_is_a_wrong_outcome(tmp_path):
    class Broken(workloads.Workload):
        def check(self, i, out):
            return [][0]

    assert run.judge(Broken(0), 0, tmp_path, cli.EXIT_OK, cli) == ("wrong", None)


def _spans():
    # op 0: a (0..10) calls b (1..4) and c (3..6, overlapping b) and b again (8..9);
    # b (1..4) calls c (2..3). op 1: d (20..25) with no children.
    return [
        Span("m.a", 0.0, 10.0, -1, 0, 0),
        Span("m.b", 1.0, 4.0, 0, 0, 5),
        Span("n.c", 2.0, 3.0, 1, 0, 1),
        Span("n.c", 3.0, 6.0, 0, 0, 2),
        Span("m.b", 8.0, 9.0, 0, 0, 7),
        Span("n.d", 20.0, 25.0, -1, 1, 0),
    ]


def test_self_time_subtracts_covered_child_time():
    # a's children cover 1..6 and 8..9: 6 of its 10 seconds
    assert tracer.self_times(_spans()) == [4.0, 2.0, 1.0, 3.0, 1.0, 5.0]


def test_table_busy_self_and_count():
    rows = tracer.table(_spans())
    assert rows["m.b"] == {"calls": 2, "s": 4.0, "self_s": 3.0, "count": 12}
    assert rows["n.c"] == {"calls": 2, "s": 4.0, "self_s": 4.0, "count": 3}
    # module n: the c inside b and the c inside a are both outermost n spans
    assert rows["n"]["s"] == 4.0 + 5.0
    # module m: b is nested in a, so only a counts toward busy time
    assert rows["m"] == {"calls": 3, "s": 10.0, "self_s": 7.0, "count": 0}
    only_op1 = tracer.table(_spans(), lambda sp: sp.op == 1)
    assert set(only_op1) == {"n.d", "n"}
    assert tracer.count_under(_spans(), "n.c", "m.b") == 1


def test_install_wraps_every_binding_and_restore_undoes_it():
    original = transform.compute_g
    tr = tracer.Tracer()
    tr.install()
    try:
        assert idospec.inverse.compute_g is idospec.transform.compute_g is idospec.compute_g
        assert idospec.transform.compute_g is not original
        grid = idospec.make_grid(8)
        g = idospec.inverse.compute_g(idospec.TriangularField.constant(grid, 1.0))
        spectral.char_delta(g, [0.5, 1.0, 2.0])
    finally:
        tr.restore()
    assert transform.compute_g is original and idospec.inverse.compute_g is original
    rows = tracer.table(tr.spans)
    assert rows["transform.compute_g"]["count"] == g.iterations
    assert rows["transform.picard_step"]["calls"] == g.iterations - 1
    assert rows["spectral.char_delta_deriv"]["count"] == 3
    assert rows["spectral.char_delta"]["calls"] == 1


def test_failures_are_counted_once_where_they_escape():
    tr = tracer.Tracer()
    tr.op = 5
    tr.install()
    try:
        grid = idospec.make_grid(8)
        try:
            idospec.compute_g(idospec.TriangularField.constant(grid, 1.0), max_terms=1)
        except idospec.PicardConvergenceError:
            pass
    finally:
        tr.restore()
    assert tr.failures == {(5, "PicardConvergenceError"): 1}
