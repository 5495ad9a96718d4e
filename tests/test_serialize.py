import json
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from idospec.quadrature import Profile, TriangularField, make_grid
from idospec.transform import compute_g
from idospec.spectral import Eigenvalue, SearchWindow, Spectrum
from idospec import serialize

from oracles import transform_kernel_from_files


class TestJson:
    def test_insertion_order_preserved(self):
        text = serialize.dumps_json({"b": 1, "a": 2})
        assert text.index('"b"') < text.index('"a"')

    def test_float_precision_round_trips(self):
        x = 0.1 + 0.2  # not representable exactly; 17 digits must round-trip
        text = serialize.dumps_json({"v": x})
        assert json.loads(text)["v"] == x

    def test_deterministic(self):
        obj = {"a": [1.5, 2.25], "b": {"c": np.float64(3.125)}, "flag": True}
        assert serialize.dumps_json(obj) == serialize.dumps_json(obj)

    def test_booleans_and_null(self):
        assert serialize.dumps_json({"t": True, "f": False, "n": None}) == (
            '{"t": true, "f": false, "n": null}\n'
        )


def _nudge(x: float, steps: int) -> float:
    """x moved by |steps| doubles, up or down."""
    for _ in range(abs(steps)):
        x = float(np.nextafter(x, np.inf if steps > 0 else -np.inf))
    return x


# Values where a 17-digit formatter goes wrong first: signed zeros, dyadic
# fractions (some are exact rounding ties, e.g. 2**-25), neighbours of
# powers of ten (where log10 misses the exponent and rounding carries into
# an 18th digit), and the switches between fixed and exponent notation
EDGE_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 9.9999999999999999e16, 2.0**-25]),
    st.builds(lambda m, e: m * 2.0**-e, st.integers(1, 2**53 - 1), st.integers(0, 1100)),
    st.builds(_nudge, st.integers(-300, 300).map(lambda k: 10.0**k), st.integers(-3, 3)),
    st.builds(_nudge, st.sampled_from([1e-5, 1e-4, 1e16, 1e17]), st.integers(-3, 3)),
).flatmap(lambda x: st.sampled_from([x, -x]))


def _texts(block) -> list:
    return [bytes(row).rstrip(b"\0").decode() for row in block]


class TestFmtArray:
    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(st.floats() | EDGE_FLOATS, min_size=1, max_size=40))
    def test_equals_format_17g(self, values):
        block = serialize.fmt_array(np.array(values))
        assert _texts(block) == [format(x, ".17g") for x in values]
        # NUL padding only after the text, and no column that is NUL throughout
        assert block.shape[1] == max(len(format(x, ".17g")) for x in values)
        for row, x in zip(block, values):
            assert not row[len(format(x, ".17g")):].any()

    def test_every_power_of_ten_neighbourhood(self):
        values = [_nudge(10.0**k, s) for k in range(-323, 309) for s in range(-3, 4)]
        values = np.array(values + [-v for v in values])
        assert _texts(serialize.fmt_array(values)) == [format(x, ".17g") for x in values]

    def test_random_bit_patterns(self):
        values = np.random.default_rng(7).integers(0, 2**64, 20000, dtype=np.uint64).view(float)
        assert _texts(serialize.fmt_array(values)) == [format(x, ".17g") for x in values]

    def test_empty(self):
        assert serialize.fmt_array(np.array([])).shape[0] == 0

    def test_power_of_ten_table_is_correctly_rounded(self):
        hh, hl, lo = serialize._pow10()
        for i, p in enumerate(range(serialize._P_MIN, serialize._P_MAX + 1)):
            exact = Fraction(10) ** p
            hi = float(hh[i]) + float(hl[i])
            assert hi == float(exact)
            assert float(lo[i]) == float(exact - Fraction(hi))


class TestProfileCsv:
    def test_round_trip(self, tmp_path):
        grid = make_grid(12)
        p = Profile.from_function(grid, lambda x: np.sin(x) + 1j * np.cos(2 * x))
        path = tmp_path / "p.csv"
        serialize.profile_to_csv(p, path)
        q = serialize.profile_from_csv(path, grid)
        assert np.array_equal(p.values, q.values)

    def test_bytes_match_per_float_writer(self, tmp_path):
        grid = make_grid(30)
        rng = np.random.default_rng(3)
        values = rng.standard_normal(31) * 10.0 ** rng.integers(-8, 20, 31) + 1j * rng.standard_normal(31)
        values[:4] = [0.0, complex(-0.0, 2.0**-25), complex(1e16, -1e-5), complex(np.inf, np.nan)]
        p = Profile(grid, values)
        path = tmp_path / "p.csv"
        with mock.patch.object(serialize, "CSV_BLOCK", 7):
            serialize.profile_to_csv(p, path)
        fmt = serialize.fmt
        expect = "x,re,im\n" + "".join(
            f"{fmt(x)},{fmt(v.real)},{fmt(v.imag)}\n" for x, v in zip(grid.nodes, values)
        )
        assert path.read_bytes() == expect.encode()

    def test_grid_inferred(self, tmp_path):
        grid = make_grid(7)
        p = Profile.constant(grid, 2.0 - 1.0j)
        path = tmp_path / "p.csv"
        serialize.profile_to_csv(p, path)
        q = serialize.profile_from_csv(path)
        assert q.grid.n_intervals == 7

    def test_grid_mismatch_rejected(self, tmp_path):
        p = Profile.zeros(make_grid(7))
        path = tmp_path / "p.csv"
        serialize.profile_to_csv(p, path)
        with pytest.raises(ValueError):
            serialize.profile_from_csv(path, make_grid(8))

    @pytest.mark.parametrize("shift, refused", [(5e-10, False), (2e-9, True), (np.nan, True)])
    def test_x_column_within_node_tol(self, tmp_path, shift, refused):
        grid = make_grid(4)
        path = tmp_path / "p.csv"
        x = grid.nodes.copy()
        x[3] += shift
        serialize.write_csv(path, "x,re,im", [x, np.ones(5), np.zeros(5)])
        if refused:
            with pytest.raises(ValueError, match=r"^data row 4 has x = "):
                serialize.profile_from_csv(path, grid)
        else:
            assert np.array_equal(serialize.profile_from_csv(path, grid).values, np.ones(5))

    @pytest.mark.filterwarnings("error")
    def test_infinite_imaginary_part_keeps_real_part(self, tmp_path):
        path = tmp_path / "p.csv"
        x = [serialize.fmt(v) for v in make_grid(2).nodes]
        path.write_text(f"x,re,im\n{x[0]},1.5,inf\n{x[1]},2.5,-inf\n{x[2]},0.5,0\n")
        q = serialize.profile_from_csv(path)
        assert np.array_equal(q.values.real, [1.5, 2.5, 0.5])
        assert np.array_equal(q.values.imag, [np.inf, -np.inf, 0.0])


def _field_to_csv_loop(f, path):
    """Cell-by-cell writer, kept as the byte-level oracle for field_to_csv."""
    fmt = serialize.fmt
    nodes = f.grid.nodes
    with open(path, "w") as fh:
        fh.write("x,t,re,im\n")
        for i in range(f.grid.n_nodes):
            for j in range(i + 1):
                v = f.values[i, j]
                fh.write(f"{fmt(nodes[i])},{fmt(nodes[j])},{fmt(v.real)},{fmt(v.imag)}\n")


def _field_to_csv_whole(f, path):
    """field_to_csv through write_csv with every line's indices at once."""
    rows, cols = np.tril_indices(f.grid.n_nodes)
    vals = f.values[rows, cols]
    nodes = f.grid.nodes
    serialize.write_csv(path, "x,t,re,im", [(nodes, rows), (nodes, cols), vals.real, vals.imag])


class TestFieldCsv:
    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(2, 30), seed=st.integers(0, 2**32 - 1),
        edges=st.lists(EDGE_FLOATS, max_size=30), block=st.integers(1, 100),
    )
    def test_bytes_match_cell_by_cell_writer(self, tmp_path_factory, n, seed, edges, block):
        # the triangle of n = 30 has 496 lines, so a small block spans many
        rng = np.random.default_rng(seed)
        vals = rng.standard_normal((n + 1, n + 1)) + 1j * rng.standard_normal((n + 1, n + 1))
        picks = rng.random(vals.shape)
        vals.real[picks < 0.2] = -0.0
        vals.imag[picks > 0.8] = np.round(10 * vals.imag[picks > 0.8])
        vals[0, 0] = complex(-0.0, 3.0)
        parts = vals.view(float).reshape(n + 1, 2 * n + 2)
        for x in edges:
            i = rng.integers(n + 1)
            parts[i, rng.integers(2 * i + 2)] = x
        f = TriangularField(make_grid(n), np.tril(vals))
        out = tmp_path_factory.mktemp("csv")
        with mock.patch.object(serialize, "CSV_BLOCK", block):
            serialize.field_to_csv(f, out / "new.csv")
        _field_to_csv_loop(f, out / "old.csv")
        assert (out / "new.csv").read_bytes() == (out / "old.csv").read_bytes()
        back = serialize.field_from_csv(out / "new.csv")
        assert np.array_equal(back.values, f.values)

    def test_working_memory_is_bounded(self, tmp_path):
        # the text of all 80601 lines of an N = 400 field at once takes
        # about 39 MB; block by block it stays near 6 MB
        n = 400
        rng = np.random.default_rng(5)
        vals = rng.standard_normal((n + 1, n + 1)) + 1j * rng.standard_normal((n + 1, n + 1))
        f = TriangularField(make_grid(n), np.tril(vals))
        tracemalloc.start()
        try:
            serialize.field_to_csv(f, tmp_path / "f.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    @pytest.mark.parametrize("n, block", [(150, 8192), (150, 1000), (150, 97), (40, 8192)])
    def test_bytes_match_whole_field_writer(self, tmp_path, n, block):
        # 151 rows hold 11476 lines: blocks of 1425 lines (sized by the
        # grid), 1000 or 97 end inside rows, at a different column each time
        rng = np.random.default_rng(n + block)
        vals = rng.standard_normal((n + 1, n + 1)) + 1j * rng.standard_normal((n + 1, n + 1))
        vals *= 10.0 ** rng.integers(-300, 300, vals.shape)
        f = TriangularField(make_grid(n), np.tril(vals))
        with mock.patch.object(serialize, "CSV_BLOCK", block):
            serialize.field_to_csv(f, tmp_path / "new.csv")
            _field_to_csv_whole(f, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    @pytest.mark.parametrize("n, fields", [(200, 2.2), (400, 1.7)])
    def test_working_memory_follows_the_grid(self, tmp_path, n, fields):
        # the writer holds one block of lines and the node labels: a block
        # is sized to about two fields, and holds CSV_BLOCK lines (1.6
        # fields) at N = 400
        rng = np.random.default_rng(5)
        vals = rng.standard_normal((n + 1, n + 1)) + 1j * rng.standard_normal((n + 1, n + 1))
        f = TriangularField(make_grid(n), np.tril(vals))
        tracemalloc.start()
        try:
            serialize.field_to_csv(f, tmp_path / "f.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= fields * f.values.nbytes

    @pytest.mark.parametrize("n, size", [(8, 5), (200, 2525), (361, 8190), (362, 8192), (400, 8192)])
    def test_block_lines_from_the_grid(self, tmp_path, n, size):
        # CSV_BLOCK lines from N = 362 on, so an N = 400 G CSV is written
        # in the same blocks as with a fixed CSV_BLOCK
        sizes = []
        write = serialize._write_blocks
        with mock.patch.object(serialize, "_write_blocks", lambda *a: sizes.append(a[3]) or write(*a)):
            serialize.field_to_csv(TriangularField.zeros(make_grid(n)), tmp_path / "f.csv")
        assert sizes == [size]

    def test_round_trip(self, tmp_path):
        grid = make_grid(9)
        f = TriangularField.from_function(grid, lambda x, t: x - 1j * t)
        path = tmp_path / "f.csv"
        serialize.field_to_csv(f, path)
        g = serialize.field_from_csv(path, grid)
        assert np.array_equal(f.values, g.values)

    @pytest.mark.filterwarnings("error")
    def test_infinite_imaginary_part_keeps_real_part(self, tmp_path):
        path = tmp_path / "f.csv"
        x = [serialize.fmt(v) for v in make_grid(2).nodes]
        path.write_text(f"x,t,re,im\n{x[0]},{x[0]},0,0\n{x[1]},{x[0]},0,0\n{x[1]},{x[1]},1,0\n"
                        f"{x[2]},{x[0]},0,0\n{x[2]},{x[1]},2,inf\n{x[2]},{x[2]},3,-inf\n")
        f = serialize.field_from_csv(path)
        assert f.values[2, 1] == complex(2.0, np.inf)
        assert f.values[2, 2] == complex(3.0, -np.inf)

    def test_non_triangular_row_count_rejected(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("x,t,re,im\n" + "0,0,1,0\n" * 4)
        with pytest.raises(ValueError):
            serialize.field_from_csv(path)


class TestTransformKernelFiles:
    def test_round_trip(self, tmp_path):
        grid = make_grid(10)
        tk = compute_g(TriangularField.constant(grid, 0.5))
        serialize.transform_kernel_to_files(tk, tmp_path / "g.csv", tmp_path / "g.json")
        back = transform_kernel_from_files(tmp_path / "g.csv", tmp_path / "g.json")
        assert np.array_equal(tk.g.values, back.g.values)
        assert json.loads((tmp_path / "g.json").read_text())["iterations"] == tk.iterations == 2
        assert np.array_equal(back.term_norms, tk.term_norms)
        assert back.tol == tk.tol


def write_spectrum(spec, path):
    """spectrum.json as idospec spectrum writes its spectrum fields."""
    serialize.write_json(path, serialize.spectrum_to_dict(spec, np.pi / 100))


class TestSpectrumJson:
    def make_spectrum(self):
        win = SearchWindow(-5.0, 5.0, -4.0, 0.5)
        evs = (
            Eigenvalue(value=1.25 - 0.5j, multiplicity=1, residual=1e-12),
            Eigenvalue(value=2.5 - 1.0j, multiplicity=2, residual=3e-11),
        )
        return Spectrum(eigenvalues=evs, window=win, total_count=3)

    def test_round_trip(self, tmp_path):
        spec = self.make_spectrum()
        path = tmp_path / "spec.json"
        write_spectrum(spec, path)
        back = serialize.spectrum_from_json(path)
        assert back.total_count == spec.total_count
        assert back.window == spec.window
        for a, b in zip(spec.eigenvalues, back.eigenvalues):
            assert a.value == b.value
            assert a.multiplicity == b.multiplicity
            assert a.residual == b.residual

    def test_newton_flag_round_trips(self, tmp_path):
        win = SearchWindow(-5.0, 5.0, -4.0, 0.5)
        evs = (
            Eigenvalue(value=1.25 - 0.5j, multiplicity=1, residual=1e-12),
            Eigenvalue(value=2.5 - 1.0j, multiplicity=2, residual=0.3,
                       newton_converged=False),
        )
        path = tmp_path / "spec.json"
        write_spectrum(Spectrum(evs, win, 3), path)
        back = serialize.spectrum_from_json(path)
        assert [ev.newton_converged for ev in back.eigenvalues] == [True, False]

    @pytest.mark.parametrize("edit", [
        lambda d: d["eigenvalues"][0].update(multiplicity=1.5),
        lambda d: d["eigenvalues"][0].update(multiplicity=0),
        lambda d: d.update(total_count=7.9),
        lambda d: d.update(total_count=-1),
        lambda d: d.update(total_count=2),
    ], ids=["fractional_multiplicity", "zero_multiplicity", "fractional_total", "negative_total",
            "total_not_the_sum"])
    def test_bad_count_refused(self, tmp_path, edit):
        path = tmp_path / "spec.json"
        data = serialize.spectrum_to_dict(self.make_spectrum(), np.pi / 100)
        edit(data)
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="multiplicity|total_count"):
            serialize.spectrum_from_json(path)

    def test_integral_float_counts_load(self, tmp_path):
        path = tmp_path / "spec.json"
        data = serialize.spectrum_to_dict(self.make_spectrum(), np.pi / 100)
        data["eigenvalues"][1]["multiplicity"] = 2.0
        data["total_count"] = 3.0
        path.write_text(json.dumps(data))
        back = serialize.spectrum_from_json(path)
        assert back.eigenvalues[1].multiplicity == 2
        assert back.total_count == 3

    def test_file_without_newton_flag_loads_as_converged(self, tmp_path):
        path = tmp_path / "spec.json"
        write_spectrum(self.make_spectrum(), path)
        data = json.loads(path.read_text())
        for ev in data["eigenvalues"]:
            del ev["newton_converged"]
        path.write_text(json.dumps(data))
        back = serialize.spectrum_from_json(path)
        assert all(ev.newton_converged for ev in back.eigenvalues)

    @pytest.mark.parametrize("flag", ["false", "true", 0, 1, None])
    def test_newton_flag_that_is_no_bool_is_refused(self, tmp_path, flag):
        # bool("false") is True: the root of an unconverged Newton polish
        # would load as converged
        path = tmp_path / "spec.json"
        write_spectrum(self.make_spectrum(), path)
        data = json.loads(path.read_text())
        data["eigenvalues"][0]["newton_converged"] = flag
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="newton_converged must be true or false"):
            serialize.spectrum_from_json(path)

    @pytest.mark.parametrize("key", ["re", "im", "residual", "re_min", "re_max", "im_min", "im_max"])
    @pytest.mark.parametrize("value", [True, False, "1.5", None])
    def test_number_that_is_no_number_is_refused(self, tmp_path, key, value):
        # float(True) and complex(True, 0) are 1: a flag would load as a root
        # at lambda = 1, a residual of 1 or a window bound True
        path = tmp_path / "spec.json"
        data = serialize.spectrum_to_dict(self.make_spectrum(), np.pi / 100)
        (data["window"] if key in data["window"] else data["eigenvalues"][0])[key] = value
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match=f"^{key} must be a number, got {value!r}$"):
            serialize.spectrum_from_json(path)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_write_read_write_is_byte_exact(self, tmp_path_factory, data):
        finite = st.floats(allow_nan=False, allow_infinity=False)
        bounds = st.lists(finite, min_size=2, max_size=2, unique=True).map(sorted)
        win = SearchWindow(*data.draw(bounds), *data.draw(bounds))
        evs = tuple(
            Eigenvalue(
                value=complex(data.draw(finite), data.draw(finite)),
                multiplicity=data.draw(st.integers(1, 5)),
                residual=data.draw(st.floats(0.0) | st.just(np.nan)),
                newton_converged=data.draw(st.booleans()),
            )
            for _ in range(data.draw(st.integers(0, 6)))
        )
        spec = Spectrum(evs, win, sum(ev.multiplicity for ev in evs))
        out = tmp_path_factory.mktemp("spec")
        write_spectrum(spec, out / "a.json")
        back = serialize.spectrum_from_json(out / "a.json")
        write_spectrum(back, out / "b.json")
        assert (out / "a.json").read_bytes() == (out / "b.json").read_bytes()
        assert [ev.newton_converged for ev in back.eigenvalues] == [
            ev.newton_converged for ev in evs
        ]

    def test_byte_identical_rewrites(self, tmp_path):
        spec = self.make_spectrum()
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        write_spectrum(spec, p1)
        write_spectrum(spec, p2)
        assert p1.read_bytes() == p2.read_bytes()
