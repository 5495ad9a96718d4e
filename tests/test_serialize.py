import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from idospec.quadrature import Profile, TriangularField, make_grid
from idospec.transform import compute_g
from idospec.spectral import Eigenvalue, SearchWindow, Spectrum
from idospec import serialize


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


class TestProfileCsv:
    def test_round_trip(self, tmp_path):
        grid = make_grid(12)
        p = Profile.from_function(grid, lambda x: np.sin(x) + 1j * np.cos(2 * x))
        path = tmp_path / "p.csv"
        serialize.profile_to_csv(p, path)
        q = serialize.profile_from_csv(path, grid)
        assert np.array_equal(p.values, q.values)

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

    @pytest.mark.filterwarnings("error")
    def test_infinite_imaginary_part_keeps_real_part(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("x,re,im\n0,1.5,inf\n1,2.5,-inf\n3,0.5,0\n")
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


class TestFieldCsv:
    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(2, 30), seed=st.integers(0, 2**32 - 1))
    def test_bytes_match_cell_by_cell_writer(self, tmp_path_factory, n, seed):
        rng = np.random.default_rng(seed)
        vals = rng.standard_normal((n + 1, n + 1)) + 1j * rng.standard_normal((n + 1, n + 1))
        picks = rng.random(vals.shape)
        vals.real[picks < 0.2] = -0.0
        vals.imag[picks > 0.8] = np.round(10 * vals.imag[picks > 0.8])
        vals[0, 0] = complex(-0.0, 3.0)
        f = TriangularField(make_grid(n), np.tril(vals))
        out = tmp_path_factory.mktemp("csv")
        serialize.field_to_csv(f, out / "new.csv")
        _field_to_csv_loop(f, out / "old.csv")
        assert (out / "new.csv").read_bytes() == (out / "old.csv").read_bytes()
        back = serialize.field_from_csv(out / "new.csv")
        assert np.array_equal(back.values, f.values)

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
        path.write_text("x,t,re,im\n0,0,0,0\n1,0,0,0\n1,1,1,0\n2,0,0,0\n2,1,2,inf\n2,2,3,-inf\n")
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
        back = serialize.transform_kernel_from_files(tmp_path / "g.csv", tmp_path / "g.json")
        assert np.array_equal(tk.g.values, back.g.values)
        assert back.iterations == tk.iterations
        assert np.array_equal(back.term_norms, tk.term_norms)
        assert back.tol == tk.tol


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
        serialize.spectrum_to_json(spec, np.pi / 100, path)
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
        serialize.spectrum_to_json(Spectrum(evs, win, 3), np.pi / 100, path)
        back = serialize.spectrum_from_json(path)
        assert [ev.newton_converged for ev in back.eigenvalues] == [True, False]

    def test_file_without_newton_flag_loads_as_converged(self, tmp_path):
        path = tmp_path / "spec.json"
        serialize.spectrum_to_json(self.make_spectrum(), np.pi / 100, path)
        data = json.loads(path.read_text())
        for ev in data["eigenvalues"]:
            del ev["newton_converged"]
        path.write_text(json.dumps(data))
        back = serialize.spectrum_from_json(path)
        assert all(ev.newton_converged for ev in back.eigenvalues)

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
        serialize.spectrum_to_json(spec, np.pi / 100, out / "a.json")
        back = serialize.spectrum_from_json(out / "a.json")
        serialize.spectrum_to_json(back, np.pi / 100, out / "b.json")
        assert (out / "a.json").read_bytes() == (out / "b.json").read_bytes()
        assert [ev.newton_converged for ev in back.eigenvalues] == [
            ev.newton_converged for ev in evs
        ]

    def test_byte_identical_rewrites(self, tmp_path):
        spec = self.make_spectrum()
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        serialize.spectrum_to_json(spec, np.pi / 100, p1)
        serialize.spectrum_to_json(spec, np.pi / 100, p2)
        assert p1.read_bytes() == p2.read_bytes()
