"""Metadata-headed CSV round-trip checks."""

import numpy as np
import pytest

from photherm.csvio import FLOAT_FORMAT, ROW_BLOCK, read_csv, write_csv


def format_cell(value) -> str:
    """Per-cell formatter of the row-by-row writer, kept as the reference."""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return FLOAT_FORMAT.format(float(value))
    return str(value)


def reference_bytes(columns: dict, metadata: dict) -> bytes:
    lines = [f"# {key}: {value}" for key, value in metadata.items()]
    lines.append(",".join(columns))
    arrays = [np.asarray(c) for c in columns.values()]
    for i in range(arrays[0].shape[0]):
        lines.append(",".join(format_cell(arr[i]) for arr in arrays))
    return ("\n".join(lines) + "\n").encode()


class TestWriteRead:
    def test_float_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        values = np.concatenate(
            [rng.uniform(-1e15, 1e15, 50), rng.uniform(-1e-15, 1e-15, 50), [0.1 + 0.2]]
        )
        path = write_csv(tmp_path / "t.csv", {"x": values}, {"note": "probe"})
        meta, cols = read_csv(path)
        assert meta == {"note": "probe"}
        # 17 significant digits uniquely identify every float64
        assert np.array_equal(cols["x"], values)

    def test_mixed_column_types(self, tmp_path):
        path = write_csv(
            tmp_path / "t.csv",
            {
                "index": np.arange(3),
                "flag": np.array([True, False, True]),
                "name": np.array(["crystal", "cavity", "crystal"]),
                "x": np.array([1.5, -2.5, 3.5]),
            },
        )
        _, cols = read_csv(path)
        assert np.array_equal(cols["index"], [0.0, 1.0, 2.0])
        assert np.array_equal(cols["flag"], [1.0, 0.0, 1.0])
        assert list(cols["name"]) == ["crystal", "cavity", "crystal"]
        assert np.array_equal(cols["x"], [1.5, -2.5, 3.5])

    def test_metadata_lines_prefixed(self, tmp_path):
        path = write_csv(
            tmp_path / "t.csv", {"x": [1.0]}, {"kind": "detector", "gamma_d": 5e11}
        )
        lines = path.read_text().splitlines()
        assert lines[0] == "# kind: detector"
        assert lines[1].startswith("# gamma_d: ")
        assert lines[2] == "x"

    def test_deterministic_bytes(self, tmp_path):
        cols = {"a": np.linspace(0.0, 1.0, 17), "b": np.arange(17)}
        p1 = write_csv(tmp_path / "a.csv", cols, {"m": 1})
        p2 = write_csv(tmp_path / "b.csv", cols, {"m": 1})
        assert p1.read_bytes() == p2.read_bytes()


class TestColumnFormatting:
    SPECIAL = [
        -0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324,
        2.225073858507201e-308, 1.7976931348623157e308, 0.1 + 0.2,
    ]

    @pytest.mark.parametrize("length", [0, 1, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1])
    def test_same_bytes_as_per_cell_formatter(self, tmp_path, length):
        rng = np.random.default_rng(length)
        floats = rng.standard_normal(length) * 10.0 ** rng.integers(-300, 300, length)
        floats[: len(self.SPECIAL)] = self.SPECIAL[:length]
        columns = {
            "flag": rng.integers(0, 2, length).astype(bool),
            "index": np.arange(length) - 3,
            "count": rng.integers(0, 2**63, length, dtype=np.uint64),
            "class": np.where(rng.integers(0, 2, length) > 0, "crystal", "cavity"),
            "x": floats,
            "x32": rng.standard_normal(length).astype(np.float32),
        }
        meta = {"kind": "probe", "gamma_d": 5e11}
        path = write_csv(tmp_path / "t.csv", columns, meta)
        assert path.read_bytes() == reference_bytes(columns, meta)


class TestValidation:
    def test_no_columns(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv(tmp_path / "t.csv", {})

    def test_length_mismatch(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv(tmp_path / "t.csv", {"a": [1.0, 2.0], "b": [1.0]})

    def test_ragged_row_rejected_on_read(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1,2\n3\n")
        with pytest.raises(ValueError):
            read_csv(path)

    def test_header_required(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("# only: metadata\n")
        with pytest.raises(ValueError):
            read_csv(path)
