"""Tests for the result tables and the experiment suite (small configs)."""

import pytest

from repro.harness import (
    EXPERIMENTS,
    ExperimentConfig,
    ResultTable,
    e1_reorganization_equivalence,
    e3_capacity,
    e5_alteration_sweep,
    e7_reorganization_matrix,
    e8_redundancy,
    e10_false_positives,
    render_tables,
)

SMALL = ExperimentConfig(books=40, editors=6, seed=17)


class TestResultTable:
    def test_add_and_column(self):
        table = ResultTable("t", ["a", "b"])
        table.add(1, "x")
        table.add(2, "y")
        assert table.column("a") == [1, 2]
        assert table.column("b") == ["x", "y"]

    def test_arity_checked(self):
        table = ResultTable("t", ["a", "b"])
        with pytest.raises(ValueError):
            table.add(1)

    def test_render_contains_everything(self):
        table = ResultTable("My Title", ["name", "ratio", "ok"])
        table.add("row-one", 0.5, True)
        table.note("a footnote")
        text = table.render()
        assert "My Title" in text
        assert "row-one" in text
        assert "0.500" in text
        assert "yes" in text
        assert "note: a footnote" in text

    def test_float_formatting(self):
        table = ResultTable("t", ["v"])
        table.add(1.23456e-9)
        table.add(0.25)
        text = table.render()
        assert "1.23e-09" in text
        assert "0.250" in text

    def test_csv_roundtrip(self, tmp_path):
        table = ResultTable("t", ["a", "b"])
        table.add(1, "x")
        path = tmp_path / "out.csv"
        table.to_csv(str(path))
        content = path.read_text()
        assert "# t" in content
        assert "a,b" in content
        assert "1,x" in content

    def test_render_tables(self):
        a = ResultTable("A", ["x"])
        b = ResultTable("B", ["y"])
        combined = render_tables([a, b])
        assert "A" in combined and "B" in combined


class TestExperimentRegistry:
    def test_all_ten_registered(self):
        assert sorted(EXPERIMENTS) == [
            "e1", "e10", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9"]

    def test_all_return_tables(self):
        # Smoke-run the cheap experiments end to end on a tiny config;
        # e9 also asserts that scan and indexed detection agree.
        for name in ("e1", "e2", "e3", "e4", "e9"):
            table = EXPERIMENTS[name](SMALL)
            assert isinstance(table, ResultTable)
            assert table.rows


class TestExperimentClaims:
    """The paper's qualitative claims, asserted on small configs."""

    def test_e1_equivalence(self):
        table = e1_reorganization_equivalence(SMALL)
        for row in table.rows:
            answered, total = row[2].split("/")
            assert answered == total

    def test_e3_gamma_one_full_utilisation(self):
        table = e3_capacity(SMALL, gammas=(1, 4))
        assert table.column("utilisation")[0] == 1.0
        assert table.column("utilisation")[1] < 1.0

    def test_e5_crossover_claim(self):
        table = e5_alteration_sweep(SMALL, rates=(0.0, 0.3, 1.0))
        detected = table.column("detected")
        destroyed = table.column("usability-destroyed")
        assert detected[0] and not destroyed[0]
        # At full alteration the watermark is gone AND usability is gone.
        assert not detected[-1] and destroyed[-1]
        # Claim (ii): no row with a lost watermark but intact usability.
        for was_detected, was_destroyed in zip(detected, destroyed):
            assert was_detected or was_destroyed

    def test_e7_matrix_verdicts(self):
        table = e7_reorganization_matrix(SMALL)
        verdict = {(row[0], row[1]): row[5] for row in table.rows}
        assert verdict[("WmXML (rewritten)", "reorganisation")]
        assert not verdict[("Agrawal-Kiernan", "reorganisation")]
        assert not verdict[("Sion-labeling", "reorganisation")]

    def test_e8_wmxml_immune(self):
        table = e8_redundancy(SMALL, strategies=("majority",))
        for row in table.rows:
            if row[0].startswith("WmXML"):
                assert row[2] == 0  # nothing rewritten
                assert row[6]  # detected

    def test_e10_no_false_positives(self):
        table = e10_false_positives(SMALL, trials=5)
        assert all(count == 0 for count in table.column("detections"))
