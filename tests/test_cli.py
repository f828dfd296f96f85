"""End-to-end tests for the ``wmxml`` command-line tool."""

import json
import re

import pytest

from repro.cli import main


@pytest.fixture()
def workspace(tmp_path):
    return tmp_path


def run(*argv) -> int:
    return main(list(argv))


def _stage_column(out: str) -> list[str]:
    """The stage names of the ``--profile-stages`` table in ``out``."""
    lines = out.splitlines()
    start = next(index for index, line in enumerate(lines)
                 if line.split()[:2] == ["stage", "total-ms"])
    names = []
    for line in lines[start + 1:]:
        row = re.fullmatch(r"(\S.*?)\s+\d+\.\d{3}\s+\d+\s+\d+\.\d{3}", line)
        if row is None:
            break
        names.append(row.group(1))
    return names


class TestGenerate:
    def test_generates_each_profile(self, workspace, capsys):
        for profile in ("bibliography", "jobs", "library"):
            out = workspace / f"{profile}.xml"
            code = run("generate", "--profile", profile, "--size", "20",
                       "-o", str(out))
            assert code == 0
            assert out.exists()
            assert "wrote" in capsys.readouterr().out

    def test_unknown_profile_rejected(self, workspace):
        with pytest.raises(SystemExit):
            run("generate", "--profile", "nope",
                "-o", str(workspace / "x.xml"))


class TestEmbedDetectFlow:
    def _generate(self, workspace):
        data = workspace / "data.xml"
        run("generate", "--profile", "bibliography", "--size", "40",
            "-o", str(data))
        return data

    def test_full_flow(self, workspace, capsys):
        data = self._generate(workspace)
        marked = workspace / "marked.xml"
        record = workspace / "record.json"
        code = run("embed", "--profile", "bibliography", "-i", str(data),
                   "-o", str(marked), "-r", str(record),
                   "-k", "cli-secret", "-m", "(c) CLI", "--gamma", "2")
        assert code == 0
        assert marked.exists()
        payload = json.loads(record.read_text())
        assert payload["format"] == "wmxml-record-v1"

        code = run("detect", "--profile", "bibliography", "-i", str(marked),
                   "-r", str(record), "-k", "cli-secret", "-m", "(c) CLI")
        assert code == 0
        assert "DETECTED" in capsys.readouterr().out

    def test_deep_document_embeds_and_detects(self, workspace, capsys):
        # A 1,000-deep chain in one book: writing the marked copy
        # (pretty-printed) must not recurse once per level.
        data = workspace / "deep.xml"
        run("generate", "--profile", "bibliography", "--size", "12",
            "-o", str(data))
        chain = "<note>" * 1000 + "</note>" * 1000
        data.write_text(data.read_text().replace(
            "</book>", chain + "</book>", 1))
        marked = workspace / "marked.xml"
        record = workspace / "record.json"
        assert run("embed", "-i", str(data), "-o", str(marked),
                   "-r", str(record), "-k", "cli-secret",
                   "-m", "(c) CLI") == 0
        assert run("detect", "-i", str(marked), "-r", str(record),
                   "-k", "cli-secret", "-m", "(c) CLI") == 0
        assert "DETECTED" in capsys.readouterr().out

    def test_wrong_key_exits_nonzero(self, workspace, capsys):
        data = self._generate(workspace)
        marked = workspace / "marked.xml"
        record = workspace / "record.json"
        run("embed", "--profile", "bibliography", "-i", str(data),
            "-o", str(marked), "-r", str(record),
            "-k", "cli-secret", "-m", "(c) CLI")
        code = run("detect", "--profile", "bibliography", "-i", str(marked),
                   "-r", str(record), "-k", "wrong", "-m", "(c) CLI")
        assert code == 1
        out = capsys.readouterr().out
        assert "not detected" in out
        assert "failed key authentication" in out

    def test_attack_then_detect_with_rewriting(self, workspace, capsys):
        data = self._generate(workspace)
        marked = workspace / "marked.xml"
        record = workspace / "record.json"
        stolen = workspace / "stolen.xml"
        run("embed", "--profile", "bibliography", "-i", str(data),
            "-o", str(marked), "-r", str(record),
            "-k", "cli-secret", "-m", "(c) CLI", "--gamma", "1")
        code = run("attack", "--profile", "bibliography", "-i", str(marked),
                   "-o", str(stolen), "--kind", "reorganize",
                   "--shape", "book-centric",
                   "--to-shape", "publisher-centric")
        assert code == 0
        # Without rewriting: nothing.
        code = run("detect", "--profile", "bibliography", "-i", str(stolen),
                   "-r", str(record), "-k", "cli-secret", "-m", "(c) CLI")
        assert code == 1
        # With rewriting: detected.
        code = run("detect", "--profile", "bibliography", "-i", str(stolen),
                   "-r", str(record), "-k", "cli-secret", "-m", "(c) CLI",
                   "--shape", "publisher-centric")
        assert code == 0

    def test_profile_stages_tables(self, workspace, capsys):
        # The stage column of each --profile-stages table, in order.
        data = self._generate(workspace)
        marked = workspace / "marked.xml"
        record = workspace / "record.json"
        assert run("embed", "-i", str(data), "-o", str(marked),
                   "-r", str(record), "-k", "cli-secret", "-m", "(c) CLI",
                   "--profile-stages") == 0
        assert _stage_column(capsys.readouterr().out) == [
            "parse", "shape.shred", "identity.group", "selection.select",
            "encoder.embed", "write"]
        detect = ["detect", "-r", str(record), "-k", "cli-secret",
                  "-m", "(c) CLI", "--profile-stages"]
        assert run(*detect, "-i", str(marked)) == 0
        assert _stage_column(capsys.readouterr().out) == [
            "parse", "shape.shred", "decoder.detect"]
        assert run(*detect, "-i", str(marked), str(marked),
                   "--processes", "2") == 0
        assert _stage_column(capsys.readouterr().out) == [
            "api.detect_many", "detect batch"]


class TestSchemeArtefactFlow:
    """The acceptance path: scheme.json drives embed and detect."""

    def _setup(self, workspace):
        data = workspace / "data.xml"
        scheme = workspace / "scheme.json"
        run("generate", "--profile", "bibliography", "--size", "40",
            "-o", str(data))
        assert run("scheme", "--profile", "bibliography", "--gamma", "2",
                   "-o", str(scheme)) == 0
        return data, scheme

    def test_scheme_export_is_versioned(self, workspace, capsys):
        _, scheme = self._setup(workspace)
        payload = json.loads(scheme.read_text())
        assert payload["format"] == "wmxml-scheme-v1"
        assert payload["gamma"] == 2
        assert {c["field"] for c in payload["carriers"]} == \
            {"year", "price", "publisher"}

    def test_scheme_describe_without_output(self, workspace, capsys):
        run("scheme", "--profile", "bibliography")
        out = capsys.readouterr().out
        assert "carriers:" in out and "templates:" in out

    def test_embed_detect_round_trip_via_scheme_json(self, workspace,
                                                     capsys):
        data, scheme = self._setup(workspace)
        marked = workspace / "marked.xml"
        record = workspace / "r.json"
        result = workspace / "verdict.json"
        code = run("embed", "--scheme", str(scheme), "-i", str(data),
                   "-o", str(marked), "-r", str(record),
                   "-k", "artefact-secret", "-m", "(c) artefact")
        assert code == 0
        assert "gamma=2" in capsys.readouterr().out  # scheme.json wins
        code = run("detect", "--scheme", str(scheme), "--record",
                   str(record), "-i", str(marked), "-k", "artefact-secret",
                   "-m", "(c) artefact", "--result", str(result))
        assert code == 0
        out = capsys.readouterr().out
        assert "DETECTED" in out
        verdict = json.loads(result.read_text())
        assert verdict["format"] == "wmxml-detection-v1"
        assert verdict["detected"] is True

    def test_detect_strategies_agree(self, workspace, capsys):
        data, scheme = self._setup(workspace)
        marked = workspace / "marked.xml"
        record = workspace / "r.json"
        run("embed", "--scheme", str(scheme), "-i", str(data),
            "-o", str(marked), "-r", str(record), "-k", "s", "-m", "(c) x")
        capsys.readouterr()
        votes = {}
        for strategy in ("scan", "indexed", "auto"):
            assert run("detect", "--scheme", str(scheme), "--record",
                       str(record), "-i", str(marked), "-k", "s",
                       "-m", "(c) x", "--strategy", strategy) == 0
            votes[strategy] = capsys.readouterr().out.split("votes")[0]
        assert votes["scan"] == votes["indexed"] == votes["auto"]

    def test_detect_reports_why_no_message(self, workspace, capsys):
        data, scheme = self._setup(workspace)
        marked = workspace / "marked.xml"
        record = workspace / "r.json"
        run("embed", "--scheme", str(scheme), "-i", str(data),
            "-o", str(marked), "-r", str(record), "-k", "s",
            "-m", "(c) quite a long message for forty books")
        capsys.readouterr()
        run("detect", "--scheme", str(scheme), "--record", str(record),
            "-i", str(marked), "-k", "s")
        assert "no message decoded (incomplete)" in capsys.readouterr().out

    def test_bad_scheme_file_is_a_clean_exit(self, workspace):
        bad = workspace / "bad.json"
        bad.write_text("{\"format\": \"nope\"}")
        with pytest.raises(SystemExit):
            run("embed", "--scheme", str(bad), "-i", "x.xml", "-o", "y.xml",
                "-r", "r.json", "-k", "k", "-m", "m")


class TestErrorReporting:
    """``main`` reports a failed command in one line and exits 2."""

    def test_malformed_input_is_reported(self, workspace, capsys):
        bad = workspace / "bad.xml"
        bad.write_text("<db><book><title>x</title></db>")
        marked = workspace / "out.xml"
        code = run("embed", "-i", str(bad), "-o", str(marked),
                   "-r", str(workspace / "rec.json"), "-k", "k", "-m", "hi")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error [xml-syntax]: ")
        assert err.count("\n") == 1
        assert not marked.exists()

    def test_missing_record_is_reported(self, workspace, capsys):
        data = workspace / "data.xml"
        run("generate", "--profile", "bibliography", "--size", "5",
            "-o", str(data))
        capsys.readouterr()
        missing = workspace / "missing.json"
        code = run("detect", "-i", str(data), "-r", str(missing),
                   "-k", "k")
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: [Errno 2] No such file or directory: '{missing}'\n")


class TestOtherCommands:
    @pytest.mark.parametrize("argv", [
        pytest.param(["embed", "-i", "{ws}/d.xml", "-o", "{ws}/m.xml",
                      "-m", "msg"], id="embed"),
        pytest.param(["detect", "-i", "{ws}/m.xml", "-r", "{ws}/r.json"],
                     id="detect"),
        pytest.param(["serve", "--scheme", "{ws}/s.json", "--port", "0"],
                     id="serve"),
        pytest.param(["trace", "-i", "{ws}/m.xml",
                      "--registry", "{ws}/r.db"], id="trace"),
        pytest.param(["ledger", "verify", "--registry", "{ws}/r.db"],
                     id="ledger-verify"),
        pytest.param(["ledger", "recover", "--registry", "{ws}/r.db"],
                     id="ledger-recover"),
    ])
    def test_empty_key_is_a_usage_error(self, workspace, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            run(*[arg.format(ws=workspace) for arg in argv], "--key", "")
        assert excinfo.value.code == 2
        assert "secret key must not be empty" in capsys.readouterr().err

    def test_perf_is_not_a_command(self, capsys):
        # E9 and --profile-stages carry the timings it used to print.
        with pytest.raises(SystemExit) as excinfo:
            run("perf", "--size", "5")
        assert excinfo.value.code == 2
        assert "invalid choice: 'perf'" in capsys.readouterr().err

    def test_attack_kinds(self, workspace):
        data = workspace / "data.xml"
        run("generate", "--profile", "jobs", "--size", "20", "-o", str(data))
        for kind in ("alter", "delete", "insert", "reduce", "shuffle",
                     "unify"):
            out = workspace / f"attacked-{kind}.xml"
            code = run("attack", "--profile", "jobs", "-i", str(data),
                       "-o", str(out), "--kind", kind, "--rate", "0.3")
            assert code == 0
            assert out.exists()

    def test_usability(self, workspace, capsys):
        data = workspace / "data.xml"
        attacked = workspace / "attacked.xml"
        run("generate", "--profile", "bibliography", "--size", "25",
            "-o", str(data))
        run("attack", "--profile", "bibliography", "-i", str(data),
            "-o", str(attacked), "--kind", "alter", "--rate", "0.5")
        code = run("usability", "--profile", "bibliography",
                   "--original", str(data), "-i", str(attacked))
        assert code == 0
        out = capsys.readouterr().out
        assert "usability" in out

    def test_discover(self, workspace, capsys):
        data = workspace / "data.xml"
        run("generate", "--profile", "bibliography", "--size", "30",
            "-o", str(data))
        code = run("discover", "--profile", "bibliography", "-i", str(data))
        assert code == 0
        out = capsys.readouterr().out
        assert "key(title)" in out
        assert "fd(editor -> publisher)" in out

    def test_experiment(self, workspace, capsys):
        csv = workspace / "e3.csv"
        code = run("experiment", "e3", "--size", "30", "--csv", str(csv))
        assert code == 0
        assert "capacity" in capsys.readouterr().out
        assert csv.exists()

    def test_schema_infer_and_validate(self, workspace, capsys):
        data = workspace / "data.xml"
        dtd = workspace / "data.dtd"
        run("generate", "--profile", "bibliography", "--size", "20",
            "-o", str(data))
        code = run("schema", "-i", str(data), "--dtd", str(dtd))
        assert code == 0
        assert "<!ELEMENT" in capsys.readouterr().out
        assert dtd.exists()
        code = run("schema", "-i", str(data), "--validate-dtd", str(dtd))
        assert code == 0
        assert "valid against" in capsys.readouterr().out

    def test_schema_validation_failure(self, workspace, capsys):
        data = workspace / "data.xml"
        data.write_text("<other><x>1</x></other>", encoding="utf-8")
        dtd = workspace / "schema.dtd"
        dtd.write_text("<!ELEMENT db (x*)>\n<!ELEMENT x (#PCDATA)>",
                       encoding="utf-8")
        code = run("schema", "-i", str(data), "--validate-dtd", str(dtd))
        assert code == 1
        assert "violation" in capsys.readouterr().out

    def test_unknown_shape_rejected(self, workspace):
        data = workspace / "data.xml"
        run("generate", "--profile", "jobs", "--size", "10", "-o", str(data))
        with pytest.raises(SystemExit):
            run("attack", "--profile", "jobs", "-i", str(data),
                "-o", str(workspace / "x.xml"), "--kind", "reorganize",
                "--shape", "nope", "--to-shape", "jobs-by-company")


class TestBatchEmbedDetect:
    """Multi-input embed/detect: the CLI face of the parallel engine."""

    def _generate_fleet(self, workspace, count=3):
        paths = []
        for index in range(count):
            path = workspace / f"doc{index}.xml"
            run("generate", "--profile", "bibliography", "--size", "30",
                "--seed", str(index), "-o", str(path))
            paths.append(path)
        return paths

    def test_batch_embed_writes_per_input_artefacts(self, workspace,
                                                    capsys):
        fleet = self._generate_fleet(workspace)
        marked_dir = workspace / "marked"
        record_dir = workspace / "records"
        code = run("embed", "--profile", "bibliography",
                   "-i", *map(str, fleet),
                   "-o", str(marked_dir), "-r", str(record_dir),
                   "-k", "cli-secret", "-m", "(c) CLI", "--gamma", "2",
                   "--processes", "2")
        assert code == 0
        out = capsys.readouterr().out
        assert "3 documents" in out
        for path in fleet:
            assert (marked_dir / path.name).exists()
            payload = json.loads(
                (record_dir / f"{path.stem}.record.json").read_text())
            assert payload["format"] == "wmxml-record-v1"

    def test_batch_embed_matches_single_embeds(self, workspace, capsys):
        fleet = self._generate_fleet(workspace, count=2)
        marked_dir = workspace / "marked"
        record_dir = workspace / "records"
        run("embed", "--profile", "bibliography", "-i", *map(str, fleet),
            "-o", str(marked_dir), "-r", str(record_dir),
            "-k", "cli-secret", "-m", "(c) CLI", "--gamma", "2",
            "--processes", "2")
        # The pooled batch and a serial single-document embed must
        # produce the same query-set record for the same input.
        single_record = workspace / "single.json"
        run("embed", "--profile", "bibliography", "-i", str(fleet[0]),
            "-o", str(workspace / "single.xml"), "-r", str(single_record),
            "-k", "cli-secret", "-m", "(c) CLI", "--gamma", "2")
        capsys.readouterr()
        batch_payload = json.loads(
            (record_dir / f"{fleet[0].stem}.record.json").read_text())
        assert batch_payload == json.loads(single_record.read_text())

    def test_batch_embed_refuses_file_target(self, workspace):
        fleet = self._generate_fleet(workspace, count=2)
        existing = workspace / "not-a-dir.xml"
        existing.write_text("<x/>")
        with pytest.raises(SystemExit):
            run("embed", "--profile", "bibliography",
                "-i", *map(str, fleet), "-o", str(existing),
                "-r", str(workspace / "records"),
                "-k", "k", "-m", "m")

    def test_batch_detect_checks_every_copy_against_one_record(
            self, workspace, capsys):
        fleet = self._generate_fleet(workspace, count=2)
        marked = workspace / "marked.xml"
        record = workspace / "record.json"
        run("embed", "--profile", "bibliography", "-i", str(fleet[0]),
            "-o", str(marked), "-r", str(record),
            "-k", "cli-secret", "-m", "(c) CLI", "--gamma", "2")
        capsys.readouterr()
        # One marked copy, one unmarked document: the batch reports a
        # per-file verdict and exits non-zero because not all detected.
        code = run("detect", "--profile", "bibliography",
                   "-i", str(marked), str(fleet[1]),
                   "-r", str(record), "-k", "cli-secret",
                   "-m", "(c) CLI", "--processes", "2")
        out = capsys.readouterr().out
        assert code == 1
        assert "detected in 1/2 documents" in out
        # Two marked copies: all detected, exit zero.
        code = run("detect", "--profile", "bibliography",
                   "-i", str(marked), str(marked),
                   "-r", str(record), "-k", "cli-secret",
                   "-m", "(c) CLI", "--processes", "2")
        out = capsys.readouterr().out
        assert code == 0
        assert "detected in 2/2 documents" in out

    def test_batch_embed_rejects_duplicate_basenames(self, workspace):
        sub_a = workspace / "a"
        sub_b = workspace / "b"
        sub_a.mkdir()
        sub_b.mkdir()
        for sub in (sub_a, sub_b):
            run("generate", "--profile", "bibliography", "--size", "10",
                "-o", str(sub / "doc.xml"))
        with pytest.raises(SystemExit, match="duplicate input basenames"):
            run("embed", "--profile", "bibliography",
                "-i", str(sub_a / "doc.xml"), str(sub_b / "doc.xml"),
                "-o", str(workspace / "marked"),
                "-r", str(workspace / "records"),
                "-k", "k", "-m", "m")

    def test_batch_detect_saves_per_file_results(self, workspace, capsys):
        fleet = self._generate_fleet(workspace, count=2)
        marked = workspace / "marked.xml"
        record = workspace / "record.json"
        run("embed", "--profile", "bibliography", "-i", str(fleet[0]),
            "-o", str(marked), "-r", str(record),
            "-k", "cli-secret", "-m", "(c) CLI", "--gamma", "2")
        results_path = workspace / "verdicts.json"
        code = run("detect", "--profile", "bibliography",
                   "-i", str(marked), str(fleet[1]),
                   "-r", str(record), "-k", "cli-secret",
                   "-m", "(c) CLI", "--result", str(results_path))
        capsys.readouterr()
        assert code == 1
        verdicts = json.loads(results_path.read_text())
        assert set(verdicts) == {str(marked), str(fleet[1])}
        assert verdicts[str(marked)]["format"] == "wmxml-detection-v1"
        assert verdicts[str(marked)]["detected"] is True
        assert verdicts[str(fleet[1])]["detected"] is False
