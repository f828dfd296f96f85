"""The consolidated WmXMLError hierarchy and strict message decoding.

Contract: every error the library raises on purpose is catchable via
``except WmXMLError`` — a service wraps any WmXML call in one handler.
Legacy catch styles (per-layer bases, builtin bases like ValueError)
must keep working too.  Every reader of JSON input refuses bad bytes,
bad JSON, deep nesting and non-objects with its own WmXMLError.
"""

import base64
import io
import sqlite3
import urllib.error

import pytest

from repro import api
from repro.core.algorithms import AlgorithmError, create_algorithm
from repro.core.watermark import Watermark
from repro.datasets import bibliography
from repro.errors import WmXMLError
from repro.registry import (RegistryFormatError, SQLiteBackend,
                            WatermarkRegistry)
from repro.semantics.errors import (
    ConstraintError,
    RecordError,
    SchemaError,
    SemanticsError,
)
from repro.service.client import (RemoteServiceError, WmXMLClient,
                                  _remote_error)
from repro.service.protocol import (MalformedRequestError, ServiceError,
                                    parse_json)
from repro.tenants import TenantConfigError, TenantsConfig
from repro.tenants.errors import UnauthorizedError
from repro.tenants.keys import MasterKeyMap
from repro.tenants.tokens import verify_token
from repro.xmlmodel import parse
from repro.xmlmodel.errors import XMLError, XMLSyntaxError, XMLTreeError
from repro.xpath import compile_xpath
from repro.xpath.errors import XPathError, XPathSyntaxError

#: Every public error class must descend from the one base.
PUBLIC_ERRORS = [
    AlgorithmError,
    ConstraintError,
    RecordError,
    SchemaError,
    SemanticsError,
    XMLError,
    XMLSyntaxError,
    XMLTreeError,
    XPathError,
    XPathSyntaxError,
    api.RecordFormatError,
    api.SchemeFormatError,
    api.SerializationError,
    api.UnknownSchemeError,
    api.WatermarkDecodeError,
    api.WatermarkMessageError,
]


@pytest.mark.parametrize("error_cls", PUBLIC_ERRORS,
                         ids=lambda cls: cls.__name__)
def test_every_public_error_is_a_wmxml_error(error_cls):
    assert issubclass(error_cls, WmXMLError)


def test_api_reexports_the_base():
    assert api.WmXMLError is WmXMLError


class TestOneHandlerCatchesEverything:
    """Live raises from different layers, one ``except WmXMLError``."""

    def test_xml_parse_error(self):
        with pytest.raises(api.WmXMLError):
            parse("<unclosed>")

    def test_xpath_syntax_error(self):
        with pytest.raises(api.WmXMLError):
            compile_xpath("//book[")

    def test_unknown_algorithm(self):
        with pytest.raises(api.WmXMLError):
            create_algorithm("quantum", {})

    def test_scheme_validation_error(self):
        with pytest.raises(api.WmXMLError):
            api.WatermarkingScheme(shape=bibliography.book_shape(),
                                   carriers=[])

    def test_carrier_in_own_identifier(self):
        with pytest.raises(api.WmXMLError):
            api.CarrierSpec.create("year", "numeric",
                                   api.KeyIdentifier(("year",)))

    def test_bad_scheme_document(self):
        with pytest.raises(api.WmXMLError):
            api.WatermarkingScheme.from_dict({"format": "wrong"})

    def test_unknown_registry_name(self):
        with pytest.raises(api.WmXMLError):
            api.WmXMLSystem("k").pipeline("ghost")


class TestLegacyCatchStylesStillWork:
    def test_per_layer_bases_unchanged(self):
        with pytest.raises(XMLError):
            parse("<unclosed>")
        with pytest.raises(XPathError):
            compile_xpath("//book[")
        with pytest.raises(SemanticsError):
            api.WatermarkingScheme(shape=bibliography.book_shape(),
                                   carriers=[])

    def test_unknown_scheme_error_renders_without_keyerror_quotes(self):
        try:
            api.WmXMLSystem("k").scheme("typo")
        except api.UnknownSchemeError as error:
            assert str(error).startswith("unknown scheme")  # no repr quotes

    def test_builtin_bases_kept_for_dual_parented_errors(self):
        assert issubclass(api.SerializationError, ValueError)
        assert issubclass(api.UnknownSchemeError, KeyError)
        assert issubclass(api.WatermarkDecodeError, ValueError)
        assert issubclass(api.WatermarkMessageError, ValueError)


def _all_error_classes() -> list[type]:
    """Every WmXMLError subclass defined anywhere in the system.

    Importing ``repro.api`` and ``repro.service`` loads every layer that
    declares errors; the recursive subclass walk then finds the complete
    hierarchy.
    """
    import repro.service  # noqa: F401 - registers the service errors

    found: list[type] = []
    queue = [WmXMLError]
    while queue:
        cls = queue.pop()
        for sub in cls.__subclasses__():
            if sub not in found:
                found.append(sub)
                queue.append(sub)
    return found


class TestErrorCodes:
    """The service-boundary contract: stable codes, one status table.

    Regression gate for the code <-> HTTP-status table: *every* error
    class in the system must declare its own slug, and the slug must
    have a status in :data:`repro.errors.HTTP_STATUS_BY_CODE` — so an
    error class added without service wiring fails here, not in
    production.
    """

    def test_every_error_class_declares_its_own_code(self):
        missing = [cls.__name__ for cls in _all_error_classes()
                   if "code" not in cls.__dict__]
        assert missing == [], (
            f"error classes inheriting a parent's code instead of "
            f"declaring their own: {missing}")

    def test_table_covers_every_error_class(self):
        uncovered = [
            f"{cls.__name__} ({cls.code})" for cls in _all_error_classes()
            if cls.code not in api.HTTP_STATUS_BY_CODE
        ]
        assert uncovered == [], (
            f"codes missing from HTTP_STATUS_BY_CODE: {uncovered}")
        assert WmXMLError.code in api.HTTP_STATUS_BY_CODE

    def test_codes_are_unique_across_classes(self):
        classes = _all_error_classes()
        codes = [cls.code for cls in classes]
        assert len(set(codes)) == len(codes), (
            "two error classes share a code slug — clients could not "
            "tell them apart")

    def test_codes_are_wire_safe_slugs(self):
        for cls in _all_error_classes():
            assert cls.code == cls.code.lower()
            assert all(ch.isalnum() or ch == "-" for ch in cls.code), (
                f"{cls.__name__}.code={cls.code!r} is not a slug")

    def test_statuses_are_plausible_http(self):
        for code, status in api.HTTP_STATUS_BY_CODE.items():
            assert 400 <= status < 600, (code, status)

    def test_error_code_reads_instance_override(self):
        from repro.service import RemoteServiceError

        error = RemoteServiceError("unknown-scheme", "nope", 404)
        assert api.error_code(error) == "unknown-scheme"
        assert api.error_payload(error)["http_status"] == 404

    def test_error_payload_shape(self):
        payload = api.error_payload(api.UnknownSchemeError("ghost"))
        assert payload == {
            "code": "unknown-scheme",
            "message": "unknown scheme 'ghost'",
            "http_status": 404,
        }

    def test_foreign_exceptions_map_to_internal_error(self):
        assert api.error_code(ValueError("x")) == "internal-error"
        assert api.http_status_for("no-such-code") == 500

    def test_foreign_code_attributes_are_not_trusted(self):
        # HTTPError.code is an int HTTP status, SystemExit.code an exit
        # status — neither is a WmXML slug and neither may leak into an
        # error envelope.
        import io
        import urllib.error

        foreign = urllib.error.HTTPError("http://x", 404, "nf", {},
                                         io.BytesIO(b""))
        assert api.error_code(foreign) == "internal-error"
        assert api.error_code(SystemExit(2)) == "internal-error"
        assert api.error_payload(foreign)["code"] == "internal-error"


class TestCliErrorResults:
    """``wmxml detect --result`` surfaces codes on failure (exit 2)."""

    def test_bad_record_writes_error_payload(self, tmp_path, capsys):
        import json

        from repro.cli import main
        from repro.xmlmodel import write_file

        document = bibliography.generate_document(
            bibliography.BibliographyConfig(books=10, seed=1))
        doc_path = tmp_path / "doc.xml"
        write_file(str(doc_path), document)
        record_path = tmp_path / "record.json"
        record_path.write_text('{"format": "not-a-record"}')
        result_path = tmp_path / "verdict.json"

        code = main(["detect", "-i", str(doc_path), "-r", str(record_path),
                     "-k", "secret", "--result", str(result_path)])
        assert code == 2
        payload = json.loads(result_path.read_text())
        assert payload["error"]["code"] == "bad-record"
        assert payload["error"]["http_status"] == 400
        assert "[bad-record]" in capsys.readouterr().err


class TestStrictToMessage:
    def test_default_returns_none_on_bad_length(self):
        assert Watermark([1, 0, 1]).to_message() is None

    def test_default_returns_none_on_bad_utf8(self):
        assert Watermark([1] * 8).to_message() is None  # 0xFF

    def test_strict_raises_on_bad_length(self):
        with pytest.raises(api.WatermarkDecodeError, match="whole number"):
            Watermark([1, 0, 1]).to_message(strict=True)

    def test_strict_raises_on_bad_utf8(self):
        with pytest.raises(api.WatermarkDecodeError, match="UTF-8"):
            Watermark([1] * 8).to_message(strict=True)

    def test_strict_decodes_clean_messages(self):
        watermark = Watermark.from_message("héllo")
        assert watermark.to_message(strict=True) == "héllo"


class TestMessageStatusReporting:
    """DetectionResult says *why* no message was decoded."""

    def _pipeline(self, gamma):
        return api.Pipeline(bibliography.default_scheme(gamma), "status-key")

    def _document(self):
        return bibliography.generate_document(
            bibliography.BibliographyConfig(books=60, editors=6, seed=4))

    def test_decoded_status_when_message_recovers(self):
        pipeline = self._pipeline(gamma=1)  # dense: every bit voted on
        result = pipeline.embed(self._document(), "OK!")
        outcome = pipeline.detect(result.document, result.record)
        assert outcome.recovered_message == "OK!"
        assert outcome.message_status == "decoded"

    def test_incomplete_status_when_bits_missing(self):
        pipeline = self._pipeline(gamma=2)
        # A long message over sparse selection: some bit positions get
        # no votes, so blind reconstruction cannot finish.
        result = pipeline.embed(
            self._document(), "(c) a rather long ownership message")
        outcome = pipeline.detect(result.document, result.record)
        assert outcome.recovered_message is None
        assert outcome.message_status == "incomplete"

    def test_status_survives_serialization(self):
        pipeline = self._pipeline(gamma=1)
        result = pipeline.embed(self._document(), "OK!")
        outcome = pipeline.detect(result.document, result.record)
        reloaded = api.DetectionResult.from_json(outcome.to_json())
        assert reloaded.message_status == "decoded"


# -- one JSON decode rule ------------------------------------------------------------

def _write(tmp_path, data: bytes) -> str:
    path = tmp_path / "input.json"
    path.write_bytes(data)
    return str(path)


def _sqlite_rows(tmp_path, record: bytes, block: bytes) -> SQLiteBackend:
    """A SQLite backend whose one record row and one ledger row hold the
    given payloads (bytes that are not ASCII are stored as a blob)."""
    path = str(tmp_path / "rotted.db")
    SQLiteBackend(path).close()
    conn = sqlite3.connect(path)
    column = lambda data: data.decode() if data.isascii() else data
    conn.execute("INSERT INTO records (sequence, recipient, "
                 "scheme_fingerprint, document_hash, payload) "
                 "VALUES (0, 'a', 's', 'd', ?)", (column(record),))
    conn.execute("INSERT INTO ledger (idx, payload) VALUES (0, ?)",
                 (column(block),))
    conn.commit()
    conn.close()
    return SQLiteBackend(path)


def _export_header() -> bytes:
    stream = io.StringIO()
    WatermarkRegistry().export_jsonl(stream)
    return stream.getvalue().splitlines()[0].encode()


def _raise_remote_error(data: bytes):
    raise _remote_error(urllib.error.HTTPError(
        "http://127.0.0.1:1/v1/healthz", 502, "Bad Gateway", {},
        io.BytesIO(data)))


def _verify_bearer(data: bytes):
    claims = base64.urlsafe_b64encode(data).rstrip(b"=").decode()
    verify_token(MasterKeyMap({1: "master"}), f"wmx1.{claims}.AAAA")


#: Every reader of JSON input: (its error class, read(data, tmp_path)).
JSON_READERS = {
    "scheme.from_json": (
        api.SchemeFormatError,
        lambda data, tmp: api.WatermarkingScheme.from_json(data)),
    "record.load": (
        api.RecordFormatError,
        lambda data, tmp: api.WatermarkRecord.load(_write(tmp, data))),
    "tenants.load": (
        TenantConfigError,
        lambda data, tmp: TenantsConfig.load(_write(tmp, data))),
    "import_jsonl.header": (
        RegistryFormatError,
        lambda data, tmp: WatermarkRegistry().import_jsonl([data])),
    "import_jsonl.line": (
        RegistryFormatError,
        lambda data, tmp: WatermarkRegistry().import_jsonl(
            [_export_header(), data])),
    "sqlite.records": (
        RegistryFormatError,
        lambda data, tmp: _sqlite_rows(tmp, data, b"{}").find_records()),
    "sqlite.last_block": (
        RegistryFormatError,
        lambda data, tmp: _sqlite_rows(tmp, b"{}", data).last_block()),
    "sqlite.iter_blocks": (
        RegistryFormatError,
        lambda data, tmp: _sqlite_rows(tmp, b"{}", data).iter_blocks()),
    "protocol.parse_json": (
        MalformedRequestError, lambda data, tmp: parse_json(data)),
    "client._decode": (
        ServiceError, lambda data, tmp: WmXMLClient._decode(data)),
    "client._remote_error": (
        RemoteServiceError, lambda data, tmp: _raise_remote_error(data)),
    "tokens.verify_token": (
        UnauthorizedError, lambda data, tmp: _verify_bearer(data)),
}

JSON_DEFECTS = {
    "invalid": b"{not json",
    "deep": b"[" * 100_000,
    "not-utf8": b"\xff\xfe{",
    "array": b"[1]",
    "repeated": b'{"zz": 1, "zz": 2}',
}

#: Readers that answer every decode defect in their own words: a reply
#: that is not an envelope is a plain ``remote-error``, and any bad
#: claims segment is a "malformed bearer token".
OWN_WORDS = {"client._remote_error": "HTTP 502",
             "tokens.verify_token": "malformed bearer token"}


@pytest.mark.parametrize("defect", sorted(JSON_DEFECTS))
@pytest.mark.parametrize("reader", sorted(JSON_READERS))
def test_every_json_reader_refuses_each_defect_with_its_own_error(
        reader, defect, tmp_path):
    # Every reader of JSON input decodes through one function: bad
    # bytes, bad JSON, nesting deeper than json follows, an object that
    # names a member twice and a value that is not an object each raise
    # the reader's WmXMLError subclass.
    error, read = JSON_READERS[reader]
    with pytest.raises(error) as raised:
        read(JSON_DEFECTS[defect], tmp_path)
    assert isinstance(raised.value, WmXMLError)
    if defect == "repeated":
        # json keeps the last of two equal names without a word; the
        # decode rule refuses the object and says which name it repeats.
        if reader in OWN_WORDS:
            assert OWN_WORDS[reader] in str(raised.value)
            assert "zz" not in str(raised.value)
        else:
            assert "member 'zz' more than once" in str(raised.value)
        if reader == "client._remote_error":
            assert raised.value.code == "remote-error"
