"""The ``wmxml`` command-line tool — the demo system's front door.

Mirrors the workflow of the paper's demonstration (§4):

* ``wmxml generate`` — synthesise a dataset (bibliography / jobs /
  library) to an XML file;
* ``wmxml embed`` — watermark a document with a secret key and a
  message, writing the marked document and the query-set record Q;
* ``wmxml detect`` — verify a watermark in a suspected document, with
  optional query rewriting for a reorganised organisation;
* ``wmxml attack`` — apply one of the §4 attacks to a document;
* ``wmxml usability`` — score a document's usability against the
  original via the profile's query templates;
* ``wmxml discover`` — mine candidate keys and FDs from a document;
* ``wmxml scheme`` — export a profile's deployment as a declarative
  ``scheme.json`` artefact (or describe one);
* ``wmxml experiment`` — run one of the E1-E10 experiments.

Dataset *profiles* bundle the shapes, schemes, and templates so the CLI
stays declarative; every embedding/detecting subcommand also accepts
``--scheme scheme.json`` to run a deployment from its declarative
artefact instead of a built-in profile.  All watermarking runs through
the :mod:`repro.api` facade — the CLI constructs no encoder or decoder
of its own.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import threading
from dataclasses import replace
from typing import Optional

from repro.api import (
    NodeDeletionAttack,
    NodeInsertionAttack,
    RedundancyUnificationAttack,
    ReductionAttack,
    ReorganizationAttack,
    SiblingShuffleAttack,
    UsabilityBaseline,
    ValueAlterationAttack,
    WatermarkRecord,
    WatermarkRegistry,
    WatermarkingScheme,
    WmXMLError,
    WmXMLSystem,
)
from repro.core.crypto import KeyedPRF
from repro.datasets import bibliography, jobs, library
from repro.errors import error_payload
from repro.harness import EXPERIMENTS, ExperimentConfig
from repro.perf import StageTimer, ThroughputReporter, use_timer
from repro.registry import RegistryUnavailableError
from repro.semantics import (
    discover_fds,
    discover_keys,
    infer_schema,
    parse_dtd,
    render_dtd,
    validate,
)
from repro.xmlmodel import parse_file, write_file


class Profile:
    """A dataset profile: shapes, scheme factory, generator."""

    def __init__(self, name: str, module, shapes: dict,
                 config_factory=None) -> None:
        self.name = name
        self.module = module
        self.shapes = shapes
        self._config_factory = config_factory

    def generate(self, size: int, seed: int):
        """Synthesise a dataset document of ``size`` entities."""
        return self.module.generate_document(
            self._config_factory(size, seed))

    def shape(self, name: Optional[str]):
        if name is None:
            return next(iter(self.shapes.values()))
        try:
            return self.shapes[name]
        except KeyError:
            raise SystemExit(
                f"unknown shape {name!r} for profile {self.name!r}; "
                f"choices: {sorted(self.shapes)}")


PROFILES = {
    "bibliography": Profile("bibliography", bibliography, {
        "book-centric": bibliography.book_shape(),
        "publisher-centric": bibliography.publisher_shape(),
        "editor-centric": bibliography.editor_shape(),
    }, lambda size, seed: bibliography.BibliographyConfig(
        books=size, seed=seed)),
    "jobs": Profile("jobs", jobs, {
        "job-listing": jobs.listing_shape(),
        "jobs-by-company": jobs.by_company_shape(),
        "jobs-by-city": jobs.by_city_shape(),
    }, lambda size, seed: jobs.JobsConfig(jobs=size, seed=seed)),
    "library": Profile("library", library, {
        "library-catalogue": library.catalogue_shape(),
        "library-by-category": library.by_category_shape(),
    }, lambda size, seed: library.LibraryConfig(items=size, seed=seed)),
}


def _profile(name: str) -> Profile:
    try:
        return PROFILES[name]
    except KeyError:
        raise SystemExit(
            f"unknown profile {name!r}; choices: {sorted(PROFILES)}")


def _scheme_for(args: argparse.Namespace, profile: Profile,
                gamma: Optional[int] = None) -> WatermarkingScheme:
    """The deployment for this invocation.

    ``--scheme scheme.json`` wins (the artefact is authoritative,
    including its gamma); otherwise the profile's default scheme with
    the requested gamma.
    """
    path = getattr(args, "scheme_file", None)
    if path:
        try:
            return WatermarkingScheme.load(path)
        except OSError as error:
            raise SystemExit(f"cannot read scheme {path!r}: {error}")
        except WmXMLError as error:
            raise SystemExit(f"bad scheme {path!r}: {error}")
    if gamma is not None:
        return profile.module.default_scheme(gamma=gamma)
    return profile.module.default_scheme()


def _registry_for(args: argparse.Namespace) -> Optional[WatermarkRegistry]:
    """The SQLite registry named by ``--registry``, or None without it.

    Opened *without* the automatic crash-recovery pass: CLI inspection
    commands (``ledger verify``, ``records``) must report a torn
    database, not silently repair it.  The daemon (``build_service``)
    and ``wmxml ledger recover`` run recovery explicitly.
    """
    path = getattr(args, "registry", None)
    if not path:
        return None
    try:
        return WatermarkRegistry.open(path, recover=False)
    except WmXMLError as error:
        raise SystemExit(f"cannot open registry {path!r}: {error}")


def _registry_required(args: argparse.Namespace) -> WatermarkRegistry:
    registry = _registry_for(args)
    if registry is None:
        raise SystemExit("--registry path.db is required")
    return registry


# -- subcommand handlers ------------------------------------------------------------


def cmd_generate(args: argparse.Namespace) -> int:
    profile = _profile(args.profile)
    doc = profile.generate(args.size, args.seed)
    write_file(args.output, doc)
    print(f"wrote {args.profile} dataset ({args.size} entities) "
          f"to {args.output}")
    return 0


def _batch_target(path: str, kind: str, count: int) -> None:
    """Ensure ``path`` is a directory when a batch writes into it."""
    if os.path.exists(path) and not os.path.isdir(path):
        raise SystemExit(
            f"--{kind} must name a directory when embedding {count} "
            f"inputs (got existing file {path!r})")
    os.makedirs(path, exist_ok=True)


def cmd_embed(args: argparse.Namespace) -> int:
    profile = _profile(args.profile)
    scheme = _scheme_for(args, profile, gamma=args.gamma)
    if not args.message and not args.recipient:
        raise SystemExit("--message is required (or issue a fingerprinted "
                         "copy with --recipient)")
    if not args.record and not args.registry:
        raise SystemExit("--record is required without --registry "
                         "(otherwise the query set Q would be lost and "
                         "the mark undetectable)")
    system = WmXMLSystem(args.key, registry=_registry_for(args),
                         issuer=args.issuer)
    if len(args.input) > 1:
        return _embed_batch(args, scheme, system)
    timer = StageTimer()
    with use_timer(timer):
        with timer.stage("parse"):
            document = parse_file(args.input[0], strip_whitespace=True)
        result = system.embed(scheme, document, args.message,
                              recipient=args.recipient)
        with timer.stage("write"):
            write_file(args.output, result.document)
            if args.record:
                result.record.save(args.record)
    if args.profile_stages:
        print(timer.render("embed pipeline stages"))
    stats = result.stats
    issued = (f" (issued to {args.recipient!r} under their derived key)"
              if args.recipient else "")
    print(f"embedded {result.record.nbits}-bit watermark{issued}: "
          f"{stats.selected_groups}/{stats.capacity_groups} groups "
          f"selected (gamma={scheme.gamma}), "
          f"{stats.nodes_modified} nodes perturbed")
    print(f"marked document: {args.output}")
    if args.record:
        print(f"query set Q:     {args.record}  (keep with your secret key)")
    if system.registry is not None:
        print(f"registry:        {args.registry} "
              f"({system.registry.count()} records)")
    return 0


def _embed_batch(args: argparse.Namespace, scheme: WatermarkingScheme,
                 system: WmXMLSystem) -> int:
    """Embed a fleet of documents; ``--output``/``--record`` are dirs.

    The batch runs through the facade's fused engine (raw XML in,
    marked XML out), sharded over ``--processes`` workers when asked —
    each input gets its own marked file and query-set record, named
    after the input's basename.
    """
    _batch_target(args.output, "output", len(args.input))
    if args.record:
        _batch_target(args.record, "record", len(args.input))
    stems = [os.path.splitext(os.path.basename(path))[0]
             for path in args.input]
    clashes = sorted({stem for stem in stems if stems.count(stem) > 1})
    if clashes:
        # Outputs are basename-keyed; two inputs sharing a basename
        # would silently overwrite each other's marked copy and record.
        raise SystemExit(
            f"duplicate input basenames {clashes!r}: batch outputs are "
            "named after input basenames, so these would overwrite each "
            "other — rename the inputs or embed them in separate runs")
    texts = []
    for path in args.input:
        with open(path, "r", encoding="utf-8") as handle:
            texts.append(handle.read())
    results = system.embed_many(scheme, texts, args.message,
                                processes=args.processes, output="xml",
                                recipient=args.recipient)
    for stem, result in zip(stems, results):
        marked_path = os.path.join(args.output, f"{stem}.xml")
        with open(marked_path, "w", encoding="utf-8") as handle:
            handle.write(result.xml)
        if args.record:
            result.record.save(
                os.path.join(args.record, f"{stem}.record.json"))
    workers = (f", {args.processes} workers"
               if args.processes and args.processes > 1 else "")
    print(f"embedded {results[0].record.nbits}-bit watermark into "
          f"{len(results)} documents (gamma={scheme.gamma}{workers})")
    print(f"marked documents: {args.output}/")
    if args.record:
        print(f"query sets Q:     {args.record}/  "
              "(keep with your secret key)")
    if system.registry is not None:
        print(f"registry:         {args.registry} "
              f"({system.registry.count()} records)")
    return 0


def cmd_detect(args: argparse.Namespace) -> int:
    """Detect, mapping any WmXML error to its stable code.

    A failure (malformed record, bad XML, unknown algorithm...) prints
    the machine-readable code and — when ``--result`` was given —
    writes the same error payload the service would put in its
    envelope, so scripted callers branch on ``error.code`` instead of
    parsing prose.
    """
    try:
        return _run_detect(args)
    except WmXMLError as error:
        payload = error_payload(error)
        print(f"error [{payload['code']}]: {error}", file=sys.stderr)
        if args.result:
            with open(args.result, "w", encoding="utf-8") as handle:
                json.dump({"error": payload}, handle, indent=2)
                handle.write("\n")
            print(f"error result: {args.result}", file=sys.stderr)
        return 2


def _run_detect(args: argparse.Namespace) -> int:
    profile = _profile(args.profile)
    # Detection itself consumes only the record, the key, and the
    # document's current shape; the scheme here just anchors the
    # facade's pipeline (and, with --scheme, supplies the default
    # shape for rewriting).
    scheme = _scheme_for(args, profile)
    if args.shape:
        shape = profile.shape(args.shape)
    elif getattr(args, "scheme_file", None):
        shape = scheme.shape
    else:
        shape = profile.shape(None)
    system = WmXMLSystem(args.key, alpha=args.alpha,
                         registry=_registry_for(args))
    strategy = "indexed" if args.indexed else args.strategy
    if args.recipient:
        return _detect_recorded(args, scheme, system, shape, strategy)
    if not args.record:
        raise SystemExit("--record is required (or look one up with "
                         "--recipient and --registry)")
    record = WatermarkRecord.load(args.record)
    if len(args.input) > 1:
        return _detect_batch(args, scheme, system, record, shape, strategy)
    timer = StageTimer()
    with use_timer(timer):
        with timer.stage("parse"):
            document = parse_file(args.input[0], strip_whitespace=True)
        outcome = system.detect(scheme, document, record,
                                expected=args.message or None,
                                shape=shape, strategy=strategy)
    if args.profile_stages:
        print(timer.render("detect pipeline stages"))
    print(outcome)
    if outcome.recovered_message:
        print(f"recovered message: {outcome.recovered_message!r}")
    else:
        print(f"no message decoded ({outcome.message_status})")
    if outcome.queries_rejected:
        print(f"warning: {outcome.queries_rejected} stored queries failed "
              "key authentication")
    if args.result:
        outcome.save(args.result)
        print(f"detection result: {args.result}")
    return 0 if outcome.detected else 1


def _detect_recorded(args: argparse.Namespace, scheme: WatermarkingScheme,
                     system: WmXMLSystem, shape, strategy: str) -> int:
    """Detect against the registry's persisted record for a recipient.

    No ``--record`` file needed: the newest ``wmxml-registry-record-v1``
    for ``--recipient`` under this deployment supplies the query set,
    and the detection key (system or derived) follows the record's
    keying mode.
    """
    outcomes = []
    for path in args.input:
        document = parse_file(path, strip_whitespace=True)
        outcomes.append(system.detect_recorded(
            scheme, document, args.recipient, shape=shape,
            strategy=strategy))
    detected = 0
    for path, outcome in zip(args.input, outcomes):
        print(f"{path}: {outcome}")
        detected += bool(outcome.detected)
    if len(outcomes) > 1:
        print(f"detected in {detected}/{len(outcomes)} documents")
    if args.result:
        if len(outcomes) == 1:
            outcomes[0].save(args.result)
        else:
            with open(args.result, "w", encoding="utf-8") as handle:
                json.dump({path: outcome.to_dict()
                           for path, outcome in zip(args.input, outcomes)},
                          handle, indent=2)
                handle.write("\n")
        print(f"detection result: {args.result}")
    return 0 if detected == len(outcomes) else 1


def _detect_batch(args: argparse.Namespace, scheme: WatermarkingScheme,
                  system: WmXMLSystem, record: WatermarkRecord,
                  shape, strategy: str) -> int:
    """Check many suspected copies against one query-set record.

    The piracy-hunting batch: every input is judged by the same record,
    expectation and strategy, sharded over ``--processes`` workers when
    asked.  ``--result`` saves a JSON object mapping each input path to
    its versioned detection verdict.  Exit status is 0 only when
    *every* copy is detected.
    """
    texts = []
    for path in args.input:
        with open(path, "r", encoding="utf-8") as handle:
            texts.append(handle.read())
    timer = StageTimer()
    with use_timer(timer):
        with timer.stage("detect batch"):
            outcomes = system.detect_many(
                scheme, [(text, record) for text in texts],
                expected=args.message or None, shape=shape,
                strategy=strategy, processes=args.processes)
    if args.profile_stages:
        print(timer.render("batch detect stages"))
    detected = 0
    for path, outcome in zip(args.input, outcomes):
        print(f"{path}: {outcome}")
        detected += bool(outcome.detected)
    print(f"detected in {detected}/{len(outcomes)} documents")
    if args.result:
        with open(args.result, "w", encoding="utf-8") as handle:
            json.dump({path: outcome.to_dict()
                       for path, outcome in zip(args.input, outcomes)},
                      handle, indent=2)
            handle.write("\n")
        print(f"detection results: {args.result}")
    return 0 if detected == len(outcomes) else 1


def cmd_attack(args: argparse.Namespace) -> int:
    profile = _profile(args.profile)
    document = parse_file(args.input, strip_whitespace=True)
    if args.kind == "alter":
        attack = ValueAlterationAttack(args.rate, seed=args.seed)
    elif args.kind == "delete":
        attack = NodeDeletionAttack(args.rate, seed=args.seed)
    elif args.kind == "insert":
        attack = NodeInsertionAttack(args.rate, seed=args.seed)
    elif args.kind == "reduce":
        attack = ReductionAttack(args.rate, seed=args.seed)
    elif args.kind == "shuffle":
        attack = SiblingShuffleAttack(seed=args.seed)
    elif args.kind == "reorganize":
        if getattr(args, "scheme_file", None) and not args.shape:
            source = _scheme_for(args, profile).shape
        else:
            source = profile.shape(args.shape)
        target = profile.shape(args.to_shape)
        attack = ReorganizationAttack(source, target)
    elif args.kind == "unify":
        fds = (profile.module.semantic_fds()
               if hasattr(profile.module, "semantic_fds")
               else [profile.module.semantic_fd()])
        attack = RedundancyUnificationAttack(fds[0], seed=args.seed)
    else:  # pragma: no cover - argparse restricts choices
        raise SystemExit(f"unknown attack {args.kind!r}")
    report = attack.apply(document)
    write_file(args.output, report.document)
    print(report)
    print(f"attacked document: {args.output}")
    return 0


def cmd_usability(args: argparse.Namespace) -> int:
    profile = _profile(args.profile)
    if getattr(args, "scheme_file", None):
        scheme = _scheme_for(args, profile)
        original_shape = (profile.shape(args.shape) if args.shape
                          else scheme.shape)
        templates = scheme.templates
    else:
        original_shape = profile.shape(args.shape)
        templates = profile.module.usability_templates()
    current_shape = (profile.shape(args.current_shape)
                     if args.current_shape else original_shape)
    original = parse_file(args.original, strip_whitespace=True)
    suspected = parse_file(args.input, strip_whitespace=True)
    baseline = UsabilityBaseline.snapshot(original, original_shape,
                                          templates)
    report = baseline.evaluate(suspected, current_shape)
    print(report)
    for score in report.per_template:
        print(f"  {score.template}: strict={score.strict:.3f} "
              f"jaccard={score.jaccard:.3f} ({score.queries} queries)")
    print("usability destroyed" if report.destroyed()
          else "usability preserved")
    return 0


def cmd_discover(args: argparse.Namespace) -> int:
    profile = _profile(args.profile)
    shape = profile.shape(args.shape)
    document = parse_file(args.input, strip_whitespace=True)
    rows = shape.shred(document)
    fields = list(shape.field_names)
    print(f"shredded {len(rows)} rows with fields: {', '.join(fields)}")
    print("\ncandidate keys:")
    for key in discover_keys(rows, fields):
        print(f"  {key}")
    print("\ncandidate functional dependencies:")
    for fd in discover_fds(rows, fields):
        print(f"  {fd}")
    return 0


def cmd_schema(args: argparse.Namespace) -> int:
    document = parse_file(args.input, strip_whitespace=True)
    if args.validate_dtd:
        with open(args.validate_dtd, "r", encoding="utf-8") as handle:
            schema = parse_dtd(handle.read())
        violations = validate(schema, document)
        if violations:
            print(f"{len(violations)} violation(s):")
            for violation in violations[:25]:
                print(f"  {violation}")
            return 1
        print("document is valid against the DTD")
        return 0
    schema = infer_schema(document)
    dtd_text = render_dtd(schema)
    print(dtd_text, end="")
    if args.dtd:
        with open(args.dtd, "w", encoding="utf-8") as handle:
            handle.write(dtd_text)
        print(f"\nwrote {args.dtd}")
    return 0


def cmd_scheme(args: argparse.Namespace) -> int:
    """Export a deployment as a declarative scheme.json, or describe one."""
    if getattr(args, "scheme_file", None):
        scheme = _scheme_for(args, None)
    else:
        profile = _profile(args.profile)
        scheme = profile.module.default_scheme(gamma=args.gamma)
    if args.output:
        scheme.save(args.output)
        print(f"wrote scheme artefact: {args.output}")
    else:
        print(scheme.describe())
    return 0


def _scheme_spec(spec: str) -> tuple[str, str]:
    """``NAME=path`` or bare ``path`` (name = file stem) -> (name, path).

    A bare path whose *directories* contain ``=`` (``/data/run=3/x.json``)
    is not a NAME=path spec: an existing file always wins, and a
    registry name never contains a path separator.
    """
    if "=" in spec and not os.path.exists(spec):
        name, _, path = spec.partition("=")
        if name and path and os.sep not in name:
            return name, path
    stem = os.path.splitext(os.path.basename(spec))[0]
    return stem, spec


def build_service(args: argparse.Namespace):
    """The configured service for ``wmxml serve`` (separate for tests)."""
    from repro.service import WmXMLService

    tenants_path = getattr(args, "tenants", None)
    if (getattr(args, "key", None) is None) == (tenants_path is None):
        raise SystemExit(
            "pass exactly one of --key (single-tenant) or "
            "--tenants tenants.json (multi-tenant)")
    if tenants_path is not None:
        return _build_tenant_service(args, tenants_path)
    system = WmXMLSystem(args.key, alpha=args.alpha,
                         registry=_registry_for(args),
                         issuer=getattr(args, "issuer", None) or "wmxml")
    for spec in args.scheme_files:
        name, path = _scheme_spec(spec)
        if name in system.scheme_names():
            # register() has replace semantics; silently serving only
            # the last of two same-named deployments would make every
            # detect run against the wrong query set.
            raise SystemExit(
                f"duplicate scheme name {name!r} (from {spec!r}); "
                "disambiguate with NAME=path")
        try:
            system.register_file(name, path)
        except OSError as error:
            raise SystemExit(f"cannot read scheme {path!r}: {error}")
        except WmXMLError as error:
            raise SystemExit(f"bad scheme {path!r}: {error}")
    # Reopen-after-crash recovery, run *after* the system attached its
    # sealing key so a torn trailing pair with a bad seal is caught
    # too; the report surfaces in the serve banner.  Storage being
    # dark at boot must not stop the daemon — embed/detect still
    # serve, so it starts in degraded mode instead of crashing.
    boot_degraded = False
    if system.registry is not None:
        try:
            system.registry.last_recovery = system.registry.recover()
        except RegistryUnavailableError:
            boot_degraded = True
    service = WmXMLService(system, processes=args.processes,
                           **_service_limits(args))
    if boot_degraded:
        service._degraded = True
    return service


def _service_limits(args: argparse.Namespace) -> dict:
    # None means "use the WmXMLService default" — the protocol
    # constants stay the one source of truth for both ceilings.
    return {
        key: value
        for key, value in (("max_body_bytes",
                            getattr(args, "max_body_bytes", None)),
                           ("max_schemes",
                            getattr(args, "max_schemes", None)),
                           ("retry_after",
                            getattr(args, "retry_after", None)))
        if value is not None
    }


def _build_tenant_service(args: argparse.Namespace, tenants_path: str):
    """The multi-tenant daemon: one tenants.json, many key namespaces.

    ``--scheme`` files are offered to every tenant (each compiles them
    under its own derived key); the shared registry gets the key map's
    rotation-stable sealer and the same reopen-after-crash recovery as
    the single-tenant path.
    """
    from repro.service import WmXMLService
    from repro.tenants import (TenantConfigError, TenantDirectory,
                               TenantsConfig)

    try:
        config = TenantsConfig.load(tenants_path)
    except TenantConfigError as error:
        raise SystemExit(f"bad tenants file {tenants_path!r}: {error}")
    registry = _registry_for(args)
    directory = TenantDirectory(
        config, registry=registry, alpha=args.alpha,
        issuer=getattr(args, "issuer", None) or "wmxml")
    loaded: set[str] = set()
    for spec in args.scheme_files:
        name, path = _scheme_spec(spec)
        if name in loaded:
            raise SystemExit(
                f"duplicate scheme name {name!r} (from {spec!r}); "
                "disambiguate with NAME=path")
        loaded.add(name)
        try:
            directory.register_all(name, WatermarkingScheme.load(path))
        except OSError as error:
            raise SystemExit(f"cannot read scheme {path!r}: {error}")
        except WmXMLError as error:
            raise SystemExit(f"bad scheme {path!r}: {error}")
    boot_degraded = False
    if registry is not None:
        try:
            registry.last_recovery = registry.recover()
        except RegistryUnavailableError:
            boot_degraded = True
    service = WmXMLService(tenants=directory, processes=args.processes,
                           **_service_limits(args))
    if boot_degraded:
        service._degraded = True
    return service


def cmd_token(args: argparse.Namespace) -> int:
    """Mint or verify bearer tokens against a tenants file."""
    from repro.tenants import (TenantConfigError, TenantDirectory,
                               TenantsConfig, UnauthorizedError)

    try:
        config = TenantsConfig.load(args.tenants)
    except TenantConfigError as error:
        raise SystemExit(f"bad tenants file {args.tenants!r}: {error}")
    directory = TenantDirectory(config)
    if args.token_command == "mint":
        try:
            token = directory.mint_token(
                args.tenant, scopes=args.scopes or None,
                ttl_s=args.ttl, key_id=args.key_id)
        except WmXMLError as error:
            raise SystemExit(
                f"cannot mint token for {args.tenant!r}: {error}")
        print(token)
        return 0
    token = args.token
    if token == "-":
        token = sys.stdin.read().strip()
    try:
        claims = directory.authenticate(token)
    except UnauthorizedError as error:
        print(f"error [unauthorized]: {error}", file=sys.stderr)
        return 1
    # Effective claims: the token's scopes intersected with what the
    # tenants file currently grants — what the daemon would honour.
    print(json.dumps({"tenant": claims.tenant,
                      "scopes": sorted(claims.scopes),
                      "key_id": claims.key_id,
                      "expires_at": claims.expires_at}, indent=2))
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the watermarking daemon until SIGINT/SIGTERM."""
    from repro.service import running_server

    service = build_service(args)
    # The daemon serves on a worker thread (running_server) so the
    # main thread can wait on a signal: ``server.shutdown()`` blocks
    # until the serve loop exits and would deadlock if called from the
    # serving thread.
    stop = threading.Event()
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, lambda *_: stop.set())
    bound = False
    try:
        with running_server(service, host=args.host, port=args.port,
                            quiet=not args.access_log,
                            drain_timeout=args.drain_timeout) as server:
            bound = True
            host, port = server.server_address[:2]
            if service.tenants is not None:
                # register_all gives every tenant the same boot-time
                # schemes, so any tenant's namespace names them all.
                first = service.tenants.tenant_names()[0]
                names = ", ".join(
                    service.tenants.scheme_names(first)) or "(none)"
                registry = service.tenants.registry
                tenant_note = (f", tenants="
                               f"{len(service.tenants.tenant_names())}")
            else:
                names = ", ".join(
                    service.system.scheme_names()) or "(none)"
                registry = service.system.registry
                tenant_note = ""
            # flush: supervisors (and the CI smoke script) parse the
            # banner for the bound port through a block-buffered pipe.
            registry_note = (f", registry={args.registry}"
                             if getattr(args, "registry", None) else "")
            print(f"wmxml serve: listening on http://{host}:{port} "
                  f"(schemes: {names}, "
                  f"processes={args.processes or 1}"
                  f"{tenant_note}{registry_note})",
                  flush=True)
            recovery = (getattr(registry, "last_recovery", None)
                        if registry is not None else None)
            if recovery is not None and recovery.actions:
                print(f"wmxml serve: crash recovery quarantined "
                      f"{len(recovery.actions)} torn trailing "
                      f"artefact(s); ledger verifiable={recovery.ok}",
                      flush=True)
            elif recovery is not None and not recovery.ok:
                reason = (recovery.verification.reason
                          if recovery.verification else "unknown")
                print(f"wmxml serve: WARNING — registry chain is "
                      f"broken and not crash-recoverable: {reason}",
                      flush=True)
            print("endpoints: POST /v1/embed[/batch]  "
                  "POST /v1/detect[/batch]  GET|PUT /v1/schemes[/{name}]"
                  "  GET /v1/records  GET /v1/ledger/verify  "
                  "POST /v1/trace  GET /v1/healthz  GET /v1/stats",
                  flush=True)
            stop.wait()
    except OSError as error:
        if bound:
            raise
        raise SystemExit(
            f"cannot bind {args.host}:{args.port}: {error}")
    print("wmxml serve: shut down cleanly")
    return 0


def cmd_records(args: argparse.Namespace) -> int:
    """List, export, or restore the persistent watermark registry."""
    registry = _registry_required(args)
    if args.import_file:
        try:
            with open(args.import_file, "r", encoding="utf-8") as handle:
                loaded = registry.import_jsonl(handle)
        except OSError as error:
            raise SystemExit(
                f"cannot read {args.import_file!r}: {error}")
        except WmXMLError as error:
            print(f"error [{error_payload(error)['code']}]: {error}",
                  file=sys.stderr)
            return 2
        print(f"restored {loaded} rows into {args.registry}")
        return 0
    if args.export == "jsonl":
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                lines = registry.export_jsonl(handle)
            print(f"exported {lines} lines to {args.output}")
        else:
            registry.export_jsonl(sys.stdout)
        return 0
    entries = registry.records(
        recipient=args.recipient,
        scheme_fingerprint=args.scheme_fingerprint,
        document_hash=args.document_hash,
        offset=args.offset, limit=args.limit)
    total = registry.count(
        recipient=args.recipient,
        scheme_fingerprint=args.scheme_fingerprint,
        document_hash=args.document_hash)
    for entry in entries:
        print(f"#{entry.sequence}  {entry.recipient}  "
              f"keying={entry.keying}  scheme={entry.scheme_fingerprint}  "
              f"doc={entry.document_hash[:16]}...  {entry.created_at}")
    shown = len(entries)
    print(f"{shown} of {total} record(s) "
          f"({len(registry.recipients())} distinct recipients, "
          f"{registry.backend.block_count()} ledger blocks)")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Trace a suspected leak against every persisted issued copy."""
    profile = _profile(args.profile)
    scheme = _scheme_for(args, profile)
    registry = _registry_required(args)
    system = WmXMLSystem(args.key, alpha=args.alpha, registry=registry)
    shape = profile.shape(args.shape) if args.shape else None
    try:
        document = parse_file(args.input, strip_whitespace=True)
        trace = system.trace(scheme, document, shape=shape,
                             strategy=args.strategy,
                             recipients=args.recipients or None)
    except WmXMLError as error:
        print(f"error [{error_payload(error)['code']}]: {error}",
              file=sys.stderr)
        return 2
    print(trace)
    if trace.prime_suspect:
        print(f"prime suspect: {trace.prime_suspect}")
    if args.result:
        trace.save(args.result)
        print(f"trace result: {args.result}")
    return 0 if trace.accused else 1


def cmd_ledger(args: argparse.Namespace) -> int:
    """Verify the provenance ledger end to end."""
    registry = _registry_required(args)
    if args.key:
        registry.attach_sealer(KeyedPRF(args.key))
    verification = registry.verify_chain()
    seal_note = ("HMAC seals verified" if verification.sealed
                 else "hash links only (pass --key to verify seals)")
    if verification.intact:
        print(f"ledger intact: {verification.blocks} blocks over "
              f"{verification.records} records ({seal_note})")
        return 0
    where = ("" if verification.broken_index is None
             else f" at block {verification.broken_index}")
    print(f"error [chain-broken]: ledger failed verification{where}: "
          f"{verification.reason}", file=sys.stderr)
    return 1


def cmd_ledger_recover(args: argparse.Namespace) -> int:
    """Run crash recovery: quarantine torn trailing appends."""
    registry = _registry_required(args)
    if args.key:
        registry.attach_sealer(KeyedPRF(args.key))
    try:
        report = registry.recover()
    except WmXMLError as error:
        print(f"error [{error_payload(error)['code']}]: {error}",
              file=sys.stderr)
        return 2
    for action in report.actions:
        print(f"quarantined: {action}")
    quarantined = registry.quarantined()
    print(f"recovery: {report.records} records, {report.blocks} ledger "
          f"blocks, {len(report.actions)} artefact(s) quarantined this "
          f"pass ({len(quarantined)} total in quarantine)")
    if report.ok:
        print("ledger verifiable: yes")
        return 0
    reason = (report.verification.reason if report.verification
              else "chain not verifiable")
    print(f"error [chain-broken]: {reason} — damage is not a torn "
          f"trailing append; restore from a records export",
          file=sys.stderr)
    return 1


def cmd_faults(args: argparse.Namespace) -> int:
    """List the deterministic fault-injection points."""
    from repro import faults

    for name, description in faults.fault_points().items():
        print(f"{name}\n    {description}")
    print()
    print("arm via WMXML_FAULTS=\"point=mode[:k=v...][,...]\" "
          "(modes: raise, delay, corrupt, exit; "
          "keys: times, after, p, seed, ms, scope)")
    return 0


def cmd_perf(args: argparse.Namespace) -> int:
    """Stage-timed embed/detect pipeline with throughput rates."""
    profile = _profile(args.profile)
    document = profile.generate(args.size, args.seed)
    scheme = _scheme_for(args, profile, gamma=args.gamma)
    system = WmXMLSystem(args.key)
    pipeline = system.pipeline(scheme)
    timer = StageTimer()
    with use_timer(timer):
        with timer.stage("embed (total)"):
            result = pipeline.embed(document, args.message)
        with timer.stage("detect (scan)"):
            scan = pipeline.detect(result.document, result.record,
                                   expected=args.message, strategy="scan")
        with timer.stage("detect (indexed)"):
            indexed = pipeline.detect(result.document, result.record,
                                      expected=args.message,
                                      strategy="indexed")
    if not (scan.detected and indexed.detected):
        print("warning: pipeline failed to detect its own watermark")
    elements = document.count_elements()
    print(timer.render(f"pipeline stages ({args.profile}, "
                       f"{args.size} entities, {elements} elements)"))
    reporter = ThroughputReporter()
    reporter.add("embed", elements, timer.total_ms("embed (total)") / 1000,
                 unit="elements")
    reporter.add("detect-scan", len(result.record.queries),
                 timer.total_ms("detect (scan)") / 1000, unit="queries")
    reporter.add("detect-indexed", len(result.record.queries),
                 timer.total_ms("detect (indexed)") / 1000, unit="queries")
    print()
    print(reporter.render())
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    config = ExperimentConfig(books=args.size, seed=args.seed)
    if args.id == "all":
        from repro.harness import render_report, run_all

        tables = run_all(config, progress=print)
        print(render_report(tables))
        if args.csv:
            with open(args.csv, "w", encoding="utf-8") as handle:
                handle.write(render_report(tables))
            print(f"wrote {args.csv}")
        return 0
    try:
        runner = EXPERIMENTS[args.id]
    except KeyError:
        raise SystemExit(
            f"unknown experiment {args.id!r}; choices: "
            f"{sorted(EXPERIMENTS)} or 'all'")
    table = runner(config)
    print(table)
    if args.csv:
        table.to_csv(args.csv)
        print(f"\nwrote {args.csv}")
    return 0


# -- parser ------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wmxml",
        description="WmXML: watermarking XML data (VLDB 2005 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="synthesise a dataset")
    gen.add_argument("--profile", default="bibliography",
                     choices=sorted(PROFILES))
    gen.add_argument("--size", type=int, default=100)
    gen.add_argument("--seed", type=int, default=7)
    gen.add_argument("--output", "-o", required=True)
    gen.set_defaults(handler=cmd_generate)

    embed = sub.add_parser("embed", help="embed a watermark")
    embed.add_argument("--profile", default="bibliography",
                       choices=sorted(PROFILES))
    embed.add_argument("--scheme", dest="scheme_file",
                       help="declarative scheme.json deployment artefact "
                       "(overrides the profile's default scheme and "
                       "--gamma)")
    embed.add_argument("--input", "-i", required=True, nargs="+",
                       help="input document(s); with several, --output "
                       "and --record name directories and the batch "
                       "runs through the parallel engine")
    embed.add_argument("--output", "-o", required=True)
    embed.add_argument("--record", "-r",
                       help="where to save the query set Q (JSON); "
                       "optional with --registry, which persists Q "
                       "itself")
    embed.add_argument("--key", "-k", required=True)
    embed.add_argument("--message", "-m",
                       help="watermark message (required unless "
                       "--recipient issues a fingerprinted copy)")
    embed.add_argument("--recipient",
                       help="issue a fingerprinted copy to this recipient "
                       "id: the id becomes the message, embedded under "
                       "the recipient's derived key (traceable via "
                       "'wmxml trace')")
    embed.add_argument("--registry", metavar="PATH.DB",
                       help="record every embed into this SQLite "
                       "registry + provenance ledger")
    embed.add_argument("--issuer", default="wmxml",
                       help="issuer identity stamped into registry "
                       "records (default: wmxml)")
    embed.add_argument("--gamma", type=int, default=4)
    embed.add_argument("--processes", type=int, default=None,
                       help="shard a multi-document batch over N worker "
                       "processes (parse + embed + serialise fused "
                       "per document)")
    embed.add_argument("--profile-stages", dest="profile_stages",
                       action="store_true",
                       help="print per-stage timings after embedding")
    embed.set_defaults(handler=cmd_embed)

    detect = sub.add_parser("detect", help="detect a watermark")
    detect.add_argument("--profile", default="bibliography",
                        choices=sorted(PROFILES))
    detect.add_argument("--scheme", dest="scheme_file",
                        help="declarative scheme.json deployment artefact")
    detect.add_argument("--input", "-i", required=True, nargs="+",
                        help="suspected document(s); with several, every "
                        "copy is checked against the same record")
    detect.add_argument("--record", "-r",
                        help="the saved query-set record (required "
                        "unless --recipient looks one up in --registry)")
    detect.add_argument("--recipient",
                        help="use the newest registry record for this "
                        "recipient instead of --record (needs "
                        "--registry)")
    detect.add_argument("--registry", metavar="PATH.DB",
                        help="SQLite registry to look records up in")
    detect.add_argument("--key", "-k", required=True)
    detect.add_argument("--message", "-m",
                        help="expected message (verification mode)")
    detect.add_argument("--shape", help="current organisation of the data "
                        "(enables query rewriting)")
    detect.add_argument("--alpha", type=float, default=1e-3)
    detect.add_argument("--strategy", default="auto",
                        choices=["auto", "indexed", "scan"],
                        help="query engine: indexed logical executor "
                        "(one shred; what 'auto' always runs, with "
                        "vote-for-vote equivalence proven on every "
                        "profile) or per-query XPath scan (the "
                        "reference engine)")
    detect.add_argument("--indexed", action="store_true",
                        help="deprecated alias for --strategy indexed")
    detect.add_argument("--processes", type=int, default=None,
                        help="shard a multi-document batch over N worker "
                        "processes (parse + detect fused per document)")
    detect.add_argument("--result", help="also save the detection result "
                        "as versioned JSON here")
    detect.add_argument("--profile-stages", dest="profile_stages",
                        action="store_true",
                        help="print per-stage timings after detection")
    detect.set_defaults(handler=cmd_detect)

    attack = sub.add_parser("attack", help="apply a §4 attack")
    attack.add_argument("--profile", default="bibliography",
                        choices=sorted(PROFILES))
    attack.add_argument("--scheme", dest="scheme_file",
                        help="scheme.json whose shape is the reorganise "
                        "attack's source organisation")
    attack.add_argument("--input", "-i", required=True)
    attack.add_argument("--output", "-o", required=True)
    attack.add_argument("--kind", required=True,
                        choices=["alter", "delete", "insert", "reduce",
                                 "shuffle", "reorganize", "unify"])
    attack.add_argument("--rate", type=float, default=0.2,
                        help="alteration rate / keep fraction")
    attack.add_argument("--seed", type=int, default=0)
    attack.add_argument("--shape", help="current shape (reorganize)")
    attack.add_argument("--to-shape", help="target shape (reorganize)")
    attack.set_defaults(handler=cmd_attack)

    usability = sub.add_parser("usability",
                               help="score usability vs the original")
    usability.add_argument("--profile", default="bibliography",
                           choices=sorted(PROFILES))
    usability.add_argument("--scheme", dest="scheme_file",
                           help="scheme.json supplying the shape and "
                           "usability templates")
    usability.add_argument("--original", required=True)
    usability.add_argument("--input", "-i", required=True)
    usability.add_argument("--shape", help="original organisation")
    usability.add_argument("--current-shape",
                           help="suspected document's organisation")
    usability.set_defaults(handler=cmd_usability)

    discover = sub.add_parser("discover",
                              help="mine candidate keys and FDs")
    discover.add_argument("--profile", default="bibliography",
                          choices=sorted(PROFILES))
    discover.add_argument("--input", "-i", required=True)
    discover.add_argument("--shape")
    discover.set_defaults(handler=cmd_discover)

    schema = sub.add_parser(
        "schema", help="infer a schema (as DTD) or validate against one")
    schema.add_argument("--input", "-i", required=True)
    schema.add_argument("--dtd", help="write the inferred DTD here")
    schema.add_argument("--validate-dtd",
                        help="validate the document against this DTD")
    schema.set_defaults(handler=cmd_schema)

    scheme = sub.add_parser(
        "scheme",
        help="export a deployment as scheme.json, or describe one")
    scheme.add_argument("--profile", default="bibliography",
                        choices=sorted(PROFILES))
    scheme.add_argument("--scheme", dest="scheme_file",
                        help="describe/re-export an existing scheme.json "
                        "instead of a profile default")
    scheme.add_argument("--gamma", type=int, default=4)
    scheme.add_argument("--output", "-o",
                        help="write the declarative artefact here "
                        "(omit to print a description)")
    scheme.set_defaults(handler=cmd_scheme)

    serve = sub.add_parser(
        "serve", help="run the HTTP watermarking service daemon")
    serve.add_argument("--scheme", dest="scheme_files", action="append",
                       required=True, metavar="[NAME=]PATH",
                       help="scheme.json to register (repeatable); the "
                       "registry name defaults to the file stem")
    serve.add_argument("--key", "-k",
                       help="the owner's secret key (never leaves the "
                       "daemon); single-tenant mode, mutually "
                       "exclusive with --tenants")
    serve.add_argument("--tenants", metavar="PATH.JSON",
                       help="multi-tenant mode: serve the tenants in "
                       "this wmxml-tenants-v1 file, each under its own "
                       "derived key, with bearer-token auth ('wmxml "
                       "token mint'), per-route scopes and per-tenant "
                       "quotas; mutually exclusive with --key")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address; a --key daemon has NO "
                       "built-in auth (anyone who can reach the port "
                       "gets an embed/detect oracle under your key), "
                       "so keep it on loopback or behind an "
                       "authenticating proxy — or run --tenants, "
                       "where every endpoint except /v1/healthz "
                       "demands a bearer token")
    serve.add_argument("--port", type=int, default=8420,
                       help="listen port (0 binds an ephemeral port)")
    serve.add_argument("--processes", type=int, default=None,
                       help="worker processes for the batch endpoints "
                       "(rides the parallel engine; unset = serial)")
    serve.add_argument("--alpha", type=float, default=1e-3)
    serve.add_argument("--max-body-bytes", type=int, default=None,
                       help="reject request bodies larger than this "
                       "(HTTP 413; default: the protocol ceiling, "
                       "64 MiB)")
    serve.add_argument("--max-schemes", type=int, default=None,
                       help="ceiling on wire-registered (PUT) schemes, "
                       "on top of the --scheme files loaded at boot "
                       "(HTTP 507 beyond; default 256)")
    serve.add_argument("--registry", metavar="PATH.DB",
                       help="persist every embed into this SQLite "
                       "registry + provenance ledger and enable "
                       "/v1/records, /v1/ledger/verify and /v1/trace")
    serve.add_argument("--issuer", default="wmxml",
                       help="issuer identity stamped into registry "
                       "records (default: wmxml)")
    serve.add_argument("--access-log", action="store_true",
                       help="log each request to stderr")
    serve.add_argument("--retry-after", type=int, default=None,
                       help="seconds advertised in the Retry-After "
                       "header on 503 responses while the registry is "
                       "degraded (default 1)")
    serve.add_argument("--drain-timeout", type=float, default=5.0,
                       help="seconds to wait for in-flight requests to "
                       "finish on SIGTERM/SIGINT before closing the "
                       "socket (default 5)")
    serve.set_defaults(handler=cmd_serve)

    token = sub.add_parser(
        "token",
        help="mint/verify bearer tokens for a --tenants daemon")
    token_sub = token.add_subparsers(dest="token_command", required=True)
    mint = token_sub.add_parser(
        "mint", help="mint a bearer token for one tenant")
    mint.add_argument("--tenants", required=True, metavar="PATH.JSON",
                      help="the wmxml-tenants-v1 file the daemon "
                      "serves from (holds the signing keys)")
    mint.add_argument("--tenant", required=True,
                      help="which tenant the token authenticates as")
    mint.add_argument("--scope", dest="scopes", action="append",
                      metavar="SCOPE",
                      help="restrict the token to these scopes "
                      "(repeatable; default: every scope the tenants "
                      "file grants — a token can narrow a grant, "
                      "never widen it)")
    mint.add_argument("--ttl", type=float, default=None,
                      help="token lifetime in seconds (default: no "
                      "expiry)")
    mint.add_argument("--key-id", type=int, default=None,
                      help="sign under this key generation (default: "
                      "the active one)")
    mint.set_defaults(handler=cmd_token)
    token_verify = token_sub.add_parser(
        "verify",
        help="verify a token and print its effective claims")
    token_verify.add_argument("--tenants", required=True,
                              metavar="PATH.JSON")
    token_verify.add_argument("token",
                              help="the token, or '-' to read it from "
                              "stdin")
    token_verify.set_defaults(handler=cmd_token)

    records = sub.add_parser(
        "records",
        help="list/export/restore the persistent watermark registry")
    records.add_argument("--registry", metavar="PATH.DB", required=True)
    records.add_argument("--recipient", help="filter by recipient id")
    records.add_argument("--scheme-fingerprint",
                         help="filter by pipeline fingerprint")
    records.add_argument("--document-hash",
                         help="filter by marked-document content hash")
    records.add_argument("--offset", type=int, default=0)
    records.add_argument("--limit", type=int, default=100)
    records.add_argument("--export", choices=["jsonl"],
                         help="dump the whole registry (records + ledger) "
                         "as JSON lines instead of listing")
    records.add_argument("--output", "-o",
                         help="write the export here (default: stdout)")
    records.add_argument("--import", dest="import_file", metavar="FILE",
                         help="restore a JSONL export into this (empty) "
                         "registry — the schema-migration path")
    records.set_defaults(handler=cmd_records)

    trace = sub.add_parser(
        "trace",
        help="trace a leaked copy against every registry-issued copy")
    trace.add_argument("--profile", default="bibliography",
                       choices=sorted(PROFILES))
    trace.add_argument("--scheme", dest="scheme_file",
                       help="declarative scheme.json deployment artefact")
    trace.add_argument("--input", "-i", required=True,
                       help="the suspected leaked document")
    trace.add_argument("--registry", metavar="PATH.DB", required=True)
    trace.add_argument("--key", "-k", required=True,
                       help="the owner's master secret key")
    trace.add_argument("--shape", help="the copy's current organisation")
    trace.add_argument("--strategy", default="auto",
                       choices=["auto", "indexed", "scan"])
    trace.add_argument("--alpha", type=float, default=1e-3)
    trace.add_argument("--recipients", nargs="+",
                       help="restrict the sweep to these recipients")
    trace.add_argument("--result",
                       help="save the wmxml-trace-v1 verdict here")
    trace.set_defaults(handler=cmd_trace)

    ledger = sub.add_parser(
        "ledger", help="provenance-ledger operations")
    ledger_sub = ledger.add_subparsers(dest="ledger_command",
                                       required=True)
    verify = ledger_sub.add_parser(
        "verify", help="re-verify the whole hash chain")
    verify.add_argument("--registry", metavar="PATH.DB", required=True)
    verify.add_argument("--key", "-k",
                        help="the system key; verifies the HMAC seals "
                        "too (omit for hash-links-only verification)")
    verify.set_defaults(handler=cmd_ledger)
    recover = ledger_sub.add_parser(
        "recover",
        help="quarantine torn trailing appends after a crash")
    recover.add_argument("--registry", metavar="PATH.DB", required=True)
    recover.add_argument("--key", "-k",
                         help="the system key; recovered blocks are "
                         "seal-verified too when given")
    recover.set_defaults(handler=cmd_ledger_recover)

    faults = sub.add_parser(
        "faults",
        help="list the deterministic fault-injection points")
    faults.set_defaults(handler=cmd_faults)

    perf = sub.add_parser("perf", help="stage-timed pipeline profile")
    perf.add_argument("--profile", default="bibliography",
                      choices=sorted(PROFILES))
    perf.add_argument("--scheme", dest="scheme_file",
                      help="declarative scheme.json deployment artefact")
    perf.add_argument("--size", type=int, default=200)
    perf.add_argument("--seed", type=int, default=42)
    perf.add_argument("--gamma", type=int, default=2)
    perf.add_argument("--key", "-k", default="wmxml-perf-key")
    perf.add_argument("--message", "-m", default="(c) WmXML")
    perf.set_defaults(handler=cmd_perf)

    experiment = sub.add_parser("experiment",
                                help="run an E1-E10 experiment")
    experiment.add_argument("id", choices=sorted(EXPERIMENTS) + ["all"])
    experiment.add_argument("--size", type=int, default=120,
                            help="dataset size (books)")
    experiment.add_argument("--seed", type=int, default=42)
    experiment.add_argument("--csv", help="also write the table as CSV")
    experiment.set_defaults(handler=cmd_experiment)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    """Entry point for the ``wmxml`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
