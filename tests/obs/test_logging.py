"""The shared stderr diagnostic logger behind --log-level/--quiet."""

import io
import json
import logging

from repro.obs.logging import (
    LOG_LEVELS,
    LOGGER_NAME,
    get_logger,
    setup_logging,
)


def teardown_function(_fn):
    # Tests configure the shared logger; leave it library-silent again.
    root = logging.getLogger(LOGGER_NAME)
    for handler in list(root.handlers):
        root.removeHandler(handler)
    root.addHandler(logging.NullHandler())


class TestGetLogger:
    def test_names_are_namespaced(self):
        assert get_logger("repro.perf.parallel").name == "repro.perf.parallel"
        assert get_logger("custom").name == "repro.custom"

    def test_silent_by_default(self):
        # A library import must not print; the NullHandler swallows
        # records and propagation to the root logger is not relied on.
        log = get_logger("quiet_module")
        log.error("nobody should see this")  # must not raise or warn


class TestSetupLogging:
    def test_levels(self):
        stream = io.StringIO()
        setup_logging(level="warning", stream=stream)
        log = get_logger("t")
        log.info("hidden")
        log.warning("shown")
        out = stream.getvalue()
        assert "hidden" not in out
        assert "WARNING repro.t: shown" in out

    def test_quiet_overrides_level(self):
        stream = io.StringIO()
        setup_logging(level="debug", quiet=True, stream=stream)
        log = get_logger("t")
        log.warning("hidden")
        log.error("shown")
        out = stream.getvalue()
        assert "hidden" not in out and "shown" in out

    def test_json_lines(self):
        stream = io.StringIO()
        setup_logging(json_lines=True, stream=stream)
        get_logger("t").info("structured %s", "message")
        record = json.loads(stream.getvalue())
        assert record["level"] == "info"
        assert record["logger"] == "repro.t"
        assert record["message"] == "structured message"
        assert "ts" in record

    def test_idempotent(self):
        stream = io.StringIO()
        setup_logging(stream=stream)
        setup_logging(stream=stream)  # second call must not duplicate
        get_logger("t").info("once")
        assert stream.getvalue().count("once") == 1

    def test_all_declared_levels_accepted(self):
        for level in LOG_LEVELS:
            setup_logging(level=level, stream=io.StringIO())
