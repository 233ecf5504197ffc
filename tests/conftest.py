import json

import pytest

from polaraut import cli


@pytest.fixture(autouse=True)
def _reports_written_as_json_writes_them(monkeypatch):
    """Every JSON report a test makes through the CLI must be what
    json.dumps(obj, indent=2) writes, byte for byte."""
    dump = cli._dump

    def checked(obj, out_path):
        assert cli._dumps(obj) == json.dumps(obj, indent=2)
        dump(obj, out_path)

    monkeypatch.setattr(cli, "_dump", checked)
