# lint-fixture: src/repro/service/fixture_schemas.py
"""Good REP004 fixture: constants come from repro.core.schemas.

Docstrings may *mention* a schema like ``sweep-spec/v1`` freely — prose is
not a contract the store validates against.
"""

from repro.core import schemas

FORMAT = schemas.SWEEP_SPEC


def stamp(document):
    """Stamp the ``lint-report/v1`` identifier onto ``document``."""
    document["schema"] = schemas.LINT_REPORT
    url = "/v1/jobs"  # URL paths are not schema identifiers
    almost = "not/v" + "1"  # built strings are out of syntactic reach
    return document, url, almost
