# lint-fixture: src/repro/core/fixture_errors.py
"""Bad REP006 fixture: untyped failures invisible to classify_failure()."""


def runtime_checks(flag):
    assert flag, "runtime check"  # expect[REP006]
    if flag is None:
        raise Exception("boom")  # expect[REP006]
    if flag == 0:
        raise AssertionError("invariant broken")  # expect[REP006]
    raise BaseException  # expect[REP006]
