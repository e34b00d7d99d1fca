import pytest


@pytest.fixture
def count_calls(monkeypatch):
    """Wrap each (module, name) in ``targets`` with a counter keyed by name
    and return the counters."""

    def wrap(targets):
        calls = {}
        for module, name in targets:
            calls[name] = 0

            def counted(*args, _f=getattr(module, name), _name=name):
                calls[_name] += 1
                return _f(*args)

            monkeypatch.setattr(module, name, counted)
        return calls

    return wrap
