import pytest

# pytest rewrites the asserts of test modules only; the shared checks in
# helpers are registered too, so that they still run under ``python -O``
pytest.register_assert_rewrite("helpers")
