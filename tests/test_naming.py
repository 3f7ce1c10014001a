"""Static check: telemetry names in ``src/`` follow the dotted scheme.

Every literal name passed to ``telemetry.span(...)``, ``count(...)``,
``event(...)``, ``counter(...)``, ``gauge(...)``, or ``histogram(...)``
— on a receiver named ``telemetry``, ``tel``, or ``registry`` — must
match the ``layer.verb`` convention: lowercase dotted segments of
``[a-z0-9_]``, at least two segments deep (``solver.cache.hits``,
``parallel.queue_wait_seconds``).  A flat name renders unusably in
``repro stats`` groupings, so the convention is enforced here rather
than in review.
"""

import ast
import pathlib
import re

SRC = pathlib.Path(__file__).parent.parent / "src"

#: receivers whose telemetry-ish methods we check (module or registry)
RECEIVERS = {"telemetry", "tel", "registry"}
METHODS = {"span", "count", "event", "counter", "gauge", "histogram"}
NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+)+$")


def _literal_metric_calls(tree):
    """(method, name-literal, lineno) for every checked call site."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not (isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id in RECEIVERS
                and func.attr in METHODS):
            continue
        if not node.args:
            continue
        first = node.args[0]
        if isinstance(first, ast.Constant) and isinstance(first.value,
                                                          str):
            yield func.attr, first.value, node.lineno


def test_all_telemetry_names_are_dotted():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for method, name, lineno in _literal_metric_calls(tree):
            if not NAME_RE.match(name):
                offenders.append(
                    f"{path.relative_to(SRC)}:{lineno}: "
                    f"{method}({name!r})")
    assert not offenders, (
        "telemetry names must be dotted layer.verb identifiers:\n  "
        + "\n  ".join(offenders))


def test_the_checker_sees_real_call_sites():
    """Guard against the AST walk silently matching nothing."""
    found = 0
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += sum(1 for _ in _literal_metric_calls(tree))
    assert found > 50, f"only {found} telemetry call sites found"


def test_the_pattern_rejects_flat_and_uppercase_names():
    assert NAME_RE.match("solver.cache.hits")
    assert NAME_RE.match("parallel.queue_wait_seconds")
    assert not NAME_RE.match("reconstruct")        # flat
    assert not NAME_RE.match("Solver.hits")        # uppercase
    assert not NAME_RE.match("solver.")            # dangling dot
    assert not NAME_RE.match("solver..hits")       # empty segment
