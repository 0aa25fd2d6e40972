"""Execute every ``python`` code block of the documentation.

The docs promise runnable snippets; this test holds them to it.  Blocks of
one document run in order in one shared namespace (so a page can build on
its earlier snippets), with the working directory pointed at a temp dir so
snippets may write relative paths like ``cache.sqlite`` freely.

Fenced blocks tagged anything other than ``python`` (``bash``, ``text``,
diagrams) are ignored.  A pipeline a snippet registers is unregistered once
its document has run, so later tests see the shipped registry.
"""

import os
import re

import pytest

from helpers import SHIPPED_PIPELINES  # also puts src/ on sys.path

from repro.passes import pipeline_names, unregister_pipeline

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))

#: Every document whose python snippets must execute (the acceptance list).
DOCUMENTS = [
    "README.md",
    "docs/architecture.md",
    "docs/api.md",
    "docs/pipelines.md",
    "docs/serving.md",
    "docs/observability.md",
    "docs/fuzzing.md",
    "docs/performance.md",
]

_FENCE = re.compile(r"^```(\w*)\s*$")


def extract_python_blocks(path):
    """Yield ``(first_line_number, source)`` for every python fence."""
    blocks = []
    language = None
    buffer = []
    start = 0
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            match = _FENCE.match(line.strip())
            if match and language is None:
                language = match.group(1) or "text"
                buffer = []
                start = number + 1
            elif line.strip() == "```" and language is not None:
                if language == "python":
                    blocks.append((start, "".join(buffer)))
                language = None
            elif language is not None:
                buffer.append(line)
    assert language is None, f"unterminated code fence in {path}"
    return blocks


def test_every_document_exists():
    for document in DOCUMENTS:
        assert os.path.isfile(os.path.join(REPO_ROOT, document)), document


def test_documents_are_cross_linked():
    with open(os.path.join(REPO_ROOT, "README.md"), encoding="utf-8") as handle:
        readme = handle.read()
    for document in DOCUMENTS[1:]:
        assert document.split("/", 1)[1] in readme, \
            f"README.md does not link {document}"


@pytest.fixture
def pipelines_left_as_found():
    """Unregister every pipeline registered while the test ran."""
    before = set(pipeline_names())
    yield
    for name in set(pipeline_names()) - before:
        unregister_pipeline(name)


@pytest.mark.parametrize("document", DOCUMENTS)
def test_documentation_snippets_execute(document, tmp_path, monkeypatch,
                                        pipelines_left_as_found):
    path = os.path.join(REPO_ROOT, document)
    blocks = extract_python_blocks(path)
    monkeypatch.chdir(tmp_path)  # snippets may write relative paths
    namespace = {"__name__": f"docs_{os.path.basename(document)}"}
    for line_number, source in blocks:
        code = compile(source, f"{document}:{line_number}", "exec")
        exec(code, namespace)  # noqa: S102 - the whole point of the test


def test_the_snippets_leave_the_shipped_pipelines():
    """Runs after every document's snippets (``docs/pipelines.md``
    registers ``docs-demo``): the registry is the shipped one again."""
    assert pipeline_names() == SHIPPED_PIPELINES
