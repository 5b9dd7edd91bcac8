"""No public function exists only for its tests (ROADMAP aim 2).

Every public module-level function, public class and public method of
``src/tlanet`` must be read as an identifier (a name or an attribute)
somewhere in ``src/tlanet`` or ``bench/`` outside its own definition.
Strings, ``__all__`` and docstrings hold no identifiers, so they do not
count. The match is by name only, so a method is used once any attribute
of that name is read.
"""

import ast
import collections
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "tlanet").glob("*.py"))
READERS = SOURCES + sorted((ROOT / "bench").rglob("*.py"))

# public names that nothing in src/tlanet or bench/ reads, each with the reason it stays
ALLOWED = {
    "save_dataset_cache": "the README documents it as the producer of TLAD caches",
    "stratified_split": "ROADMAP item 5 decides its fate",
    "pair_loss": "criterion 8's reference for the skip-gram objective",
    "cosine": "criterion 8's reference for embedding similarity",
    "synthetic_examples": "the generator that the bundled synthetic CSV files are checked against",
    "Vocabulary.decode": "the inverse of encode, to read an id matrix back as tokens",
    "Tensor.zeros": "the zero-filled constructor of the tensor type",
    "Tensor.grad_array": "the gradient viewed at the tensor's shape, as array views the values",
}


def identifiers(node) -> collections.Counter:
    out = collections.Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            out[n.attr] += 1
    return out


def public_definitions():
    """(qualified name, definition node) of every public function, class and method."""
    for path in SOURCES:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_"):
                yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item


def test_every_public_name_is_read_outside_its_definition():
    reads = collections.Counter()
    for path in READERS:
        reads += identifiers(ast.parse(path.read_text(encoding="utf-8")))
    unread = set()
    for qualified, node in public_definitions():
        name = qualified.rpartition(".")[2]
        if reads[name] - identifiers(node)[name] <= 0:
            unread.add(qualified)
    unexplained = sorted(unread - set(ALLOWED))
    assert not unexplained, f"public names nothing in src/tlanet or bench/ reads: {unexplained}"


def test_allowlist_names_public_definitions_with_reasons():
    defined = {qualified for qualified, _ in public_definitions()}
    assert set(ALLOWED) <= defined
    assert all(reason.strip() for reason in ALLOWED.values())
