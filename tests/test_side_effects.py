"""Each side effect has one owner: no module of eyedx makes another's kind."""

import ast
from pathlib import Path

import eyedx

SRC = Path(eyedx.__file__).parent
# each kind of side effect and the modules that own it
OWNERS = {
    "file": {"files.py"},  # creating a file or a directory
    "process": {"shards.py"},  # starting or ending threads and processes
    "environment": {"shards.py"},
    "print": {"cli.py", "__main__.py"},
}
# a forked decode shard writes its reply to its pipe's write end
ALLOWED = {("shards.py", "open(write, 'wb')")}

# the names that make each kind: an attribute goes by its own name and, read
# off a plain name, by the dotted pair, so os.replace is one and str.replace not
KINDS = {
    "file": {"mkdir", "makedirs", "touch", "write_text", "write_bytes", "rename", "os.replace"},
    "process": {"threading", "concurrent", "multiprocessing", "subprocess", "os.fork",
                "end_shard_threads"},
    "environment": {"os.environ", "os.getenv"},
    "print": {"print"},
}


def _names(node) -> set:
    """The names node goes by: a name's own; an attribute's, as above; the
    top-level modules an import names, and the names it takes from one."""
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr} | ({f"{node.value.id}.{node.attr}"} if isinstance(node.value, ast.Name)
                              else set())
    if isinstance(node, ast.Import):
        return {alias.name.split(".")[0] for alias in node.names}
    if isinstance(node, ast.ImportFrom):
        return {(node.module or "").split(".")[0]} | {alias.name for alias in node.names}
    return set()


def _opens_to_write(call) -> bool:
    """Whether call, open(file, mode) or a path's open(mode), not os.open,
    opens a file with a literal mode that writes."""
    if "open" not in _names(call.func) or "os.open" in _names(call.func):
        return False
    modes = call.args[isinstance(call.func, ast.Name):]
    mode = modes[0] if modes else next((k.value for k in call.keywords if k.arg == "mode"), None)
    return isinstance(mode, ast.Constant) and any(c in str(mode.value) for c in "wxa+")


def side_effects(tree):
    """(line, kind, code) of each name in tree that makes a side effect of a
    kind, and of each open that writes."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _opens_to_write(node):
            yield node.lineno, "file", ast.unparse(node)
        for kind, names in KINDS.items():
            if _names(node) & names:
                yield node.lineno, kind, ast.unparse(node)


def test_each_side_effect_stays_in_its_owner_module():
    found = [f"{path.name}:{line}: {kind}: {code}"
             for path in sorted(SRC.glob("*.py"))
             for line, kind, code in side_effects(ast.parse(path.read_text(), str(path)))
             if path.name not in OWNERS[kind] and (path.name, code) not in ALLOWED]
    assert found == []


def test_the_check_sees_each_kind_of_side_effect():
    source = (
        "import threading\n"
        "from concurrent.futures import ThreadPoolExecutor\n"
        "from .shards import end_shard_threads, threaded\n"
        "def run(path, text):\n"
        "    path.parent.mkdir(parents=True)\n"
        "    os.makedirs(path)\n"
        "    path.write_bytes(b'')\n"
        "    os.replace(path, path)\n"
        "    open(path, 'w'), open(path, mode='ab'), path.open('x')\n"
        "    open(path), open(path, 'rb'), os.open(path, os.O_RDONLY), text.replace('a', 'b')\n"
        "    pid = os.fork()\n"
        "    end_shard_threads()\n"
        "    print(os.environ['HOME'])\n"
        "    threaded(path)\n"
    )
    assert sorted((line, kind) for line, kind, _ in side_effects(ast.parse(source))) == [
        (1, "process"), (2, "process"), (3, "process"),
        (5, "file"), (6, "file"), (7, "file"), (8, "file"), (9, "file"), (9, "file"),
        (9, "file"), (11, "process"), (12, "process"), (13, "environment"), (13, "print"),
    ]


# the names that read the file system, which only files.py calls, and the one
# read elsewhere: a decode shard's reply, read from its pipe
READS = {"read_text", "read_bytes", "exists", "is_dir", "is_file"}
READS_ALLOWED = {("shards.py", "open(read, 'rb')")}


def _opens_to_read(call) -> bool:
    """Whether call, open(file, ...) or a path's open(...), not os.open,
    opens a file without a literal mode that writes."""
    return ("open" in _names(call.func) and "os.open" not in _names(call.func)
            and not _opens_to_write(call))


def reads(tree):
    """(line, code) of each name in tree that reads the file system, and of
    each open that does not write."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and _opens_to_read(node)) or _names(node) & READS:
            yield node.lineno, ast.unparse(node)


def test_only_files_reads_the_file_system():
    found = [f"{path.name}:{line}: {code}"
             for path in sorted(SRC.glob("*.py")) if path.name != "files.py"
             for line, code in reads(ast.parse(path.read_text(), str(path)))
             if (path.name, code) not in READS_ALLOWED]
    assert found == []


def test_the_read_check_sees_each_way_to_read():
    source = (
        "from os.path import exists\n"
        "def run(path, files):\n"
        "    path.read_text(), path.read_bytes()\n"
        "    path.exists(), os.path.exists(path), path.is_dir(), path.is_file()\n"
        "    open(path), open(path, 'rb'), open(path, mode='r'), path.open()\n"
        "    open(path, 'w'), path.open('ab'), os.open(path, os.O_RDONLY)\n"
        "    files.input_text(path), files.input_bytes(path), path.read()\n"
    )
    assert sorted(line for line, _ in reads(ast.parse(source))) == [1, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5]
