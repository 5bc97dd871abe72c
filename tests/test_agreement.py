"""One input contract: every file command rejects a bad file with the same exit code and message.

`stream2` and `stream4` check a file through the engine, and `schedule`,
`oracle` and the file-backed samplers through `fileio.read_instance`;
both routes run `sketch.DepthColumns`.  Each command runs in process.
The message must agree after its ``path[:line]: `` prefix.  The one
allowed difference: a stream mode prints an error that has no row (a
gap in the ids, an empty file) without the path, where the file
commands name it.
"""

import json
import re

import pytest

from schedsketch.cli import main

BAD_FILES = {
    "gap": "J 1 1\nJ 3 1\n",
    "gap and an arc end outside 1..n": "J 1 1\nJ 3 1\nA 1 3\n",
    "duplicate": "J 1 1\nJ 2 1\nJ 1 2\nA 1 2\n",
    "duplicate before a malformed line": "J 1 1\nJ 1 2\nJ 2 x\n",
    "arc end outside 1..n": "J 1 1\nJ 2 1\nA 1 2\nA 2 7\n",
    "arcs with no jobs": "# sched-stream v1\nA 1 2\nA 2 3\n",
    "late arc": "J 1 1\nJ 2 1\nJ 3 1\nA 1 2\nA 3 1\n",
    "self-loop": "J 1 1\nJ 2 1\nA 1 1\n",
    "malformed line": "J 1 1\nJ 2 x\n",
    "late arc before a malformed line": "J 1 1\nJ 2 1\nJ 3 1\nA 1 2\nA 3 1\nA 2 x\n",
    "self-loop on a source": "J 1 1\nJ 2 1\nA 1 2\nA 1 1\n",
    "empty": "# sched-stream v1\n",
    "byte that is no UTF-8": b"J 1 1\nJ 2 \xff\n",
}

STREAM_CMDS = ("stream2", "stream4")


def _argv(cmd: str, path: str, jobs: int, tmp_path) -> list[str]:
    if cmd == "stream2":
        return ["stream2", "--epsilon", "0.3", "--m", "1", "--in", path]
    if cmd == "stream4":
        return ["stream4", "--epsilon", "0.3", "--m", "1", "--n", str(max(jobs, 1)), "--in", path]
    if cmd == "schedule":
        sks = tmp_path / "r.json"
        sks.write_text(json.dumps({"algorithm": "stream2", "sks": [10, 20, 30]}))
        return ["schedule", "--sks", str(sks), "--in", path, "--m", "1", "--out", str(tmp_path / "s.csv")]
    if cmd == "oracle":
        return ["oracle", "list", "--in", path, "--m", "1"]
    return ["sample1", "--epsilon", "0.3", "--m", "1", "--c", "1", "--h", "1", "--in", path]


@pytest.mark.parametrize("name", sorted(BAD_FILES))
def test_every_file_command_gives_one_error(name, tmp_path, capsys):
    path = tmp_path / "bad.txt"
    text = BAD_FILES[name]
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    jobs = path.read_bytes().count(b"J ")
    form = re.compile(rf"error: (?:(?P<path>{re.escape(str(path))})(?::(?P<line>\d+))?: )?(?P<message>.*)\n")
    seen = {}
    for cmd in STREAM_CMDS + ("schedule", "oracle", "sample1"):
        rc = main(_argv(cmd, str(path), jobs, tmp_path))
        err = capsys.readouterr().err
        match = form.fullmatch(err)
        assert match, (cmd, err)
        seen[cmd] = (rc, match["path"] is not None, match["line"], match["message"])
    want = seen["schedule"]
    assert want[:2] == (3, True), seen
    for cmd, got in seen.items():
        if cmd in STREAM_CMDS and not got[1] and want[2] is None:  # an error without a row
            got = (got[0], True) + got[2:]
        assert got == want, (cmd, seen)
