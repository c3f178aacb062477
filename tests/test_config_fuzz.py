"""Config fuzzer: no configuration makes the command line crash.

Each example perturbs one or two leaves of the default experiment, float
leaves to extremes, and runs a subcommand on it with --runs 1 and 4 steps
in a child process whose address space is capped at 2 GiB.  The exit code
must be 0, 2 naming a config path, or 3 for a numerical failure (out of
memory included); a traceback exit 1 or a timeout fails.

Budget: each child takes about 0.4 s, so the 40 drawn examples and the
pinned ones add about 20 s to the suite, and at most 30 s.  Integer leaves
stay within -2..12, which keeps every run well inside the child timeout.
"""

import copy
import json
import re

from hypothesis import example, given, settings
from hypothesis import strategies as st

from possfuse.config import default_experiment, serialize_experiment
from support import FLOAT_EXTREMES, run_cli

DEFAULT = serialize_experiment(default_experiment())
# Every run is short: 4 steps, the target alive throughout.
BASE = {"scenario": {"steps": 4, "death_step": 4}}
COMMANDS = ("single", "fuse-independent", "fuse-dependent")
STRATEGIES = ("min-trace", "fixed(0.0)", "fixed(1.0)", "fixed(0.37)", "fixed(2)", "max-trace")
MEMORY_CAP = 2 * 2**30


def _leaves(node, path=()):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, (*path, key))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _leaves(value, (*path, i))
    else:
        yield path, node


# --runs and --out override these two, so perturbing them tests nothing.
LEAVES = {path: value for path, value in _leaves(DEFAULT) if path[0] not in ("runs", "output_dir")}


def _values(path):
    value = LEAVES[path]
    if isinstance(value, str):
        return st.sampled_from(STRATEGIES)
    if isinstance(value, int):
        return st.integers(-2, 12)
    # Floats, and pos_var, whose default is null.
    return st.sampled_from(FLOAT_EXTREMES)


@st.composite
def perturbations(draw):
    paths = draw(st.lists(st.sampled_from(sorted(LEAVES, key=str)), min_size=1, max_size=2, unique=True))
    return draw(st.sampled_from(COMMANDS)), {path: draw(_values(path)) for path in paths}


def _config(changes: dict) -> dict:
    """BASE with each changed leaf set; a list is copied whole from the
    default before one of its entries changes."""
    cfg = copy.deepcopy(BASE)
    for path, value in changes.items():
        node, default = cfg, DEFAULT
        for key in path[:-1]:
            if isinstance(node, dict) and key not in node:
                node[key] = copy.deepcopy(default[key]) if isinstance(default[key], list) else {}
            node, default = node[key], default[key]
        node[path[-1]] = value
    return cfg


def _is_config_path(name: str) -> bool:
    node = DEFAULT
    for key in re.findall(r"[^.\[\]]+", name):
        if isinstance(node, list) and key.isdigit() and int(key) < len(node):
            node = node[int(key)]
        elif isinstance(node, dict) and key in node:
            node = node[key]
        else:
            return False
    return True


CLUTTER = ("scenario", "sensors", 0, "clutter_rate")


@given(perturbations())
# A valid clutter rate whose scan would take terabytes: out of memory, exit 3.
@example(("single", {CLUTTER: 1e12}))
@example(("fuse-independent", {CLUTTER: 1e12}))
@settings(max_examples=40, deadline=None)
def test_any_config_exits_0_2_or_3(tmp_path_factory, case):
    command, changes = case
    work = tmp_path_factory.mktemp("fuzz")
    path = work / "exp.json"
    path.write_text(json.dumps(_config(changes)))
    child = run_cli(
        ["-m", "possfuse.cli", command, "--config", str(path), "--runs", "1", "--out", str(work / "out")],
        env={"POSSFUSE_THREADS": "1"},
        memory_bytes=MEMORY_CAP,
        timeout=60.0,
    )
    assert child.returncode in (0, 2, 3), child.stderr
    if child.returncode == 2:
        named = re.match(r"configuration error: ([^:]+): ", child.stderr)
        assert named and _is_config_path(named.group(1)), child.stderr
    if changes == {CLUTTER: 1e12}:
        assert child.returncode == 3
        assert "numerical failure in run 0 at step 0: Unable to allocate" in child.stderr
