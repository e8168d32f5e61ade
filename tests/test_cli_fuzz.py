"""Fuzz the mova CLI with malformed input files and extreme flag values.

Each file example corrupts one file that a command reads (experts.json,
toy.json, a JSONL file, a parameter manifest or a MOVT tensor); each flag
example gives one numeric flag NaN, an infinity, a negative, zero or a huge
value. Both call `cli.main` in-process. Whatever the input, the exit code must
be 0, 1 or 2, no exception may escape, a failure prints one `error:` line that
is not an internal error, and a success prints strict JSON (no NaN or Infinity). Fuzzed numbers stay small
where a valid one sets the amount of work, so no example trains for more than
3 steps or allocates a large feature map.
"""

import contextlib
import copy
import hashlib
import io
import json
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mova.adapter.config import desk_config
from mova.adapter.params import init_params, save_params
from mova.experts import default_registry, save_registry
from mova.harness.cli import main
from mova.routing_data import build_annotations, generate_synthetic_corpus

FUZZ = settings(max_examples=60, deadline=None, derandomize=True)

LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 2),
    st.floats(-3, 3) | st.sampled_from([float("nan"), float("inf"), 1.5]),
    st.text(max_size=4) | st.sampled_from(["dinov2", "../outside.movt", "/", ".."]),
)
JSON_VALUES = st.recursive(
    LEAVES,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=6,
)


def strict_json(text):
    def reject(constant):
        raise ValueError(f"non-strict JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


def run_main(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def assert_contract(code, out, err, report=None):
    assert code in (0, 1, 2), (code, err)
    assert "Traceback" not in err
    if code == 0:
        strict_json(out)
        if report is not None and report.exists():
            strict_json(report.read_text())
    else:
        assert out == ""
        assert len([line for line in err.splitlines() if line.startswith("error:")]) == 1, err
        assert "error: internal error:" not in err  # every drawn input is a handled error


def node_paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield from node_paths(child, prefix + (key,))


@st.composite
def mutated_json(draw, doc, keep=()):
    """`doc` with one node replaced by a small JSON value or removed (not those in `keep`)."""
    path = draw(st.sampled_from(list(node_paths(doc))))
    value = draw(JSON_VALUES)
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if draw(st.booleans()) and path not in keep:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


@st.composite
def mutated_text(draw, text, insert=True):
    """`text` cut short, or (with `insert`) with a few random bytes spliced in."""
    raw = text.encode()
    pos = draw(st.integers(0, len(raw)))
    if not insert or draw(st.booleans()):
        return raw[:pos]
    return raw[:pos] + draw(st.binary(min_size=1, max_size=8)) + raw[pos:]


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """A valid workspace: registry, 4-sample corpus with annotations, toy.json, params."""
    root = tmp_path_factory.mktemp("fuzz")
    registry = default_registry()
    save_registry(registry, root / "experts.json")
    generate_synthetic_corpus(registry, 4, seed=1, out_dir=root / "corpus")
    build_annotations(root / "corpus" / "losses.jsonl", registry, 3, root / "corpus" / "routing.jsonl")
    toy = {
        "corpus": "corpus", "experts": "experts.json", "steps": 2, "learning_rate": 0.1,
        "batch_size": 2, "seed": 1, "scope": "full-adapter", "selection": None,
        "eval_samples": 2, "cap": 3, "gradcheck_entries": 2, "gradcheck_eps": 1e-5,
        "gradcheck_tol": 1e-4, "adapter": asdict(desk_config()),
    }
    (root / "toy.json").write_text(json.dumps(toy))
    save_params(init_params(desk_config(), registry), root / "params")
    return root


@contextlib.contextmanager
def replaced(path, content):
    """`path` holds `content` for one example, then its original bytes again."""
    original = path.read_bytes()
    path.write_bytes(content)
    try:
        yield
    finally:
        path.write_bytes(original)


def fuse(base, *extra):
    return ("fuse", "--question", "q", "--strategy", "all", "--out", base / "t.movt", *extra)


@FUZZ
@given(data=st.data())
def test_malformed_registry(base, data):
    doc = json.loads((base / "experts.json").read_text())
    # No spliced bytes: a digit added to an extent could ask for a huge feature map.
    content = data.draw(st.one_of(
        mutated_json(doc).map(lambda d: json.dumps(d).encode()),
        mutated_text(json.dumps(doc), insert=False),
    ))
    with replaced(base / "experts.json", content):
        assert_contract(*run_main(*fuse(base, "--experts", base / "experts.json")))


@FUZZ
@given(data=st.data())
def test_malformed_toy_config(base, data):
    doc = json.loads((base / "toy.json").read_text())
    # Without these keys the defaults (500 steps, 32 probed entries) would apply.
    keep = (("steps",), ("gradcheck_entries",))
    content = data.draw(st.one_of(
        mutated_json(doc, keep).map(lambda d: json.dumps(d).encode()),
        mutated_text(json.dumps(doc), insert=False),
    ))
    report = base / "report.json"
    report.unlink(missing_ok=True)
    with replaced(base / "toy.json", content):
        result = run_main("train-toy", "--config", base / "toy.json", "--report", report)
    assert_contract(*result, report=report)


@FUZZ
@given(data=st.data())
def test_malformed_jsonl(base, data):
    name = data.draw(st.sampled_from(["samples.jsonl", "losses.jsonl", "routing.jsonl"]))
    text = (base / "corpus" / name).read_text()
    lines = text.splitlines()
    row = data.draw(st.integers(0, len(lines) - 1))
    line = data.draw(st.one_of(
        mutated_json(json.loads(lines[row])).map(lambda d: json.dumps(d).encode()),
        st.binary(max_size=8),
    ))
    encoded = [l.encode() for l in lines]
    content = data.draw(st.one_of(
        st.just(b"\n".join(encoded[:row] + [line] + encoded[row + 1:])),
        mutated_text(text),
    ))
    if name == "routing.jsonl":
        argv = ("route", "--question", "q", "--strategy", "annotation",
                "--annotations", base / "corpus" / name, "--sample-id", "s00000")
    else:
        argv = ("train-toy", "--config", base / "toy.json")
    with replaced(base / "corpus" / name, content):
        assert_contract(*run_main(*argv))


@FUZZ
@given(data=st.data())
def test_malformed_manifest(base, data):
    doc = json.loads((base / "params" / "manifest.json").read_text())
    content = data.draw(st.one_of(
        mutated_json(doc).map(lambda d: json.dumps(d).encode()),
        mutated_text(json.dumps(doc)),
    ))
    with replaced(base / "params" / "manifest.json", content):
        assert_contract(*run_main(*fuse(base, "--params", base / "params")))


@FUZZ
@given(data=st.data())
def test_malformed_movt(base, data):
    raw = (base / "params" / "params.movt").read_bytes()
    # Favour the 6-byte preamble and the extents that follow it.
    pos = data.draw(st.integers(0, 24) | st.integers(0, len(raw)))
    junk = data.draw(st.binary(min_size=1, max_size=8))
    content = data.draw(st.sampled_from([
        raw[:pos],
        raw[:pos] + junk + raw[pos + len(junk):],
        raw[:pos] + junk + raw[pos:],
    ]))
    # The manifest records the fuzzed file's digest, so the MOVT reader, not the digest check, meets it.
    manifest = json.loads((base / "params" / "manifest.json").read_text())
    manifest["sha256"] = hashlib.sha256(content).hexdigest()
    digested = json.dumps(manifest).encode()
    with replaced(base / "params" / "params.movt", content), replaced(base / "params" / "manifest.json", digested):
        assert_contract(*run_main(*fuse(base, "--params", base / "params")))


# Flag values as typed on a command line. Integer flags reject the float spellings.
EXTREMES = ("nan", "inf", "-inf", "-1", "-1e308", "0", "-0.0", "0.5", "1e-320")
HUGE = ("1e308", "1e300", str(2**63), "1" + "0" * 40)


def flag_values(huge):
    """Extreme values, plus (with `huge`) values too large for any count or seed."""
    if huge:
        return st.sampled_from(EXTREMES + HUGE) | st.integers(-(10**40), 10**40).map(str) | st.floats().map(str)
    return st.sampled_from(EXTREMES) | st.integers(-(10**40), 3).map(str) | st.floats(max_value=3).map(str)


def is_positive(text):
    try:
        return 0 < float(text) < float("inf")
    except ValueError:
        return False


def flag_command(base, command):
    """A valid, small command line; the fuzzed flag is appended and overrides its default."""
    corpus = base / "corpus"
    return {
        "route": ("route", "--question", "q", "--strategy", "random"),
        "build-routing-data": ("build-routing-data", "--losses", corpus / "losses.jsonl",
                               "--out", base / "r.jsonl"),
        "fuse": fuse(base, "--strategy", "random"),
        "gen-synthetic": ("gen-synthetic", "--samples", 3, "--out", base / "out"),
        "ablate": ("ablate", "--modes", "dynamic", "--corpus", corpus, "--steps", 1, "--batch-size", 2,
                   "--eval-samples", 2),
        "gradcheck": ("gradcheck",),
    }[command]


# (command, flag, whether huge values are drawn). Huge values of --samples and
# --steps are left out: a --samples past 2**20 is refused, but a valid count near
# it still generates for hours, and any large --steps trains for hours. So is a
# gradcheck whose --eps and --tol are both valid, which runs the full audit (see below).
NUMERIC_FLAGS = [
    ("route", "--cap", True),
    ("route", "--seed", True),
    ("build-routing-data", "--cap", True),
    ("fuse", "--cap", True),
    ("fuse", "--seed", True),
    ("fuse", "--image-seed", True),
    ("gen-synthetic", "--samples", False),
    ("gen-synthetic", "--seed", True),
    ("gen-synthetic", "--noise", True),
    ("gen-synthetic", "--answer-dim", True),
    ("ablate", "--steps", False),
    ("ablate", "--lr", True),
    ("ablate", "--batch-size", True),
    ("ablate", "--eval-samples", True),
    ("ablate", "--seed", True),
    ("ablate", "fixed-K:<k>", True),
    ("gradcheck", "--eps", True),
    ("gradcheck", "--tol", True),
]


@settings(max_examples=12, deadline=None, derandomize=True)
@pytest.mark.parametrize(
    ("command", "flag", "huge"), NUMERIC_FLAGS, ids=[f"{c} {f}" for c, f, _ in NUMERIC_FLAGS]
)
@given(data=st.data())
def test_numeric_flag(base, command, flag, huge, data):
    values = flag_values(huge)
    if command == "gradcheck":
        # The other flag keeps its valid default, so this one must not be valid too.
        values = values.filter(lambda v: not is_positive(v))
    value = data.draw(values)
    # "--flag=value", since argparse reads "-1e308" or "-inf" after a space as an option.
    extra = f"--modes=fixed-K:{value}" if flag == "fixed-K:<k>" else f"{flag}={value}"
    assert_contract(*run_main(*flag_command(base, command), extra))
