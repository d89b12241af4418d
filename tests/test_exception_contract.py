"""Exception-contract fuzz: ``except ReproError`` catches every error.

The API promises that every intentional failure derives from
:class:`~repro.exceptions.ReproError`, so a caller needs one ``except``
clause and the CLI prints one ``error:`` line and exits 2. This module
checks the promise on real calls instead of on ``raise`` statements:
hypothesis feeds malformed input to the entry points

* the four ``swope_*`` functions, :class:`~repro.core.plan.PlanExecutor`'s
  ``execute``, ``execute_one`` and four query methods,
  :func:`~repro.core.plan.run_exact_stopping`, and ``resume`` followed by
  ``execute`` — with values of the documented types: NaN, infinite or
  negative thresholds, ε and p_f; k out of range; unknown, empty or
  duplicate attributes and a bare string; negative seeds; empty and
  1-row stores and u = 1 targets;
* the files they read — checkpoint, cache partition, mmap manifest and
  plan — as arbitrary, truncated, non-JSON and non-UTF-8 bytes or one
  flipped byte, missing paths, paths holding a NUL byte, and a
  ``cache_dir`` that is a file;
* ``repro query`` (:func:`repro.cli.main`), with arbitrary strings for
  its flags.

Any exception other than a ``ReproError`` or one of the control-flow
builtins in :data:`ALLOWED_BUILTINS` fails the test, and so does an
answer naming a column the caller did not ask for. Through the CLI an
input must exit 0, or exit 2 with an ``error:`` line.
"""

from __future__ import annotations

import io
import json
import os
import shutil
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import Any, Callable

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.cli import main as cli_main
from repro.core.plan import (
    PlanExecutor,
    QuerySpec,
    load_plan,
    plan_queries,
    run_exact_stopping,
)
from repro.core.swope import (
    swope_filter_entropy,
    swope_filter_mutual_information,
    swope_top_k_entropy,
    swope_top_k_mutual_information,
)
from repro.data.column_store import ColumnStore
from repro.data.mmap_store import MANIFEST_NAME, MmapStore
from repro.exceptions import (
    CheckpointError,
    DataFormatError,
    ParameterError,
    ReproError,
    SchemaError,
)

#: The builtins an entry point may let through: control flow and the
#: abstract-seam marker, never an error a caller could provoke.
ALLOWED_BUILTINS = (
    NotImplementedError,
    StopIteration,
    StopAsyncIteration,
    KeyboardInterrupt,
    SystemExit,
    GeneratorExit,
)

_FUZZ = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Column names of the fuzzed stores. ``ab`` is also the concatenation of
#: two other names, so a bare string split into characters names columns.
COLUMNS = ("a", "b", "ab", "const", "tgt")


def _store(num_rows: int) -> ColumnStore:
    rng = np.random.default_rng(33)
    a = rng.integers(0, 3, num_rows)
    return ColumnStore(
        {
            "a": a,
            "b": rng.integers(0, 5, num_rows),
            "ab": rng.integers(0, 4, num_rows),
            "const": np.zeros(num_rows, dtype=np.int64),  # u = 1
            "tgt": np.where(rng.random(num_rows) < 0.7, a, rng.integers(0, 3, num_rows)),
        }
    )


@pytest.fixture(scope="module")
def stores(tmp_path_factory) -> dict[str, Any]:
    root = tmp_path_factory.mktemp("contract-stores")
    main = _store(300)
    one_row = _store(1)
    return {
        "main": main,
        "one_row": one_row,
        "empty": _store(0),
        "main_mmap": MmapStore.from_column_store(main, root / "main"),
        "one_row_mmap": MmapStore.from_column_store(one_row, root / "one"),
    }


def _within_contract(call: Callable[[], Any]) -> Any:
    """``call()``'s value, or ``None`` when it raised within the contract."""
    try:
        return call()
    except (ReproError, *ALLOWED_BUILTINS):
        return None


def _assert_answers_requested(result: Any, requested: Any) -> None:
    """A successful answer names only columns the caller asked for."""
    if result is None or requested is None:
        return
    names = {requested} if isinstance(requested, str) else set(requested)
    assert set(result.attributes) <= names, (
        f"asked for {requested!r}, answered {result.attributes!r}"
    )


# ----------------------------------------------------------------------
# Python API: malformed values of the documented types
# ----------------------------------------------------------------------
_floats = st.one_of(
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -1.0, 0.0, 1.0, 2.0]),
    st.floats(allow_nan=True, allow_infinity=True),
)
_names = st.sampled_from([*COLUMNS, "nope", ""])
_attributes = st.one_of(
    st.none(),
    st.lists(_names, max_size=4),  # empty, unknown and duplicate names
    _names,  # a bare string
)
_seeds = st.one_of(st.none(), st.integers(min_value=-(2**70), max_value=2**70))
_store_names = st.sampled_from(["main", "one_row", "empty", "main_mmap", "one_row_mmap"])


@st.composite
def _specs(draw) -> dict[str, Any]:
    kind = draw(st.sampled_from(["top_k", "filter"]))
    score = draw(st.sampled_from(["entropy", "mutual_information"]))
    return {
        "kind": kind,
        "score": score,
        "k": draw(st.integers(-2, 8)) if kind == "top_k" else None,
        "threshold": draw(_floats) if kind == "filter" else None,
        "epsilon": draw(st.none() | _floats),
        "target": draw(_names) if score == "mutual_information" else None,
        "attributes": draw(_attributes),
        "prune": draw(st.booleans()),
    }


def _swope(store, spec: dict[str, Any], seed, failure) -> Any:
    common = {
        "epsilon": spec["epsilon"], "failure_probability": failure, "seed": seed,
    }
    if spec["score"] == "entropy":
        if spec["kind"] == "top_k":
            return swope_top_k_entropy(
                store, spec["k"], attributes=spec["attributes"],
                prune=spec["prune"], **common,
            )
        return swope_filter_entropy(
            store, spec["threshold"], attributes=spec["attributes"], **common
        )
    if spec["kind"] == "top_k":
        return swope_top_k_mutual_information(
            store, spec["target"], spec["k"], candidates=spec["attributes"],
            prune=spec["prune"], **common,
        )
    return swope_filter_mutual_information(
        store, spec["target"], spec["threshold"], candidates=spec["attributes"],
        **common,
    )


def _method(store, spec: dict[str, Any], seed, failure) -> Any:
    executor = PlanExecutor(store, seed=seed, failure_probability=failure)
    common = {"epsilon": spec["epsilon"]}
    if spec["score"] == "entropy":
        if spec["kind"] == "top_k":
            return executor.top_k_entropy(
                spec["k"], attributes=spec["attributes"], prune=spec["prune"],
                **common,
            )
        return executor.filter_entropy(
            spec["threshold"], attributes=spec["attributes"], **common
        )
    if spec["kind"] == "top_k":
        return executor.top_k_mutual_information(
            spec["target"], spec["k"], candidates=spec["attributes"],
            prune=spec["prune"], **common,
        )
    return executor.filter_mutual_information(
        spec["target"], spec["threshold"], candidates=spec["attributes"], **common
    )


def _execute_one(store, spec: dict[str, Any], seed, failure) -> Any:
    executor = PlanExecutor(store, seed=seed, failure_probability=failure)
    return executor.execute_one(QuerySpec(**spec))


def _exact(store, spec: dict[str, Any], seed, failure) -> Any:
    return run_exact_stopping(
        store, QuerySpec(**spec), seed=seed, failure_probability=failure
    )


_ENTRY_POINTS = {
    "swope": _swope,
    "method": _method,
    "execute_one": _execute_one,
    "exact": _exact,
}


def _spec(**fields: Any) -> dict[str, Any]:
    """A well-formed entropy top-k spec with ``fields`` overridden."""
    spec = {
        "kind": "top_k", "score": "entropy", "k": 2, "threshold": None,
        "epsilon": None, "target": None, "attributes": None, "prune": True,
    }
    spec.update(fields)
    return spec


_MI = {"score": "mutual_information", "target": "tgt"}
_FILTER = {"kind": "filter", "k": None, "threshold": 0.5}


@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
@_FUZZ
@given(store_name=_store_names, spec=_specs(), seed=_seeds, failure=st.none() | _floats)
# Every case of the contract runs on every entry point, whatever the
# random draws find.
@example(store_name="main", spec=_spec(attributes=["a", "nope"]), seed=0, failure=None)
@example(store_name="main", spec=_spec(attributes="ab"), seed=0, failure=None)
@example(store_name="main", spec=_spec(attributes=[]), seed=0, failure=None)
@example(store_name="main", spec=_spec(attributes=["a", "a"]), seed=0, failure=None)
@example(store_name="main", spec=_spec(k=0), seed=0, failure=None)
@example(store_name="main", spec=_spec(epsilon=float("nan")), seed=0, failure=None)
@example(store_name="main", spec=_spec(), seed=-1, failure=None)
@example(store_name="main", spec=_spec(), seed=0, failure=float("inf"))
@example(store_name="main", spec=_spec(), seed=0, failure=5e-324)
@example(store_name="main", spec=_spec(**{**_FILTER, "threshold": float("nan")}),
         seed=0, failure=None)
@example(store_name="main", spec=_spec(**{**_FILTER, "threshold": -1.0}), seed=0,
         failure=None)
@example(store_name="main", spec=_spec(**{**_MI, "target": "nope"}), seed=0, failure=None)
@example(store_name="main", spec=_spec(**_MI, attributes=["nope"]), seed=0, failure=None)
@example(store_name="main", spec=_spec(**_MI, attributes="ab"), seed=0, failure=None)
@example(store_name="main", spec=_spec(**{**_MI, "target": "const"}), seed=0, failure=None)
@example(store_name="one_row_mmap", spec=_spec(**_MI), seed=0, failure=None)
@example(store_name="empty", spec=_spec(), seed=0, failure=None)
def test_single_query_entry_points_raise_only_repro_errors(
    stores, entry, store_name, spec, seed, failure
):
    store = stores[store_name]
    result = _within_contract(
        lambda: _ENTRY_POINTS[entry](store, spec, seed, failure)
    )
    _assert_answers_requested(result, spec["attributes"])
    if result is not None and spec["target"] is not None:
        assert spec["target"] not in result.attributes


@_FUZZ
@given(
    store_name=_store_names,
    specs=st.lists(_specs(), min_size=0, max_size=3),
    seed=_seeds,
    layout_seed=st.none() | st.integers(-3, 3),
    failure=st.none() | _floats,
)
@example(store_name="main", specs=[_spec(), _spec(attributes=["nope"])], seed=0,
         layout_seed=None, failure=None)
@example(store_name="main", specs=[_spec(attributes="ab")], seed=0, layout_seed=None,
         failure=None)
@example(store_name="main", specs=[_spec()], seed=-1, layout_seed=None, failure=None)
@example(store_name="main_mmap", specs=[_spec()], seed=0, layout_seed=-1,
         failure=None)
@example(store_name="main", specs=[_spec()], seed=0, layout_seed=None,
         failure=5e-324)
def test_plans_raise_only_repro_errors(
    stores, store_name, specs, seed, layout_seed, failure
):
    store = stores[store_name]

    def run():
        plan = plan_queries(store, [QuerySpec(**spec) for spec in specs])
        return PlanExecutor(
            store, seed=seed, layout_seed=layout_seed, failure_probability=failure
        ).execute(plan)

    outcome = _within_contract(run)
    if outcome is not None:
        for spec, name in zip(specs, (f"q{i}" for i in range(len(specs)))):
            _assert_answers_requested(outcome[name], spec["attributes"])


# ----------------------------------------------------------------------
# Files: checkpoint, cache partition, manifest and plan
# ----------------------------------------------------------------------
_PLAN_SPECS = [
    {"name": "top", "kind": "topk-entropy", "k": 2},
    {"name": "mi", "kind": "filter-mi", "target": "tgt", "threshold": 0.1},
]


@pytest.fixture(scope="module")
def artifacts(stores, tmp_path_factory) -> dict[str, Any]:
    """Valid files of every kind the entry points read, and a scratch dir."""
    root = tmp_path_factory.mktemp("contract-files")
    store = stores["main"]
    plan_path = root / "plan.json"
    plan_path.write_text(json.dumps({"queries": _PLAN_SPECS}), encoding="utf-8")
    plan = plan_queries(store, load_plan(plan_path))
    checkpoint = root / "run.ckpt"
    cold = PlanExecutor(
        store, seed=3, checkpoint_path=checkpoint, cache_dir=root / "cache"
    ).execute(plan)
    [partition] = (root / "cache").glob("part-*.json")
    return {
        "root": root,
        "plan": plan,
        "answers": {name: cold[name].attributes for name in plan.names},
        "plan_file": plan_path.read_bytes(),
        "checkpoint": checkpoint.read_bytes(),
        "partition": (partition.name, partition.read_bytes()),
        "manifest": (stores["main_mmap"].directory / MANIFEST_NAME).read_bytes(),
    }


#: How a file is damaged: kept intact, replaced by arbitrary bytes,
#: truncated to a fraction of its length, made non-UTF-8 by a leading
#: byte ``0xff``, or one byte XOR-ed (a valid-JSON flip a sha256 catches).
_DAMAGE = st.one_of(
    st.just(("intact",)),
    st.tuples(st.just("replace"), st.binary(max_size=200)),
    st.tuples(st.just("truncate"), st.floats(0.0, 1.0)),
    st.tuples(st.just("non_utf8"), st.binary(max_size=3)),
    st.tuples(st.just("flip"), st.floats(0.0, 1.0), st.integers(1, 255)),
)
_NON_UTF8 = ("non_utf8", b"")


def _damaged(valid: bytes, damage: tuple[Any, ...]) -> bytes:
    how = damage[0]
    if how == "replace":
        return damage[1]
    if how == "truncate":
        return valid[: int(damage[1] * len(valid))]
    if how == "non_utf8":
        return b"\xff" + damage[1] + valid
    if how == "flip":
        at = min(int(damage[1] * len(valid)), len(valid) - 1)
        return valid[:at] + bytes([valid[at] ^ damage[2]]) + valid[at + 1 :]
    return valid


def _write(path: Path, valid: bytes, damage: tuple[Any, ...]) -> Path:
    path.write_bytes(_damaged(valid, damage))
    return path


@_FUZZ
@given(damage=_DAMAGE)
@example(damage=_NON_UTF8)
def test_damaged_checkpoints_raise_only_repro_errors(stores, artifacts, damage):
    path = _write(artifacts["root"] / "damaged.ckpt", artifacts["checkpoint"], damage)

    def resume():
        executor = PlanExecutor.resume(path, stores["main"])
        return executor.execute(executor.resumed_plan())

    outcome = _within_contract(resume)
    if outcome is not None:
        assert {n: outcome[n].attributes for n in outcome} == artifacts["answers"]


@_FUZZ
@given(damage=_DAMAGE)
@example(damage=_NON_UTF8)
def test_damaged_cache_partitions_start_cold(stores, artifacts, damage):
    """A defective partition is a cache miss: the run answers as if cold."""
    directory = artifacts["root"] / "damaged-cache"
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir()
    name, valid = artifacts["partition"]
    _write(directory / name, valid, damage)
    outcome = PlanExecutor(stores["main"], seed=3, cache_dir=directory).execute(
        artifacts["plan"]
    )
    assert {n: outcome[n].attributes for n in outcome} == artifacts["answers"]


def _damaged_store(stores, artifacts, damage) -> Path:
    """A copy of the mmap store with its manifest damaged."""
    directory = artifacts["root"] / "damaged-store"
    shutil.rmtree(directory, ignore_errors=True)
    shutil.copytree(stores["main_mmap"].directory, directory)
    _write(directory / MANIFEST_NAME, artifacts["manifest"], damage)
    return directory


#: Manifest flips that leave well-formed JSON: the row count, a dtype, a
#: support size shrunk below the data's values, and a column pointed at
#: another column's file.
_MANIFEST_FLIPS = {
    "num_rows": ('"num_rows": 300', 14, 1),
    "dtype": ('"|i1"', 1, ord("|") ^ ord("(")),
    "support": ('"support_size": 3', 16, 1),
    "file": ('"col_00000.npy"', 9, 1),
}


def _manifest_flip(manifest: bytes, field: str) -> tuple[Any, ...]:
    """Damage that XORs one byte of a manifest field, as its bytes."""
    text, offset, xor = _MANIFEST_FLIPS[field]
    at = manifest.index(text.encode("ascii")) + offset
    return ("replace", manifest[:at] + bytes([manifest[at] ^ xor]) + manifest[at + 1 :])


@_FUZZ
@given(damage=_DAMAGE)
@example(damage=_NON_UTF8)
@example(damage=("flip_field", "num_rows"))
@example(damage=("flip_field", "dtype"))
@example(damage=("flip_field", "support"))
@example(damage=("flip_field", "file"))
def test_damaged_manifests_raise_only_repro_errors(stores, artifacts, damage):
    if damage[0] == "flip_field":
        damage = _manifest_flip(artifacts["manifest"], damage[1])
    directory = _damaged_store(stores, artifacts, damage)
    store = _within_contract(lambda: MmapStore.open(directory))
    if store is not None and (
        _within_contract(lambda: swope_top_k_entropy(store, 2)) is None
    ):
        # A store that opens but cannot answer has a manifest that lies
        # about its data (a shrunk support size, another column's file),
        # which only the N-sized fingerprint check can see.
        with pytest.raises(SchemaError, match="fails verification"):
            store.verify_fingerprint()


@_FUZZ
@given(damage=_DAMAGE)
@example(damage=_NON_UTF8)
def test_damaged_plans_raise_only_repro_errors(stores, artifacts, damage):
    path = _write(artifacts["root"] / "damaged-plan.json", artifacts["plan_file"], damage)
    store = stores["main"]
    _within_contract(
        lambda: PlanExecutor(store, seed=3).execute(plan_queries(store, load_plan(path)))
    )


@pytest.mark.parametrize(
    "call",
    [
        lambda store, missing, afile: PlanExecutor.resume(missing / "run.ckpt", store),
        lambda store, missing, afile: MmapStore.open(missing),
        lambda store, missing, afile: load_plan(missing / "plan.json"),
        lambda store, missing, afile: PlanExecutor(store, cache_dir=afile),
        lambda store, missing, afile: PlanExecutor(store, cache_dir=afile / "below"),
    ],
    ids=["resume", "mmap-open", "load-plan", "cache-dir-file", "cache-dir-below-file"],
)
def test_missing_paths_and_a_file_as_cache_dir_are_repro_errors(stores, tmp_path, call):
    afile = tmp_path / "afile"
    afile.write_text("not a directory", encoding="utf-8")
    with pytest.raises(ReproError):
        call(stores["main"], tmp_path / "missing", afile)


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda store: PlanExecutor.resume("run\x00.ckpt", store), CheckpointError),
        (lambda store: load_plan("plan\x00.json"), DataFormatError),
        (lambda store: MmapStore.open("store\x00"), SchemaError),
        (lambda store: PlanExecutor(store, cache_dir="cache\x00"), ParameterError),
        (lambda store: PlanExecutor(store, checkpoint_path="run\x00.ckpt"),
         ParameterError),
    ],
    ids=["resume", "load-plan", "mmap-open", "cache-dir", "checkpoint-path"],
)
def test_paths_with_a_nul_byte_are_refused(stores, call, error):
    with pytest.raises(error, match="NUL|null|not an mmap store"):
        call(stores["main"])


# ----------------------------------------------------------------------
# repro query: arbitrary strings for its flags
# ----------------------------------------------------------------------
#: A command-line argument: any string an OS can pass in argv — no NUL,
#: and undecodable bytes arrive as surrogate escapes.
_arg = st.one_of(
    st.text(
        alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
        max_size=12,
    ),
    st.binary(max_size=12).filter(lambda raw: b"\x00" not in raw).map(os.fsdecode),
    st.sampled_from(["nan", "inf", "-1", "0", "1e309", "-0.5", "2", *COLUMNS]),
)


#: Well-formed values of ``repro query``'s flags; the fuzz breaks a few.
_FLAGS = {
    "--epsilon": ["0.1", "0.5"],
    "-k": ["1", "3"],
    "--eta": ["0.5", "1.5"],
    "--seed": ["0", "7"],
    "--target": ["tgt", "a"],
    "--max-cells": ["400", "100000"],
    "--timeout-ms": ["60000"],
    "--max-sample": ["64", "100000"],
}


@st.composite
def _cli_argv(draw) -> list[str]:
    """``repro query`` argv: ``{name}`` stands for a file of
    :func:`_cli_files`; flags get well-formed or arbitrary values."""

    def path(*names: str) -> str:
        name = draw(st.sampled_from([*names, None]))
        return f"{{{name}}}" if name is not None else draw(_arg)

    batch = draw(st.sampled_from([None, "--queries", "--resume"]))
    if batch is None:
        argv = ["query", draw(st.sampled_from(
            ["topk-entropy", "filter-entropy", "topk-mi", "filter-mi"]
        ))]
    else:
        kind = "plan" if batch == "--queries" else "checkpoint"
        argv = ["query", f"{batch}={path(kind, kind)}"]
    argv.append(
        f"--store=mmap:{path('store', 'store', 'one-row', 'damaged-store', 'missing')}"
    )
    broken = draw(st.sets(st.sampled_from(sorted(_FLAGS)), max_size=2))
    for flag, values in _FLAGS.items():
        if flag in broken:
            argv.append(f"{flag}={draw(_arg)}")
        elif draw(st.booleans()):
            argv.append(f"{flag}={draw(st.sampled_from(values))}")
    cache = draw(st.sampled_from([None, "afile", "fresh-cache", "corrupt-cache"]))
    if cache is not None:
        argv.append(f"--cache-dir={{{cache}}}")
    if draw(st.booleans()):
        argv.append("--strict")
    return argv


_INTACT = ("intact",)
#: Damage to the plan, checkpoint, cache partition and manifest the CLI
#: reads; intact half the time, so that runs get past their files.
_CLI_DAMAGE = st.fixed_dictionaries(
    {
        "plan": st.just(_INTACT) | _DAMAGE,
        "checkpoint": st.just(_INTACT) | _DAMAGE,
        "partition": st.just(_INTACT) | _DAMAGE,
        "manifest": st.just(_INTACT) | _DAMAGE,
    }
)


def _cli_files(stores, artifacts, damage: dict[str, Any]) -> dict[str, str]:
    """The files ``repro query`` is pointed at, damaged as ``damage`` says."""
    root = artifacts["root"]
    files = {
        name: str(root / f"cli-{name}")
        for name in ("plan", "checkpoint", "afile", "fresh-cache",
                     "corrupt-cache", "missing")
    }
    files["store"] = str(stores["main_mmap"].directory)
    files["one-row"] = str(stores["one_row_mmap"].directory)
    files["damaged-store"] = str(
        _damaged_store(stores, artifacts, damage.get("manifest", _INTACT))
    )
    for name, valid in (("plan", "plan_file"), ("checkpoint", "checkpoint")):
        _write(Path(files[name]), artifacts[valid], damage.get(name, _INTACT))
    Path(files["afile"]).write_text("a file", encoding="utf-8")
    corrupt = Path(files["corrupt-cache"])
    corrupt.mkdir(exist_ok=True)
    name, valid = artifacts["partition"]
    _write(corrupt / name, valid, damage.get("partition", _INTACT))
    return files


def _run_cli(argv: list[str], files: dict[str, str], cwd: Path) -> tuple[Any, str]:
    """``repro query``'s exit code and stderr, run in ``cwd``."""
    for name, path in files.items():
        argv = [arg.replace(f"{{{name}}}", path) for arg in argv]
    here = os.getcwd()
    err = io.StringIO()
    os.chdir(cwd)  # relative fuzzed paths resolve inside the scratch dir
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = cli_main(argv)
    except SystemExit as exc:  # argparse rejects a flag value
        code = exc.code
    finally:
        os.chdir(here)
    return code, err.getvalue()


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv=_cli_argv(), damage=_CLI_DAMAGE)
def test_cli_query_exits_zero_or_two_with_an_error_line(
    stores, artifacts, argv, damage
):
    files = _cli_files(stores, artifacts, damage)
    code, err = _run_cli(argv, files, artifacts["root"])
    assert code in (0, 2), (argv, code)
    if code == 2:
        assert "error:" in err, (argv, err)


_STORE = "--store=mmap:{store}"


@pytest.mark.parametrize(
    "argv, damage, expected",
    [
        pytest.param(["topk-entropy", _STORE, "--seed=-1"], {}, 2, id="seed"),
        pytest.param(["topk-entropy", _STORE, "--epsilon=nan"], {}, 2, id="epsilon"),
        pytest.param(["topk-entropy", _STORE, "-k=0"], {}, 2, id="k"),
        pytest.param(["filter-entropy", _STORE, "--eta=-1"], {}, 2, id="eta"),
        pytest.param(["filter-mi", _STORE, "--target=tgt", "--eta=inf"], {}, 2,
                     id="eta-inf"),
        pytest.param(["topk-mi", _STORE, "--target=nope"], {}, 2, id="target"),
        pytest.param(["topk-entropy", _STORE, "--max-cells=-5"], {}, 2,
                     id="max-cells"),
        pytest.param(["topk-entropy", _STORE, "--timeout-ms=nan"], {}, 2,
                     id="timeout"),
        pytest.param(["topk-entropy", _STORE, "--cache-dir={afile}"], {}, 2,
                     id="cache-dir-file"),
        pytest.param(["topk-entropy", "--store=mmap:{missing}"], {}, 2,
                     id="missing-store"),
        pytest.param(["topk-entropy", "--store=mmap:{damaged-store}"],
                     {"manifest": _NON_UTF8}, 2, id="manifest-non-utf8"),
        pytest.param(["--queries={plan}", _STORE], {"plan": _NON_UTF8}, 2,
                     id="plan-non-utf8"),
        pytest.param(["--resume={checkpoint}", _STORE], {"checkpoint": _NON_UTF8}, 2,
                     id="checkpoint-non-utf8"),
        pytest.param(["--resume={missing}", _STORE], {}, 2, id="missing-checkpoint"),
        pytest.param(["topk-mi", _STORE, "--target=const"], {}, 0, id="u1-target"),
        pytest.param(["filter-mi", "--store=mmap:{one-row}", "--target=tgt"], {}, 0,
                     id="one-row-store"),
        pytest.param(["topk-entropy", _STORE, "--cache-dir={corrupt-cache}"],
                     {"partition": _NON_UTF8}, 0, id="cache-non-utf8"),
    ],
)
def test_cli_query_malformed_inputs_exit_two(stores, artifacts, argv, damage, expected):
    files = _cli_files(stores, artifacts, damage)
    code, err = _run_cli(["query", *argv], files, artifacts["root"])
    assert code == expected, err
    if expected == 2:
        assert err.startswith("error:") and err.count("\n") == 1, err
