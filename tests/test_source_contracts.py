"""Source contracts: conventions of ``src/repro`` ordinary linters cannot see.

Each rule is a plain function over one module's ``ast`` that yields
``(rule, line)`` pairs.  Sources are parsed, never imported, so the
fixtures under ``tests/fixtures/contracts/`` (deliberate violations,
free names) are checked like any other module.

* ``PB202`` — COW-only state (``Dataset``, ``DatasetArrays``,
  ``PageStore``, ...) never rides a scatter payload tuple: hosts inherit
  it at fork time or rebuild it from the workload spec.
* ``KI301`` / ``KI302`` — the bitwise-identity kernels
  (``IDENTITY_FUNCTIONS``, or a ``def`` line marked
  ``# repro: identity-kernel``) use no op that is not correctly rounded
  or is compensated (``hypot``, ``fsum``) and no reduction that
  re-associates a floating-point sum (``.sum``, ``einsum``, ``dot``,
  ``@``, ``reduceat``, ...), nested helpers included.  Builtin ``sum``
  stays legal: it adds left to right, the scalar reference's own order.
* ``AB401``–``AB404`` — an ``async def`` body (not the sync defs nested
  in it, which run in an executor) never blocks the event loop: no
  ``time.sleep``, no pool/thread join or close, no ``open``, no
  synchronous ``engine.query`` / ``query_batch``.
* ``SM601`` / ``SM602`` — shm-backed state crosses processes as an
  ``ArenaRef`` name, never through ``pickle.dump(s)``; a
  ``SharedMemory(...)`` is built only inside ``class ShmArena``.
* ``TR701`` — a module importing ``socket`` or ``asyncio`` pickles only
  inside ``class FrameCodec`` / ``class PayloadCodec``.

The taint rules (PB202, SM601) follow literal assignments within one
scope: they prove a violation present, never absent.  ``ALLOWED`` holds
the one justified exception, by (file, function, rule); ``FORBIDDEN``
the names of retired designs that no file under ``src/`` may mention.
"""

import ast
import functools
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
FIXTURES = Path(__file__).resolve().parent / "fixtures" / "contracts"

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def call_name(node: ast.expr) -> str:
    """Dotted name of a call target; other components render as ``?``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return f"{call_name(node.value)}.{node.attr}"
    return "?"


def walk_scope(node: ast.AST):
    """The nodes of ``node``'s own scope: nested defs, classes and
    lambdas are yielded but not entered."""
    stack = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        yield child
        if not isinstance(child, (*FUNCTIONS, ast.ClassDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(child))


def scopes(tree: ast.Module):
    """Every function, then the module's own statements."""
    yield from (node for node in ast.walk(tree) if isinstance(node, FUNCTIONS))
    yield tree


def origin(call: ast.Call, names) -> bool:
    """Does any component of the call's dotted name (``Dataset.synthetic``,
    ``kernels.DatasetArrays``) lie in ``names``?"""
    return any(part in names for part in call_name(call.func).split("."))


def tainted(scope: ast.AST, names) -> set:
    """Names the scope assigns from a call with an origin in ``names``."""
    return {
        target.id
        for node in walk_scope(scope)
        if isinstance(node, ast.Assign)
        and isinstance(node.value, ast.Call)
        and origin(node.value, names)
        for target in node.targets
        if isinstance(target, ast.Name)
    }


def carried(expr: ast.AST, names, taint: set):
    """Lines where ``expr`` holds a tainted name or builds one inline."""
    for node in ast.walk(expr):
        if (isinstance(node, ast.Name) and node.id in taint) or (
            isinstance(node, ast.Call) and origin(node, names)
        ):
            yield node.lineno


def calls_inside(tree: ast.Module, classes) -> set:
    """ids of every call within a class body named in ``classes``."""
    return {
        id(sub)
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name in classes
        for sub in ast.walk(node)
        if isinstance(sub, ast.Call)
    }


# ----------------------------------------------------------------------
# The rules
# ----------------------------------------------------------------------

#: The kinds ``core.pipeline.execute_shard_payload`` dispatches on: a
#: tuple led by one of them is a scatter payload.
PAYLOAD_KINDS = frozenset({"refine", "select"})

#: Types (and their lazy factories) that stay behind the fork.
COW_ONLY = frozenset({
    "Dataset", "DatasetArrays", "ObjectColumns", "TreeArrays", "PageStore",
    "arrays_for", "object_columns_for", "tree_arrays_for",
})


def pool_boundary(tree, lines):
    """PB202: COW-only state inside a scatter payload tuple."""
    for scope in scopes(tree):
        taint = tainted(scope, COW_ONLY)
        for node in walk_scope(scope):
            if (
                isinstance(node, ast.Tuple)
                and node.elts
                and isinstance(node.elts[0], ast.Constant)
                and node.elts[0].value in PAYLOAD_KINDS
            ):
                for line in carried(node, COW_ONLY, taint):
                    yield "PB202", line


#: The decision/bound kernels of core/kernels.py that promise bitwise
#: identity with the oracle, and the pair kernel whose floats Algorithm 2
#: returns (the guard-banded ``candidate_score_matrix`` stays outside:
#: its BLAS product is the point).
IDENTITY_FUNCTIONS = frozenset({
    "_pairwise_norm",
    "_masked_segment_sums",
    "frontier_bounds",
    "weights_of",
    "sts_pairs",
    "group_spatial_bounds",
})

#: Opts any other function in, on its ``def`` line.
IDENTITY_MARKER = re.compile(r"#\s*repro:\s*identity-kernel")

#: KI301: libm ``hypot`` is not correctly rounded; ``fsum`` is more
#: accurate than the scalar ``total += w`` loop.  Either flips decisions.
INEXACT = frozenset({"hypot", "fsum"})

#: KI302: reductions that re-associate a floating-point sum.
REASSOCIATING = frozenset({
    "sum", "nansum", "einsum", "dot", "matmul", "inner", "vdot",
    "reduceat", "prod", "nanprod",
})


def kernel_identity(tree, lines):
    """KI301/KI302 anywhere inside an identity kernel."""
    for kernel in ast.walk(tree):
        if not isinstance(kernel, FUNCTIONS) or not (
            kernel.name in IDENTITY_FUNCTIONS
            or IDENTITY_MARKER.search(lines[kernel.lineno - 1])
        ):
            continue
        for node in ast.walk(kernel):
            if isinstance(node, ast.Call) and call_name(node.func).rsplit(".", 1)[-1] in INEXACT:
                yield "KI301", node.lineno
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in REASSOCIATING
            ):
                yield "KI302", node.lineno
            elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
                yield "KI302", node.lineno


#: A receiver or method that names a process, pool or thread (a no-arg
#: ``.join()`` blocks on any receiver: ``str.join`` takes an argument).
POOLISH = re.compile(r"pool|worker|proc|thread|joiner", re.IGNORECASE)
LIFECYCLE = frozenset({"join", "close", "terminate", "close_pools"})


def async_blocking(tree, lines):
    """AB401-AB404: blocking calls in an ``async def``'s own body."""
    for func in ast.walk(tree):
        if not isinstance(func, ast.AsyncFunctionDef):
            continue
        for node in walk_scope(func):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node.func)
            attr = node.func.attr if isinstance(node.func, ast.Attribute) else None
            if name in ("time.sleep", "sleep"):
                yield "AB401", node.lineno
            elif attr in LIFECYCLE:
                if POOLISH.search(name) or (
                    attr == "join" and not node.args and not node.keywords
                ):
                    yield "AB402", node.lineno
            elif name in ("open", "io.open", "os.open"):
                yield "AB403", node.lineno
            elif attr in ("query", "query_batch"):
                yield "AB404", node.lineno


#: Call-name components whose results live in shared memory: the arena
#: and its views, and the kernel array bundles published into it.
SHM_BACKED = frozenset({
    "ShmArena", "add_array", "share_arrays",
    "DatasetArrays", "TreeArrays",
    "arrays_for", "tree_arrays_for",
})


def shm_payload(tree, lines):
    """SM602: ``SharedMemory(...)`` outside ShmArena; SM601: shm-backed
    state handed to ``pickle.dump(s)``."""
    arena = calls_inside(tree, {"ShmArena"})
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and call_name(node.func).rsplit(".", 1)[-1] == "SharedMemory"
            and id(node) not in arena
        ):
            yield "SM602", node.lineno
    for scope in scopes(tree):
        taint = tainted(scope, SHM_BACKED)
        for node in walk_scope(scope):
            if (
                isinstance(node, ast.Call)
                and call_name(node.func) in ("pickle.dumps", "pickle.dump")
                and node.args
            ):
                for line in carried(node.args[0], SHM_BACKED, taint):
                    yield "SM601", line


def transport(tree, lines):
    """TR701: a raw pickle call on the socket path, outside the codecs."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module.split(".")[0])
    if not imported & {"socket", "asyncio"}:
        return
    codecs = calls_inside(tree, {"FrameCodec", "PayloadCodec"})
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and id(node) not in codecs
            and call_name(node.func) in (
                "pickle.dumps", "pickle.loads", "pickle.dump", "pickle.load",
            )
        ):
            yield "TR701", node.lineno


RULES = (pool_boundary, kernel_identity, async_blocking, shm_payload, transport)


def definitions(tree: ast.AST, prefix: str = ""):
    """``(qualified name, node)`` of every function, classes dotted in."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
            if isinstance(node, FUNCTIONS):
                yield prefix + node.name, node
            yield from definitions(node, f"{prefix}{node.name}.")
        else:
            yield from definitions(node, prefix)


def find_def(tree: ast.AST, qualname: str) -> ast.AST:
    return next(node for name, node in definitions(tree) if name == qualname)


def check(source: str) -> set:
    """Every finding in one module, as ``(rule, line, function)``; the
    function is the innermost one around the line (``""``: module level)."""
    tree = ast.parse(source)
    lines = source.splitlines()
    defs = sorted(
        ((node.lineno, node.end_lineno, name) for name, node in definitions(tree)),
        reverse=True,
    )

    def around(line):
        return next((name for lo, hi, name in defs if lo <= line <= hi), "")

    return {
        (rule, line, around(line))
        for run in RULES
        for rule, line in run(tree, lines)
    }


# ----------------------------------------------------------------------
# src/repro keeps every contract
# ----------------------------------------------------------------------

#: Justified exceptions, by (file under src/repro, function, rule).
#: ``stop()`` closes the local hosts on the loop thread on purpose: the
#: flusher has drained, no query is in flight, and the wait is bounded
#: by ``ServerConfig.shutdown_timeout_s``.
ALLOWED = frozenset({("serve/server.py", "MaxBRSTkNNServer.stop", "AB402")})


@functools.lru_cache(maxsize=None)
def src_findings() -> tuple:
    """``(file, function, rule, line)`` for every finding under src/repro."""
    return tuple(sorted(
        (path.relative_to(SRC).as_posix(), function, rule, line)
        for path in SRC.rglob("*.py")
        for rule, line, function in check(path.read_text())
    ))


def audit(findings, allowed):
    """The findings no entry allows, and the entries that do not allow
    exactly one finding (stale or too broad)."""
    unallowed = [f for f in findings if f[:3] not in allowed]
    stale = sorted(e for e in allowed if sum(f[:3] == e for f in findings) != 1)
    return unallowed, stale


def test_src_keeps_every_contract():
    unallowed, stale = audit(src_findings(), ALLOWED)
    assert unallowed == [], "\n".join(
        f"src/repro/{file}:{line}: {rule} in {function or 'module'}"
        for file, function, rule, line in unallowed
    )
    assert stale == []


def test_the_allowlist_entry_matches_exactly_one_finding():
    (entry,) = ALLOWED
    assert [f for f in src_findings() if f[:3] == entry] == [
        (*entry, line_of(SRC / entry[0], "self.engine.close_pools("))
    ]


def test_an_unused_allowlist_entry_fails():
    unused = ("serve/server.py", "MaxBRSTkNNServer.start", "AB402")
    _, stale = audit(src_findings(), ALLOWED | {unused})
    assert stale == [unused]


@pytest.mark.parametrize("name", sorted(IDENTITY_FUNCTIONS))
def test_every_identity_function_is_a_kernel(name):
    """Renaming a kernel must not leave it silently unguarded."""
    tree = ast.parse((SRC / "core" / "kernels.py").read_text())
    assert name in {node.name for node in ast.walk(tree) if isinstance(node, FUNCTIONS)}


def test_payload_kinds_are_the_kinds_execute_shard_payload_runs():
    tree = ast.parse((SRC / "core" / "pipeline.py").read_text())
    dispatched = {
        node.comparators[0].value
        for node in ast.walk(find_def(tree, "execute_shard_payload"))
        if isinstance(node, ast.Compare)
        and isinstance(node.left, ast.Name)
        and node.left.id == "kind"
        and isinstance(node.comparators[0], ast.Constant)
    }
    assert dispatched == PAYLOAD_KINDS


# Seeded violations: edit a real module in memory, no file written.

def test_time_sleep_seeded_into_submit_is_ab401():
    source = (SRC / "serve" / "server.py").read_text()
    first = find_def(ast.parse(source), "MaxBRSTkNNServer.submit").body[0]
    lines = source.splitlines()
    lines.insert(first.lineno - 1, " " * first.col_offset + "time.sleep(0)")
    assert ("AB401", first.lineno, "MaxBRSTkNNServer.submit") in check("\n".join(lines))


def seed_hypot(kernel: str):
    """``core/kernels.py`` as it is, the same source with the first
    one-line binary expression of ``kernel`` wrapped in ``math.hypot``,
    and the finding that must flag it."""
    source = (SRC / "core" / "kernels.py").read_text()
    expr = next(
        node
        for node in ast.walk(find_def(ast.parse(source), kernel))
        if isinstance(node, ast.BinOp) and node.lineno == node.end_lineno
    )
    lines = source.splitlines()
    text = lines[expr.lineno - 1]
    lo, hi = expr.col_offset, expr.end_col_offset
    lines[expr.lineno - 1] = f"{text[:lo]}math.hypot({text[lo:hi]}, 0.0){text[hi:]}"
    return source, "\n".join(lines), ("KI301", expr.lineno, kernel)


def test_hypot_seeded_into_sts_pairs_is_ki301():
    source, seeded_source, seeded = seed_hypot("DatasetArrays.sts_pairs")
    assert seeded not in check(source)
    assert seeded in check(seeded_source)


def test_hypot_seeded_into_group_spatial_bounds_is_ki301():
    source, seeded_source, seeded = seed_hypot("DatasetArrays.group_spatial_bounds")
    assert seeded not in check(source)
    assert seeded in check(seeded_source)


# ----------------------------------------------------------------------
# Every rule fires on exactly its fixture lines
# ----------------------------------------------------------------------

#: Every finding the fixtures hold: (fixture, rule, text on its line).
EXPECTED = [
    ("async_bad.py", "AB401", "time.sleep(0.5)"),
    ("async_bad.py", "AB401", "sleep(0.1)"),
    ("async_bad.py", "AB402", "pool.join()"),
    ("async_bad.py", "AB402", "flusher.join()"),
    ("async_bad.py", "AB402", "worker_pool.close()"),
    ("async_bad.py", "AB403", "open(path) as fh"),
    ("async_bad.py", "AB404", "engine.query(query, options)"),
    ("async_bad.py", "AB404", "engine.query_batch(queries"),
    ("kernel_bad.py", "KI301", "np.hypot(dx, dy)"),
    ("kernel_bad.py", "KI301", "math.fsum(weights)"),
    ("kernel_bad.py", "KI302", "weights.sum()"),
    ("kernel_bad.py", "KI302", "np.add.reduceat"),
    ("kernel_bad.py", "KI302", "np.einsum"),
    ("kernel_bad.py", "KI302", "block @ w"),
    ("kernel_bad.py", "KI302", "np.matmul(user_terms"),
    ("kernel_bad.py", "KI301", "np.hypot(gap_x, gap_y)"),
    ("pool_bad.py", "PB202", '("refine", dataset, queries)'),
    ("pool_bad.py", "PB202", "DatasetArrays(None)"),
    ("pool_bad.py", "PB202", '("select", queries, store)'),
    ("shm_bad.py", "SM601", "pickle.dumps(view)"),
    ("shm_bad.py", "SM601", "pickle.dumps(handle)"),
    ("shm_bad.py", "SM601", "pickle.dumps(arrays, protocol=5)"),
    ("shm_bad.py", "SM601", "pickle.dump(TreeArrays(dataset), fh)"),
    ("shm_bad.py", "SM602", "SharedMemory(name=name, create=True, size=4096)"),
    ("shm_bad.py", "SM602", "shared_memory.SharedMemory(name=name)"),
    ("shm_bad.py", "SM602", "SM602 (wrong class)"),
    ("transport_bad.py", "TR701", "TR701 (dumps)"),
    ("transport_bad.py", "TR701", "pickle.loads(sock.recv(65536))"),
    ("transport_bad.py", "TR701", "pickle.dump(payload, fh)"),
    ("transport_bad.py", "TR701", "TR701 (wrong class)"),
]


def line_of(path: Path, needle: str) -> int:
    """1-based number of the first line of ``path`` containing ``needle``."""
    for number, text in enumerate(path.read_text().splitlines(), start=1):
        if needle in text:
            return number
    raise AssertionError(f"{needle!r} not found in {path}")


def fixture_findings(name: str) -> set:
    return {(rule, line) for rule, line, _ in check((FIXTURES / name).read_text())}


@pytest.mark.parametrize("fixture, rule, needle", EXPECTED)
def test_the_rule_fires_on_its_fixture_line(fixture, rule, needle):
    assert (rule, line_of(FIXTURES / fixture, needle)) in fixture_findings(fixture)


@pytest.mark.parametrize("fixture", sorted(p.name for p in FIXTURES.glob("*_bad.py")))
def test_a_bad_fixture_holds_no_other_finding(fixture):
    expected = {
        (rule, line_of(FIXTURES / name, needle))
        for name, rule, needle in EXPECTED
        if name == fixture
    }
    assert expected
    assert fixture_findings(fixture) == expected


@pytest.mark.parametrize("fixture", sorted(p.name for p in FIXTURES.glob("*_ok.py")))
def test_an_ok_fixture_is_clean(fixture):
    assert fixture_findings(fixture) == set()


# ----------------------------------------------------------------------
# Retired designs stay retired
# ----------------------------------------------------------------------

#: Names no file under src/ may mention, one regex per retired design.
FORBIDDEN = {
    # numpy is the engine and repro.oracle the scalar reference: nothing
    # may choose between them again.
    "no kernel-backend axis":
        r"\bBackend\b|resolve_backend|BACKENDS|readable_by|HAS_NUMPY|numpy_available|backend=",
    # Every lane is a ShardHost reached by frames: no multiprocessing
    # pool or async-result dispatch beside it.
    "one worker runtime":
        r"multiprocessing\.Pool|map_async|apply_async|imap_unordered",
    # Phases hand their products on as arguments: no stage blackboard,
    # pipeline builder or stage-contract lint.
    "a flush is one function per mode":
        r"FlushContext|run_central|ExecutionPipeline|build_pipeline|StageContractChecker",
    # A plan is a function of options, capabilities and ks: no
    # flush-history loop pulls a round back in-process.
    "the planner reads no flush timings":
        r"FlushHistory|FlushSignature|ObservedCosts|PlanDecision|_consult_history"
        r"|search_inprocess|flush_history|INPROCESS_STAGE_MS|MIN_OBSERVED_FLUSHES",
    # Forked hosts inherit the kernel arrays and remote hosts build
    # their own: the arena holds codec blocks, read out by name.
    "the arena carries payload blocks only":
        r"share_into|share_arrays|SHARED_ATTRS|add_array|_restore_shared_attrs"
        r"|attach_count|ShmArena\.attach\b|--arena",
    # Every engine's flushes run on one Executor (a plain engine is the
    # one-range inline case), and engine.query is a cold batch of one.
    "one executor":
        r"LocalExecutor|ShardedExecutor|_execute_single|_derive_shared_topk",
    # Section 7's MIUR-tree search is reference code in repro.oracle:
    # no engine mode, config switch, payload kind, I/O ledger or pool
    # array serves it.  (\b keeps the user_index_users sweep key live.)
    "section 7 is reference only":
        r"Mode\.INDEXED|\bindex_users\b|RootTraversal|ensure_root_pool|ledger_view"
        r"|IOCharge|serves_indexed|indexed_payloads|merge_indexed|CandidatePoolArrays",
    # Section 7's canonical candidate set is read by the oracle's
    # MIUR-tree search only: it lives beside it, never in the engine.
    "section 7's candidate set stays in repro.oracle": r"canonical_candidates",
    # Both keyword selectors are block kernels under one search: the
    # scalar queue loop and Algorithm 4's per-location memo (its state
    # scorer, its document-vector memo) are the oracle's alone.
    "one search for both selectors":
        r"_search_queue|threshold_mask_many|_doc_vec_cache|mask_many",
}

#: A design whose scan covers one package of src/ only.
SCOPE = {
    "section 7's candidate set stays in repro.oracle": "repro/core",
    "one search for both selectors": "repro/core",
}


def mentions(root: Path, pattern: str) -> list:
    """``(file, line)`` of every line of every file under ``root`` that
    matches ``pattern``."""
    return [
        (path.relative_to(root).as_posix(), number)
        for path in sorted(root.rglob("*"))
        if path.is_file() and "__pycache__" not in path.parts
        for number, text in enumerate(
            path.read_text(errors="replace").splitlines(), start=1
        )
        if re.search(pattern, text)
    ]


@pytest.mark.parametrize("design", sorted(FORBIDDEN))
def test_src_names_no_retired_design(design):
    assert mentions(SRC.parent / SCOPE.get(design, ""), FORBIDDEN[design]) == []


@pytest.mark.parametrize("design, line", [
    ("no kernel-backend axis", "class Backend:"),
    ("no kernel-backend axis", "backend = resolve_backend(name)"),
    ("no kernel-backend axis", "for name in BACKENDS:"),
    ("no kernel-backend axis", "if arrays.readable_by(engine):"),
    ("no kernel-backend axis", "if HAS_NUMPY:"),
    ("no kernel-backend axis", "assert numpy_available()"),
    ("no kernel-backend axis", "engine = Engine(dataset, backend='numpy')"),
    ("one worker runtime", "pool = multiprocessing.Pool(2)"),
    ("one worker runtime", "pending = pool.map_async(run, payloads)"),
    ("one worker runtime", "pending = pool.apply_async(run, (payload,))"),
    ("one worker runtime", "for chunk in pool.imap_unordered(run, payloads):"),
    ("a flush is one function per mode", "context = FlushContext(batch)"),
    ("a flush is one function per mode", "run_central(stages, context)"),
    ("a flush is one function per mode", "pipeline = ExecutionPipeline(stages)"),
    ("a flush is one function per mode", "pipeline = build_pipeline(plan)"),
    ("a flush is one function per mode", "class StageContractChecker(Checker):"),
    ("the planner reads no flush timings", "history = FlushHistory()"),
    ("the planner reads no flush timings", "key = FlushSignature.of(plan)"),
    ("the planner reads no flush timings", "costs = ObservedCosts()"),
    ("the planner reads no flush timings", "decisions: List[PlanDecision]"),
    ("the planner reads no flush timings", "plan = _consult_history(plan, history)"),
    ("the planner reads no flush timings", "if shard.search_inprocess:"),
    ("the planner reads no flush timings", "engine.flush_history.record(report)"),
    ("the planner reads no flush timings", "INPROCESS_STAGE_MS = 1.0"),
    ("the planner reads no flush timings", "MIN_OBSERVED_FLUSHES = 3"),
    ("the arena carries payload blocks only", "arrays.share_into(arena)"),
    ("the arena carries payload blocks only", "arena.share_arrays(obj, attrs, 'h')"),
    ("the arena carries payload blocks only", "for attr in self.SHARED_ATTRS:"),
    ("the arena carries payload blocks only", "view = arena.add_array(column, data)"),
    ("the arena carries payload blocks only", "self._restore_shared_attrs()"),
    ("the arena carries payload blocks only", "refs = ShmArena.attach_count(name)"),
    ("the arena carries payload blocks only", "handle = ShmArena.attach(name)"),
    ("the arena carries payload blocks only", 'parser.add_argument("--arena")'),
    ("one executor", "executor = LocalExecutor(engine)"),
    ("one executor", "self._executor = ShardedExecutor(self)"),
    ("one executor", "return self._execute_single(query, plan)"),
    ("one executor", "shared = _derive_shared_topk(engine, pool, k)"),
    ("section 7 is reference only", "if plan.mode is Mode.INDEXED:"),
    ("section 7 is reference only", "config = EngineConfig(index_users=True)"),
    ("section 7 is reference only", "pool = RootTraversal(k, walk, 0.0, 0, 0)"),
    ("section 7 is reference only", "pool = ensure_root_pool(self, k)"),
    ("section 7 is reference only", "view, charge = store.ledger_view()"),
    ("section 7 is reference only", "charge = IOCharge()"),
    ("section 7 is reference only", "serves_indexed = True"),
    ("section 7 is reference only", "payloads = indexed_payloads(queries, plan)"),
    ("section 7 is reference only", "return merge_indexed(groups, chunks, io)"),
    ("section 7 is reference only", "arrays = CandidatePoolArrays(ds, pool)"),
    ("section 7's candidate set stays in repro.oracle",
     "canonical = canonical_candidates(walk, rsk_group)"),
    ("one search for both selectors",
     "return _search_queue(ds, q, rsk, g, lists, stats, select=scan)"),
    ("one search for both selectors",
     "masks = arrays.threshold_mask_many(location, evals, rsk)"),
    ("one search for both selectors", "self._doc_vec_cache = {}"),
    ("one search for both selectors",
     "return select_keywords_exact(*args, mask_many=scan)"),
])
def test_the_name_scan_sees_every_retired_name(tmp_path, design, line):
    """The scan above has teeth: each alternative of each regex counts."""
    (tmp_path / "core").mkdir()
    (tmp_path / "core" / "probe.py").write_text(f"x = 1\n{line}\n")
    assert mentions(tmp_path, FORBIDDEN[design]) == [("core/probe.py", 2)]


@pytest.mark.parametrize("design, line", [
    ("no kernel-backend axis", "class BackendError(Exception):"),
    ("one worker runtime", "results = pool.map(run, payloads)"),
    ("a flush is one function per mode", "context = SelectionContext(batch)"),
    ("the planner reads no flush timings", "history = plan.explain()"),
    ("the arena carries payload blocks only", "arena.add_bytes(column, data)"),
    ("the arena carries payload blocks only",
     "data = ShmArena.read_column_bytes(name, column)"),
    ("the arena carries payload blocks only", "set_untracked_attach(True)"),
    ("one executor", "self._executor = Executor(self, config.num_shards)"),
    ("section 7 is reference only", '"user_index_users": [125, 250, 500, 1000, 2000],'),
    ("section 7 is reference only", "result = oracle.indexed_users_maxbrstknn(*args)"),
    ("section 7 is reference only", "return indexed_search(tree, ds, q, walk, g, s)"),
    ("one search for both selectors", "_search_rounds(ctx, [search], member, select)"),
    ("one search for both selectors",
     "selection = select_exact_block(ctx, locations, member, at)"),
    ("one search for both selectors", "won = ctx.recount(member, index, sets, which)"),
    ("one search for both selectors", "vector = arrays._doc_weight_vector(doc)"),
])
def test_the_name_scan_passes_live_names(tmp_path, design, line):
    (tmp_path / "probe.py").write_text(line + "\n")
    assert mentions(tmp_path, FORBIDDEN[design]) == []
