"""The project-specific rules: R1–R4 and R6, each enforcing one
cross-layer invariant that generic linters cannot see (R5 pinned a pair of
set-index hashes that no longer exist; its id is not reused).

========  =======================  ====================================================
id        name                     invariant
========  =======================  ====================================================
``R1``    registry-completeness    every registered cache policy has a replay kernel,
                                   a differential test, a docs/REPLAY.md heading, and
                                   a CLI surface
``R2``    experiment-completeness  every E*/A* experiment driver has a CLI dispatch,
                                   a tier-1 test reference (or documented
                                   exemption), and a README row
``R3``    hot-path-purity          the vectorized replay/compile modules and the
                                   experiment drivers (``repro.analysis``) never
                                   import the stepwise oracle classes
``R4``    dtype-contracts          hot-path numpy constructors pass explicit dtypes
                                   from the module's documented contract
``R6``    obs-name-registry        every span/metric name emitted under ``src/repro``
                                   comes from :mod:`repro.obs.names`, and the obs
                                   package itself stays import-light at module load
========  =======================  ====================================================

Rationale, suppression syntax, and worked example violations for each rule
live in ``docs/STATIC_ANALYSIS.md``.  All checks are pure AST/text
analysis — nothing here imports or executes the analyzed modules.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.lint.core import Project, Violation, register_rule

__all__ = [
    "BENCH_EXEMPT",
    "DTYPE_CONTRACTS",
    "registered_policies",
    "registered_replay_kernels",
    "experiment_drivers",
    "cli_experiment_ids",
    "obs_registered_names",
]

# ---------------------------------------------------------------------------
# paths the rules are anchored to (repo-relative)
# ---------------------------------------------------------------------------
CACHE_GLOB = "src/repro/cache/*.py"
REPLAY_PATH = "src/repro/runtime/replay.py"
COMPILED_PATH = "src/repro/runtime/compiled.py"
BACKEND_PATH = "src/repro/runtime/backend.py"
TRACE_CACHE_PATH = "src/repro/runtime/trace_cache.py"
STREAMING_PATH = "src/repro/runtime/streaming.py"
CLI_PATH = "src/repro/cli.py"
REPLAY_DOC = "docs/REPLAY.md"
README = "README.md"
TESTS_GLOB = "tests/test_*.py"
ANALYSIS_GLOB = "src/repro/analysis/*.py"
BENCH_GLOB = "benchmarks/bench_*.py"
OBS_NAMES_PATH = "src/repro/obs/names.py"
OBS_GLOB = "src/repro/obs/*.py"
#: Where R6 looks for instrumentation call sites.  ``pathlib.Path.glob``
#: ``*`` does not cross ``/`` (synthetic overlays use :mod:`fnmatch`,
#: where it does), so real and overlay projects both need explicit
#: per-depth patterns; the union is deduplicated.
SRC_GLOBS = ("src/repro/*.py", "src/repro/*/*.py", "src/repro/*/*/*.py")

#: Experiments intentionally not referenced by any tier-1
#: ``tests/test_*.py``.  Every entry needs a reason; the table is mirrored
#: in ``docs/STATIC_ANALYSIS.md`` (rule R2).
BENCH_EXEMPT: Dict[str, str] = {
    "a12": "its shape needs the full search budget (~6 s even at "
    "budget=200, where swap and multiswap tie), too slow for tier-1; "
    "benchmarks/bench_placement.py gates facility_gain / minimax_worst",
}

#: Per-module dtype contract of the compiled-trace hot path (rule R4):
#: every numpy array constructor in these modules must pass one of the
#: listed dtypes explicitly, and the module docstring must document them.
DTYPE_CONTRACTS: Dict[str, Tuple[str, ...]] = {
    COMPILED_PATH: ("int64", "uint8", "bool"),
    REPLAY_PATH: ("int64", "int16", "bool"),
    STREAMING_PATH: ("int64", "uint8", "bool"),
}

#: numpy callables that materialize arrays and accept a ``dtype=``.
_NP_CONSTRUCTORS = frozenset(
    {"zeros", "empty", "ones", "full", "array", "asarray",
     "ascontiguousarray", "arange", "fromiter"}
)

#: Names of the stepwise engines (rule R3): importing any of these into a
#: hot-path module would let reference code leak into the vectorized path.
_BANNED_NAMES = frozenset(
    {"Executor", "LRUCache", "DirectMappedCache", "TwoLevelCache",
     "OPTCache", "simulate_opt", "simulate_opt_misses",
     "stepwise_trace_misses", "TracingCache"}
)
#: Module prefixes hot-path modules may not import from at all.
_BANNED_MODULE_PREFIXES = ("repro.testing",)

#: Service-path modules that must stay benchmarked (rule R2): if the module
#: exists, some ``benchmarks/bench_*.py`` must reference the named symbol —
#: a cache nobody measures silently rots.  Keyed by path so synthetic
#: overlay projects (which omit these files) are exempt.
SERVICE_BENCH_REQUIRED: Dict[str, str] = {
    TRACE_CACHE_PATH: "TraceCache",
}

#: The :mod:`repro.obs` emitter functions whose first argument is a
#: span/metric name (rule R6).
_OBS_EMITTERS = frozenset({"span", "add", "gauge", "observe", "series"})

#: Module prefixes :mod:`repro.obs` may not import at module load (rule
#: R6): instrumentation must stay importable — and near-free to import —
#: from every layer, so it cannot pull in numpy or the heavy repro
#: packages it instruments (which would also create import cycles).
_OBS_HEAVY_PREFIXES = (
    "numpy",
    "repro.analysis",
    "repro.cache",
    "repro.core",
    "repro.graphs",
    "repro.mem",
    "repro.runtime",
    "repro.testing",
)


# ---------------------------------------------------------------------------
# AST helpers
# ---------------------------------------------------------------------------
def _callee_name(call: ast.Call) -> Optional[str]:
    """Bare name of a call target: ``foo(...)`` or ``mod.foo(...)`` -> foo."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _str_arg(call: ast.Call, position: int = 0) -> Optional[str]:
    if len(call.args) > position:
        node = call.args[position]
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
    return None


def _kw_str(call: ast.Call, name: str) -> Optional[str]:
    for kw in call.keywords:
        if kw.arg == name and isinstance(kw.value, ast.Constant) \
                and isinstance(kw.value.value, str):
            return kw.value.value
    return None


def _string_constants(tree: ast.AST) -> Set[str]:
    return {
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }


def _tree(project: Project, rel: str, rule: str) -> Tuple[Optional[ast.Module], List[Violation]]:
    """Parse ``rel``; a missing or unparsable file is itself a violation."""
    try:
        return project.tree(rel), []
    except FileNotFoundError:
        return None, [
            Violation(rule=rule, path=rel, line=1,
                      message=f"{rel} is missing but required by rule {rule}")
        ]
    except SyntaxError as exc:
        return None, [
            Violation(rule=rule, path=rel, line=exc.lineno or 1,
                      message=f"{rel} does not parse: {exc.msg}")
        ]


def _read(project: Project, rel: str, rule: str) -> Tuple[Optional[str], List[Violation]]:
    try:
        return project.read(rel), []
    except FileNotFoundError:
        return None, [
            Violation(rule=rule, path=rel, line=1,
                      message=f"{rel} is missing but required by rule {rule}")
        ]


# ---------------------------------------------------------------------------
# shared extractors (also used by tests and docs snippets)
# ---------------------------------------------------------------------------
def registered_policies(project: Project) -> List[Tuple[str, str, int]]:
    """``(policy, path, line)`` for every ``register_policy(ReplacementPolicy
    (name=...))`` call under ``src/repro/cache/``."""
    out: List[Tuple[str, str, int]] = []
    for rel in project.glob(CACHE_GLOB):
        try:
            tree = project.tree(rel)
        except (FileNotFoundError, SyntaxError):
            continue  # R1 reports parse problems via its own anchor files
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and _callee_name(node) == "register_policy"):
                continue
            for inner in ast.walk(node):
                if isinstance(inner, ast.Call) and _callee_name(inner) == "ReplacementPolicy":
                    name = _kw_str(inner, "name") or _str_arg(inner)
                    if name:
                        out.append((name, rel, node.lineno))
    return out


def registered_replay_kernels(tree: ast.AST) -> Set[str]:
    """Policy names passed to ``register_replay_kernel(...)`` in replay.py."""
    return {
        name
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and _callee_name(node) == "register_replay_kernel"
        and (name := _str_arg(node)) is not None
    }


def experiment_drivers(project: Project) -> List[Tuple[str, str, str, int]]:
    """``(id, driver_name, path, line)`` for every top-level
    ``experiment_eN_*`` / ``ablation_aN_*`` def under ``repro.analysis``."""
    pat = re.compile(r"^(?:experiment_(e\d+)|ablation_(a\d+))_\w+$")
    out: List[Tuple[str, str, str, int]] = []
    for rel in project.glob(ANALYSIS_GLOB):
        try:
            tree = project.tree(rel)
        except (FileNotFoundError, SyntaxError):
            continue
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                m = pat.match(node.name)
                if m:
                    out.append((m.group(1) or m.group(2), node.name, rel, node.lineno))
    return out


def cli_experiment_ids(tree: ast.AST) -> Set[str]:
    """Experiment ids the CLI dispatches: recovered from the dict
    comprehensions ``{f"e{i}": ... for i in range(lo, hi)}`` in
    ``cmd_experiment`` — empty when the dispatch shape is unrecognizable
    (which R2 reports as its own violation)."""
    ids: Set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.DictComp):
            continue
        key = node.key
        if not (isinstance(key, ast.JoinedStr) and key.values
                and isinstance(key.values[0], ast.Constant)
                and isinstance(key.values[0].value, str)):
            continue
        prefix = key.values[0].value
        if prefix not in ("e", "a") or not node.generators:
            continue
        it = node.generators[0].iter
        if (isinstance(it, ast.Call) and isinstance(it.func, ast.Name)
                and it.func.id == "range" and len(it.args) == 2
                and all(isinstance(a, ast.Constant) and isinstance(a.value, int)
                        for a in it.args)):
            lo, hi = it.args[0].value, it.args[1].value  # type: ignore[union-attr]
            ids |= {f"{prefix}{i}" for i in range(lo, hi)}
    return ids


def _heading_lines(text: str) -> List[str]:
    """Markdown heading lines, lowercased with code ticks stripped."""
    return [
        line.lstrip("#").replace("`", "").strip().lower()
        for line in text.splitlines()
        if line.startswith("#")
    ]


# ---------------------------------------------------------------------------
# R1 — registry completeness
# ---------------------------------------------------------------------------
@register_rule(
    "R1",
    "registry-completeness",
    "every registered cache policy has a replay kernel, a differential "
    "test, a docs/REPLAY.md heading, and a CLI surface",
)
def rule_registry_completeness(project: Project) -> Iterator[Violation]:
    policies = registered_policies(project)
    replay_tree, errs = _tree(project, REPLAY_PATH, "R1")
    yield from errs
    kernels = registered_replay_kernels(replay_tree) if replay_tree else set()
    cli_tree, errs = _tree(project, CLI_PATH, "R1")
    yield from errs
    cli_literals = _string_constants(cli_tree) if cli_tree else set()
    doc_text, errs = _read(project, REPLAY_DOC, "R1")
    yield from errs
    headings = _heading_lines(doc_text) if doc_text is not None else []

    tested: Set[str] = set()
    for rel in project.glob(TESTS_GLOB):
        try:
            tree = project.tree(rel)
        except (FileNotFoundError, SyntaxError):
            continue
        names = {
            n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(tree)
            if isinstance(n, (ast.Name, ast.Attribute))
        }
        if "differential_grid" not in names:
            continue
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and _callee_name(node) in ("replay_kernel", "stepwise_oracle")
                    and (pol := _str_arg(node)) is not None):
                tested.add(pol)

    for policy, rel, line in policies:
        if replay_tree is not None and policy not in kernels:
            yield Violation(
                rule="R1", path=rel, line=line,
                message=f"policy {policy!r} has no vectorized kernel: add a "
                f"register_replay_kernel({policy!r}, ...) branch in {REPLAY_PATH}",
            )
        if policy not in tested:
            yield Violation(
                rule="R1", path=rel, line=line,
                message=f"policy {policy!r} has no differential test: no "
                f"tests/test_*.py pins replay_kernel({policy!r}) / "
                f"stepwise_oracle({policy!r}) through "
                f"repro.testing.harness.differential_grid",
            )
        if doc_text is not None and not any(policy in h for h in headings):
            yield Violation(
                rule="R1", path=rel, line=line,
                message=f"policy {policy!r} has no {REPLAY_DOC} heading "
                f"documenting its algorithm and oracle contract",
            )
        if cli_tree is not None and policy not in cli_literals:
            yield Violation(
                rule="R1", path=rel, line=line,
                message=f"policy {policy!r} is not reachable from the CLI: "
                f"{CLI_PATH} never names it (add a --policy choice or an "
                f"option that selects it)",
            )


# ---------------------------------------------------------------------------
# R2 — experiment completeness
# ---------------------------------------------------------------------------
@register_rule(
    "R2",
    "experiment-completeness",
    "every E*/A* experiment driver has a CLI dispatch, a tier-1 test "
    "reference (or documented exemption), and a README row",
)
def rule_experiment_completeness(project: Project) -> Iterator[Violation]:
    drivers = experiment_drivers(project)
    cli_tree, errs = _tree(project, CLI_PATH, "R2")
    yield from errs
    dispatch: Set[str] = set()
    if cli_tree is not None:
        dispatch = cli_experiment_ids(cli_tree)
        if not dispatch:
            yield Violation(
                rule="R2", path=CLI_PATH, line=1,
                message="cannot recover the experiment dispatch ids from "
                "cmd_experiment (expected {f\"e{i}\": ... for i in "
                "range(lo, hi)}-style dict comprehensions)",
            )
    readme_text, errs = _read(project, README, "R2")
    yield from errs
    test_text = "\n".join(
        project.read(rel) for rel in project.glob(TESTS_GLOB) if project.exists(rel)
    )
    bench_text = "\n".join(
        project.read(rel) for rel in project.glob(BENCH_GLOB) if project.exists(rel)
    )

    for exp_id, driver, rel, line in drivers:
        if cli_tree is not None and dispatch and exp_id not in dispatch:
            yield Violation(
                rule="R2", path=rel, line=line,
                message=f"experiment {exp_id!r} ({driver}) has no CLI "
                f"dispatch: widen the id ranges in {CLI_PATH} cmd_experiment",
            )
        if driver not in test_text and exp_id not in BENCH_EXEMPT:
            yield Violation(
                rule="R2", path=rel, line=line,
                message=f"experiment {exp_id!r} ({driver}) is not referenced "
                f"by any tests/test_*.py and has no documented "
                f"exemption in repro.lint.rules.BENCH_EXEMPT",
            )
        if readme_text is not None and driver not in readme_text:
            yield Violation(
                rule="R2", path=rel, line=line,
                message=f"experiment {exp_id!r} ({driver}) has no {README} "
                f"row: add it to the experiments table",
            )

    # service-path modules must stay measured; only checked where the
    # module actually exists so partial overlay projects stay silent
    for rel, symbol in SERVICE_BENCH_REQUIRED.items():
        if not project.exists(rel):
            continue
        if symbol not in bench_text:
            yield Violation(
                rule="R2", path=rel, line=1,
                message=f"service module {rel} is not exercised by any "
                f"benchmarks/bench_*.py ({symbol!r} is never referenced): "
                f"wire it into benchmarks/bench_trace_engine.py",
            )


# ---------------------------------------------------------------------------
# R3 — hot-path purity
# ---------------------------------------------------------------------------
@register_rule(
    "R3",
    "hot-path-purity",
    "vectorized replay/compile modules and the experiment drivers never "
    "import the stepwise oracle classes",
)
def rule_hot_path_purity(project: Project) -> Iterator[Violation]:
    # the two compile/replay kernels are mandatory; the runtime modules
    # that set replay defaults, cache and stream traces obey the same
    # purity contract wherever they exist (partial
    # overlay projects omit them, which is not a violation), and so does
    # every analysis module: the drivers measure on the compiled path
    targets = [REPLAY_PATH, COMPILED_PATH] + [
        rel
        for rel in (BACKEND_PATH, TRACE_CACHE_PATH, STREAMING_PATH)
        if project.exists(rel)
    ] + project.glob(ANALYSIS_GLOB)
    for rel in targets:
        tree, errs = _tree(project, rel, "R3")
        yield from errs
        if tree is None:
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if module.startswith(_BANNED_MODULE_PREFIXES):
                    yield Violation(
                        rule="R3", path=rel, line=node.lineno,
                        message=f"hot-path module imports {module}: oracles "
                        f"and test harnesses stay in tests/repro.testing",
                    )
                    continue
                for alias in node.names:
                    if alias.name in _BANNED_NAMES:
                        yield Violation(
                            rule="R3", path=rel, line=node.lineno,
                            message=f"hot-path module imports stepwise "
                            f"engine {alias.name!r} from {module}: the "
                            f"vectorized path must not depend on its oracle",
                        )
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith(_BANNED_MODULE_PREFIXES):
                        yield Violation(
                            rule="R3", path=rel, line=node.lineno,
                            message=f"hot-path module imports {alias.name}: "
                            f"oracles and test harnesses stay in "
                            f"tests/repro.testing",
                        )


# ---------------------------------------------------------------------------
# R4 — dtype/shape contracts
# ---------------------------------------------------------------------------
def _dtype_token(node: ast.expr) -> Optional[str]:
    """Normalize a ``dtype=`` value: ``np.int64`` -> 'int64', ``bool`` ->
    'bool', ``"int64"`` -> 'int64'; None for anything non-literal."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


@register_rule(
    "R4",
    "dtype-contracts",
    "hot-path numpy constructors pass explicit dtypes from the module's "
    "documented contract",
)
def rule_dtype_contracts(project: Project) -> Iterator[Violation]:
    for rel, allowed in DTYPE_CONTRACTS.items():
        # the streaming engine is optional (partial overlay projects omit
        # it); the core compile/replay kernels are mandatory
        if rel == STREAMING_PATH and not project.exists(rel):
            continue
        tree, errs = _tree(project, rel, "R4")
        yield from errs
        if tree is None:
            continue
        doc = ast.get_docstring(tree) or ""
        for dtype in allowed:
            if dtype not in doc:
                yield Violation(
                    rule="R4", path=rel, line=1,
                    message=f"dtype contract not documented: module "
                    f"docstring never mentions {dtype!r} (contract: "
                    f"{', '.join(allowed)})",
                )
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "np"
                    and node.func.attr in _NP_CONSTRUCTORS):
                continue
            dtype_kw = next((kw.value for kw in node.keywords if kw.arg == "dtype"), None)
            if dtype_kw is None:
                yield Violation(
                    rule="R4", path=rel, line=node.lineno,
                    message=f"np.{node.func.attr}(...) without an explicit "
                    f"dtype= in a hot-path module (contract: "
                    f"{', '.join(allowed)})",
                )
                continue
            token = _dtype_token(dtype_kw)
            if token is None or token not in allowed:
                yield Violation(
                    rule="R4", path=rel, line=node.lineno,
                    message=f"np.{node.func.attr}(dtype={token or '<dynamic>'}) "
                    f"is outside the module's documented contract "
                    f"({', '.join(allowed)})",
                )


# ---------------------------------------------------------------------------
# R6 — obs name registry + import-light obs package
# ---------------------------------------------------------------------------
def obs_registered_names(project: Project) -> Dict[str, str]:
    """``{CONSTANT: value}`` for every module-level upper-case string
    assignment in :mod:`repro.obs.names` — the only names rule R6 lets
    instrumentation emit.  Empty when the module is missing or broken."""
    try:
        tree = project.tree(OBS_NAMES_PATH)
    except (FileNotFoundError, SyntaxError):
        return {}
    out: Dict[str, str] = {}
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id.isupper()
                and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            out[node.targets[0].id] = node.value.value
    return out


def _obs_bindings(
    tree: ast.AST,
) -> Tuple[Set[str], Set[str], Set[str], Set[str]]:
    """Names a module binds to the obs API: ``(module_aliases,
    names_aliases, bare_emitters, imported_constants)``.

    ``module_aliases`` are bindings of ``repro.obs`` or ``repro.obs.core``
    (``obs.span(...)`` call bases); ``names_aliases`` bind
    ``repro.obs.names`` (``obs_names.CACHE_HITS`` attribute bases);
    ``bare_emitters`` are emitter functions imported directly; and
    ``imported_constants`` are name constants imported from
    ``repro.obs.names`` (valid as bare first arguments).
    """
    module_aliases: Set[str] = set()
    names_aliases: Set[str] = set()
    bare_emitters: Set[str] = set()
    imported_constants: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            module = node.module or ""
            for alias in node.names:
                bound = alias.asname or alias.name
                if module == "repro" and alias.name == "obs":
                    module_aliases.add(bound)
                elif module == "repro.obs":
                    if alias.name == "core":
                        module_aliases.add(bound)
                    elif alias.name == "names":
                        names_aliases.add(bound)
                    elif alias.name in _OBS_EMITTERS:
                        bare_emitters.add(bound)
                elif module == "repro.obs.core" and alias.name in _OBS_EMITTERS:
                    bare_emitters.add(bound)
                elif module == "repro.obs.names":
                    imported_constants.add(bound)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name
                if alias.name in ("repro.obs", "repro.obs.core"):
                    module_aliases.add(bound)
                elif alias.name == "repro.obs.names":
                    names_aliases.add(bound)
    return module_aliases, names_aliases, bare_emitters, imported_constants


@register_rule(
    "R6",
    "obs-name-registry",
    "every span/metric name emitted under src/repro comes from "
    "repro.obs.names, and repro.obs itself stays import-light at load",
)
def rule_obs_name_registry(project: Project) -> Iterator[Violation]:
    # --- the obs package must stay cheap and cycle-free to import -------
    for rel in project.glob(OBS_GLOB):
        try:
            tree = project.tree(rel)
        except (FileNotFoundError, SyntaxError):
            continue  # a broken obs module surfaces through the test suite
        for node in tree.body:  # top-level only: lazy imports are fine
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module or ""]
            else:
                continue
            for module in modules:
                if module.startswith(_OBS_HEAVY_PREFIXES):
                    yield Violation(
                        rule="R6", path=rel, line=node.lineno,
                        message=f"repro.obs must stay import-light: "
                        f"module-level import of {module} would make every "
                        f"layer pay for (and cycle with) the code obs "
                        f"instruments — import it lazily inside a function "
                        f"if it is really needed",
                    )

    # --- every emitted name must be registered in repro.obs.names -------
    registered = obs_registered_names(project)
    values = set(registered.values())
    for rel in sorted({f for pat in SRC_GLOBS for f in project.glob(pat)}):
        try:
            tree = project.tree(rel)
        except (FileNotFoundError, SyntaxError):
            continue
        module_aliases, names_aliases, bare_emitters, constants = _obs_bindings(tree)
        if not (module_aliases or bare_emitters):
            continue
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id in module_aliases
                    and func.attr in _OBS_EMITTERS):
                emitter = func.attr
            elif isinstance(func, ast.Name) and func.id in bare_emitters:
                emitter = func.id
            else:
                continue
            if not node.args:
                yield Violation(
                    rule="R6", path=rel, line=node.lineno,
                    message=f"obs.{emitter}(...) without a positional name "
                    f"argument — pass a repro.obs.names constant",
                )
                continue
            arg = node.args[0]
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                if arg.value not in values:
                    yield Violation(
                        rule="R6", path=rel, line=node.lineno,
                        message=f"obs.{emitter}({arg.value!r}) uses a name "
                        f"not registered in repro.obs.names — add a "
                        f"constant there (one module owns the namespace, "
                        f"so dashboards and tests can enumerate it)",
                    )
            elif (isinstance(arg, ast.Attribute)
                    and isinstance(arg.value, ast.Name)
                    and arg.value.id in names_aliases):
                if arg.attr not in registered:
                    yield Violation(
                        rule="R6", path=rel, line=node.lineno,
                        message=f"obs.{emitter}(...) references "
                        f"{arg.value.id}.{arg.attr}, which repro.obs.names "
                        f"does not define",
                    )
            elif isinstance(arg, ast.Name) and arg.id in constants:
                pass  # imported straight from repro.obs.names
            else:
                yield Violation(
                    rule="R6", path=rel, line=node.lineno,
                    message=f"obs.{emitter}(...) with a dynamic name — "
                    f"metric names must be literal repro.obs.names "
                    f"constants so the namespace stays enumerable "
                    f"(suppress with '# repro-lint: disable=R6' for "
                    f"audited forwarders)",
                )
